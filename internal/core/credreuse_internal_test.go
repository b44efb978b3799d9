package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// bareBrokerSecurity is a BrokerSecurity with keys, a credential and a
// settable clock, but no broker: enough for the sid table and credential
// issuance.
func bareBrokerSecurity(t *testing.T, now *time.Time) *BrokerSecurity {
	t.Helper()
	kp, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	id, err := keys.CBID(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	self, err := cred.Issue(kp, id, id, "broker-1", cred.RoleBroker, kp.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &BrokerSecurity{
		cfg:    BrokerConfig{KeyPair: kp, Credential: self, CredValidity: DefaultCredValidity, SidTTL: time.Minute},
		issued: lru.New[issuedKey, issuedCred](xdsig.DefaultVerifyCacheSize),
		sids:   make(map[string]time.Time),
		clock:  func() time.Time { return *now },
	}
}

// TestSidFloodReapedByNextConnect: 10k sids that were never presented
// are all reaped by the first connect after their TTL, and the queue
// holds only the live sid afterwards.
func TestSidFloodReapedByNextConnect(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	bs := bareBrokerSecurity(t, &now)
	for i := 0; i < 10_000; i++ {
		bs.mintSid(fmt.Sprintf("stale-%d", i))
		now = now.Add(time.Millisecond) // 10 s of flood in all
	}
	if got := bs.PendingSids(); got != 10_000 {
		t.Fatalf("pending = %d, want 10000", got)
	}
	now = now.Add(bs.cfg.SidTTL + time.Second)
	bs.mintSid("fresh")
	if got := bs.PendingSids(); got != 1 {
		t.Fatalf("pending after sweep = %d, want 1", got)
	}
	if len(bs.sidQueue) != 1 || bs.sidQueue[0].sid != "fresh" {
		t.Fatalf("sid queue holds %d entries after sweep, want only the fresh sid", len(bs.sidQueue))
	}
	if !bs.consumeSid("fresh") || bs.consumeSid("fresh") {
		t.Fatal("fresh sid not single-use")
	}
}

// TestSidSweepStopsAtFirstLive: a sweep reaps only the expired prefix.
func TestSidSweepStopsAtFirstLive(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	bs := bareBrokerSecurity(t, &now)
	bs.mintSid("old")
	now = now.Add(bs.cfg.SidTTL / 2)
	bs.mintSid("young")
	now = now.Add(bs.cfg.SidTTL/2 + time.Second) // "old" expired, "young" not
	bs.mintSid("new")
	if bs.PendingSids() != 2 || bs.consumeSid("old") {
		t.Fatal("expired sid survived the sweep")
	}
	if !bs.consumeSid("young") || !bs.consumeSid("new") {
		t.Fatal("live sids reaped")
	}
}

// TestConsumedSidsDoNotGrowQueue: sids presented right after minting
// leave the map at once; the queue must not keep them all until they
// age out.
func TestConsumedSidsDoNotGrowQueue(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	bs := bareBrokerSecurity(t, &now)
	for i := 0; i < 10_000; i++ {
		sid := fmt.Sprintf("sid-%d", i)
		bs.mintSid(sid)
		if !bs.consumeSid(sid) {
			t.Fatalf("sid %d refused", i)
		}
	}
	if bs.PendingSids() != 0 || len(bs.sidQueue) > 65 {
		t.Fatalf("pending %d, queue %d after 10k consumed sids", bs.PendingSids(), len(bs.sidQueue))
	}
}

// TestConsumeSidTTL: a sid is good up to and including its TTL.
func TestConsumeSidTTL(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	bs := bareBrokerSecurity(t, &now)
	bs.mintSid("a")
	bs.mintSid("b")
	now = now.Add(bs.cfg.SidTTL)
	if !bs.consumeSid("a") {
		t.Fatal("sid refused at exactly its TTL")
	}
	now = now.Add(time.Nanosecond)
	if bs.consumeSid("b") {
		t.Fatal("sid accepted past its TTL")
	}
}

// TestLoginCredentialKeyedByPeerUserKey: the issued-credential cache
// hands a credential back only for the same (peer, username, key).
func TestLoginCredentialKeyedByPeerUserKey(t *testing.T) {
	now := time.Now()
	bs := bareBrokerSecurity(t, &now)
	kp1, _ := keys.NewKeyPair()
	kp2, _ := keys.NewKeyPair()
	peer, _ := keys.CBID(kp1.Public())

	first, err := bs.loginCredential(peer, "alice", kp1.Public())
	if err != nil {
		t.Fatal(err)
	}
	again, _ := bs.loginCredential(peer, "alice", kp1.Public())
	if !bytes.Equal(first, again) {
		t.Fatal("same peer, user and key: credential re-issued")
	}
	sig0 := bs.cfg.KeyPair.SignCalls()
	otherUser, _ := bs.loginCredential(peer, "mallory", kp1.Public())
	otherKey, _ := bs.loginCredential(peer, "alice", kp2.Public())
	if bytes.Equal(otherUser, first) || bytes.Equal(otherKey, first) || bytes.Equal(otherUser, otherKey) {
		t.Fatal("credential reused across a different username or key")
	}
	if got := bs.cfg.KeyPair.SignCalls() - sig0; got != 2 {
		t.Fatalf("signatures = %d, want one per new (peer, user, key)", got)
	}

	// A credential whose NotBefore lies ahead of the clock (the clock
	// was set back) is not handed out.
	now = now.Add(-time.Hour)
	back, _ := bs.loginCredential(peer, "alice", kp1.Public())
	if bytes.Equal(back, first) {
		t.Fatal("credential reused before its NotBefore")
	}
}

// advSigFixture is a client key pair, its two-link chain and an
// unsigned pipe advertisement.
type advSigFixture struct {
	kp, brKP *keys.KeyPair
	chain    []*cred.Credential
	adv      *advert.Pipe
}

func newAdvSigFixture(t *testing.T) *advSigFixture {
	t.Helper()
	brKP, _ := keys.NewKeyPair()
	kp, _ := keys.NewKeyPair()
	brID, _ := keys.CBID(brKP.Public())
	id, _ := keys.CBID(kp.Public())
	brCred, err := cred.Issue(brKP, brID, brID, "broker-1", cred.RoleBroker, brKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := cred.Issue(brKP, brID, id, "alice", cred.RoleClient, kp.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &advSigFixture{
		kp: kp, brKP: brKP,
		chain: []*cred.Credential{leaf, brCred},
		adv:   &advert.Pipe{PipeID: "urn:jxta:pipe-1", PipeType: advert.PipeUnicast, Name: "msg/math/" + string(id), PeerID: id, Group: "math"},
	}
}

func (f *advSigFixture) doc(t *testing.T) *xmldoc.Element {
	t.Helper()
	doc, err := f.adv.Document()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestAdvSigMemoMatchesFreshSign: a remembered signature is byte for
// byte what xdsig.Sign produces, costs no signature, and still verifies;
// a changed document or chain link signs anew.
func TestAdvSigMemoMatchesFreshSign(t *testing.T) {
	f := newAdvSigFixture(t)
	m := newAdvSigMemo(f.kp)
	fresh := func(doc *xmldoc.Element, chain []*cred.Credential) []byte {
		t.Helper()
		if err := xdsig.Sign(doc, f.kp, chain...); err != nil {
			t.Fatal(err)
		}
		return doc.Canonical()
	}
	memo := func(doc *xmldoc.Element, chain []*cred.Credential) ([]byte, uint64) {
		t.Helper()
		before := f.kp.SignCalls()
		if err := m.sign(doc, chain); err != nil {
			t.Fatal(err)
		}
		return doc.Canonical(), f.kp.SignCalls() - before
	}

	first, signs := memo(f.doc(t), f.chain)
	if signs != 1 {
		t.Fatalf("first sign cost %d signatures", signs)
	}
	for i := 0; i < 3; i++ {
		doc := f.doc(t)
		got, signs := memo(doc, f.chain)
		if signs != 0 {
			t.Fatalf("repeat %d cost %d signatures, want 0", i, signs)
		}
		if want := fresh(f.doc(t), f.chain); !bytes.Equal(got, want) || !bytes.Equal(got, first) {
			t.Fatalf("repeat %d: memoized document differs from xdsig.Sign", i)
		}
		if _, err := xdsig.Verify(doc); err != nil {
			t.Fatalf("memoized document does not verify: %v", err)
		}
	}

	// Re-signing an already signed document replaces its signature.
	signed := f.doc(t)
	_ = m.sign(signed, f.chain)
	if got, signs := memo(signed, f.chain); signs != 0 || !bytes.Equal(got, first) {
		t.Fatal("re-signing a signed document did not reuse the signature")
	}

	changedDoc := f.doc(t)
	changedDoc.Child("Name").SetText("msg/math/other")
	if got, signs := memo(changedDoc, f.chain); signs != 1 || !bytes.Equal(got, fresh(changedDoc.Clone(), f.chain)) {
		t.Fatalf("changed document: %d signatures", signs)
	}

	reissued, err := cred.Issue(f.brKP, f.chain[0].Issuer, f.chain[0].Subject, "alice", cred.RoleClient, f.kp.Public(), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	leafChain := []*cred.Credential{reissued, f.chain[1]}
	if got, signs := memo(f.doc(t), leafChain); signs != 1 || !bytes.Equal(got, fresh(f.doc(t), leafChain)) {
		t.Fatalf("changed leaf credential: %d signatures", signs)
	}

	// Same broker body, different signature bytes: a chain link is
	// identified by its issuer signature too, not only its digest.
	forgedBr := f.chain[1].Clone()
	forgedBr.Signature[0] ^= 1
	brChain := []*cred.Credential{f.chain[0], forgedBr}
	if _, signs := memo(f.doc(t), brChain); signs != 1 {
		t.Fatalf("changed broker link: %d signatures", signs)
	}
}

// TestCredReuseConcurrent: concurrent logins of one identity and
// concurrent signs of one advertisement all get the same bytes.
func TestCredReuseConcurrent(t *testing.T) {
	now := time.Now()
	bs := bareBrokerSecurity(t, &now)
	f := newAdvSigFixture(t)
	m := newAdvSigMemo(f.kp)
	peer := f.chain[0].Subject
	want, err := bs.loginCredential(peer, "alice", f.kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	signed := f.doc(t)
	if err := m.sign(signed, f.chain); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	creds := make([][]byte, workers)
	docs := make([]*xmldoc.Element, workers)
	for i := 0; i < workers; i++ {
		docs[i] = f.doc(t)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			creds[i], _ = bs.loginCredential(peer, "alice", f.kp.Public())
			if err := m.sign(docs[i], f.chain); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if !bytes.Equal(creds[i], want) {
			t.Fatalf("worker %d got a different credential", i)
		}
		if !bytes.Equal(docs[i].Canonical(), signed.Canonical()) {
			t.Fatalf("worker %d got a different signature", i)
		}
	}
}
