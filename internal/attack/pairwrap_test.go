// Pair key-wrap negatives: a sender reuses one KEK per recipient key
// and the recipient memoizes the KEK's RSA decrypt, so the wrap gained
// state on both ends. These tests pin that the state opens no door: a
// cached blob does not vouch for the bytes behind it, a wrap stays bound
// to its recipient, a leaked KEK grants decryption but never sender
// authenticity, malformed wraps die before any key is used, and a
// hostile flood cannot grow the memo past its bound.
package attack_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"testing"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// sliceWrapAt is where a ModeSlice wire's wrap length sits: after the
// mode byte, recipient count, leaf index and fingerprint.
const sliceWrapAt = 1 + 4 + 4 + 32

func sliceWrap(wire []byte) []byte {
	n := binary.BigEndian.Uint32(wire[sliceWrapAt:])
	return wire[sliceWrapAt+4 : sliceWrapAt+4+int(n)]
}

// withSliceWrap re-cuts a slice wire around a different wrap, fixing up
// the outer length so only the wrap itself is hostile.
func withSliceWrap(wire, wrap []byte) []byte {
	rest := wire[sliceWrapAt+4+len(sliceWrap(wire)):]
	out := append([]byte(nil), wire[:sliceWrapAt]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(wrap)))
	out = append(out, wrap...)
	return append(out, rest...)
}

func sealSlices(t *testing.T, from roundParty, body string, to ...roundParty) [][]byte {
	t.Helper()
	pubs := make([]*keys.PublicKey, len(to))
	for i, p := range to {
		pubs[i] = p.kp.Public()
	}
	d, err := core.SealGroupDetached(from.kp, from.id, "math", []byte(body), pubs)
	if err != nil {
		t.Fatal(err)
	}
	return d.Slices()
}

// TestPairWrapForgedGCMBehindCachedBlobRejected: carol has opened one of
// alice's slices, so alice's KEK blob sits in carol's memo. An on-path
// attacker keeps that blob but replaces what it protects. The memo hit
// must not vouch for the forged GCM part, and the memo must still serve
// alice's next genuine wrap without another RSA operation.
func TestPairWrapForgedGCMBehindCachedBlobRejected(t *testing.T) {
	alice, carol := newRoundParty(t), newRoundParty(t)
	if _, err := core.OpenSlice(carol.kp, sealSlices(t, alice, "first", carol)[0], nil); err != nil {
		t.Fatal(err)
	}
	rsaBefore := carol.kp.UnwrapCalls()

	wire := sealSlices(t, alice, "second", carol)[0]
	wrap := bytes.Clone(sliceWrap(wire))
	for i := len(wrap) - 48; i < len(wrap); i++ { // the sealed CEK and its tag
		wrap[i] ^= 0x5a
	}
	if _, err := core.OpenSlice(carol.kp, withSliceWrap(wire, wrap), nil); !errors.Is(err, core.ErrNotRecipient) {
		t.Fatalf("forged GCM part behind a cached blob = %v, want ErrNotRecipient", err)
	}
	nonceForged := bytes.Clone(sliceWrap(wire))
	nonceForged[len(nonceForged)-60] ^= 0x01 // first nonce byte
	if _, err := carol.kp.UnwrapKey(nonceForged); !errors.Is(err, keys.ErrDecrypt) {
		t.Fatalf("forged nonce behind a cached blob = %v, want ErrDecrypt", err)
	}

	if _, err := core.OpenSlice(carol.kp, sealSlices(t, alice, "third", carol)[0], nil); err != nil {
		t.Fatalf("genuine wrap after the forgeries: %v", err)
	}
	if got := carol.kp.UnwrapCalls() - rsaBefore; got != 0 {
		t.Fatalf("forgeries cost carol %d extra RSA unwraps; the memo must stay valid", got)
	}
}

// TestPairWrapSplicedIntoOtherRecipientsSliceRejected: alice's round
// goes to carol and dave. A relay splices carol's pair wrap (under the
// KEK of the alice→carol pair) into dave's slice, both before and after
// dave has a warm memo of his own KEK from alice.
func TestPairWrapSplicedIntoOtherRecipientsSliceRejected(t *testing.T) {
	alice, carol, dave := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	for round := 0; round < 2; round++ {
		slices := sealSlices(t, alice, "spliced", carol, dave)
		spliced := withSliceWrap(slices[1], sliceWrap(slices[0]))
		_, err := core.OpenSlice(dave.kp, spliced, nil)
		if !errors.Is(err, core.ErrNotRecipient) && !errors.Is(err, core.ErrRoundBinding) {
			t.Fatalf("round %d: carol's wrap in dave's slice = %v, want ErrNotRecipient or ErrRoundBinding", round, err)
		}
		if _, err := core.OpenSlice(dave.kp, slices[1], nil); err != nil {
			t.Fatalf("round %d: dave's genuine slice: %v", round, err)
		}
	}
}

// TestPairWrapLeakedKEKCannotImpersonateSender is the key-compromise
// impersonation negative. Eve holds KEK_AC, leaked from the alice→carol
// pair. She can wrap content keys carol will open — but carol accepts a
// message as alice's only on alice's header signature, which eve cannot
// produce: an unsigned header and one carrying a signature lifted from
// a genuine message of alice both fail.
func TestPairWrapLeakedKEKCannotImpersonateSender(t *testing.T) {
	alice, carol := newRoundParty(t), newRoundParty(t)
	genuine, err := core.Seal(alice.kp, alice.id, "math", []byte("hello carol"), carol.kp.Public(), core.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := core.Open(carol.kp, genuine.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := opened.VerifySignature(alice.kp.Public()); err != nil {
		t.Fatal(err)
	}
	env, err := keys.ParseEnvelope(genuine.Bytes()[1:])
	if err != nil {
		t.Fatal(err)
	}
	kek, blob, err := attack.LeakKEK(carol.kp, env.WrappedKey)
	if err != nil {
		t.Fatal(err)
	}
	withLeakedKEK := func(cek []byte) ([]byte, error) {
		return attack.ForgePairWrap(kek, blob, carol.kp.Public(), cek)
	}
	lifted := signatureOf(t, carol.kp, genuine.Bytes())
	for name, sig := range map[string][]byte{"unsigned": nil, "lifted signature": lifted} {
		forged, err := attack.ForgeFullEnvelope(withLeakedKEK, alice.id, "math", []byte("wire the money to eve"), sig)
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.Open(carol.kp, forged)
		if err != nil {
			t.Fatalf("%s: carol did not decrypt under the leaked KEK (%v); the test must reach the signature check", name, err)
		}
		if string(o.Body) != "wire the money to eve" || o.Sender != alice.id {
			t.Fatalf("%s: opened %q from %s", name, o.Body, o.Sender)
		}
		if err := o.VerifySignature(alice.kp.Public()); !errors.Is(err, core.ErrNoSignature) && !errors.Is(err, core.ErrSigInvalid) {
			t.Fatalf("%s: forged message accepted as alice's: VerifySignature = %v", name, err)
		}
	}
}

// signatureOf decrypts a genuine ModeFull wire and returns the raw
// header signature it carries.
func signatureOf(t *testing.T, own *keys.KeyPair, wire []byte) []byte {
	t.Helper()
	env, err := keys.ParseEnvelope(wire[1:])
	if err != nil {
		t.Fatal(err)
	}
	block, err := own.Decrypt(env)
	if err != nil {
		t.Fatal(err)
	}
	hlen := binary.BigEndian.Uint32(block)
	header, err := xmldoc.ParseCanonical(block[4 : 4+hlen])
	if err != nil {
		t.Fatal(err)
	}
	sig, err := base64.StdEncoding.DecodeString(header.ChildText("Signature"))
	if err != nil || len(sig) == 0 {
		t.Fatalf("genuine message carries no signature (%v)", err)
	}
	return sig
}

// TestPairWrapMalformedWrapsRejected: a relay truncates, extends or
// rewrites the length of the wrap inside a queued slice — each after
// the recipient's memo already holds the genuine blob, so only the
// layout check stands between the bytes and the cached KEK.
func TestPairWrapMalformedWrapsRejected(t *testing.T) {
	alice, carol := newRoundParty(t), newRoundParty(t)
	if _, err := core.OpenSlice(carol.kp, sealSlices(t, alice, "warm", carol)[0], nil); err != nil {
		t.Fatal(err)
	}
	wire := sealSlices(t, alice, "malformed", carol)[0]
	wrap := sliceWrap(wire)
	lying := func(delta int) []byte {
		w := bytes.Clone(wrap)
		binary.BigEndian.PutUint16(w, uint16(int(binary.BigEndian.Uint16(w))+delta))
		return w
	}
	cases := map[string][]byte{
		"truncated":        wrap[:len(wrap)-1],
		"truncated blob":   wrap[:2+64],
		"extended":         append(bytes.Clone(wrap), 0),
		"length too long":  lying(1),
		"length too short": lying(-1),
		"length zero":      lying(-int(binary.BigEndian.Uint16(wrap))),
	}
	for name, w := range cases {
		if _, err := carol.kp.UnwrapKey(w); !errors.Is(err, keys.ErrDecrypt) {
			t.Errorf("%s wrap: UnwrapKey = %v, want ErrDecrypt", name, err)
		}
		if _, err := core.OpenSlice(carol.kp, withSliceWrap(wire, w), nil); err == nil {
			t.Errorf("%s wrap: slice opened", name)
		}
	}
	if _, err := core.OpenSlice(carol.kp, wire, nil); err != nil {
		t.Fatalf("genuine slice after the malformed ones: %v", err)
	}
}

// TestPairWrapHostileFloodStaysBounded: anyone can RSA-wrap a KEK to
// carol's public key, so an adversary can make her decrypt and memoize
// as many distinct blobs as it likes, and can also send blobs that do
// not decrypt at all. The memo must stay at its bound, undecryptable
// blobs must never enter it, and alice's traffic must still open.
func TestPairWrapHostileFloodStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("performs more than a thousand RSA decrypts")
	}
	alice, carol := newRoundParty(t), newRoundParty(t)
	cek, err := keys.NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys.UnwrapCacheSize+64; i++ {
		w, err := carol.kp.Public().WrapKey(cek) // a fresh KEK blob every time
		if err != nil {
			t.Fatal(err)
		}
		w[len(w)-1] ^= 0xff // and a GCM part that does not open
		if _, err := carol.kp.UnwrapKey(w); !errors.Is(err, keys.ErrDecrypt) {
			t.Fatalf("hostile wrap %d = %v, want ErrDecrypt", i, err)
		}
	}
	if got := carol.kp.UnwrapCacheLen(); got != keys.UnwrapCacheSize {
		t.Fatalf("memo holds %d blobs after the flood, want its bound %d", got, keys.UnwrapCacheSize)
	}
	garbage := make([]byte, len(sliceWrap(sealSlices(t, alice, "shape", carol)[0])))
	binary.BigEndian.PutUint16(garbage, uint16(len(garbage)-2-12-48))
	for i := 0; i < 64; i++ {
		garbage[2+i] ^= byte(i + 1)
		if _, err := carol.kp.UnwrapKey(garbage); !errors.Is(err, keys.ErrDecrypt) {
			t.Fatalf("undecryptable blob %d = %v, want ErrDecrypt", i, err)
		}
	}
	if got := carol.kp.UnwrapCacheLen(); got != keys.UnwrapCacheSize {
		t.Fatalf("memo holds %d blobs after undecryptable ones, want %d", got, keys.UnwrapCacheSize)
	}
	if _, err := core.OpenSlice(carol.kp, sealSlices(t, alice, "after the flood", carol)[0], nil); err != nil {
		t.Fatalf("alice's slice after the flood: %v", err)
	}
}
