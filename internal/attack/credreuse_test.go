// Credential-reuse negatives: a broker hands a returning client the
// credential it issued at an earlier login, and the login envelope rides
// a pair KEK whose RSA decrypt the broker memoizes. These tests pin that
// neither opens a door: with a credential cached for alice, every flawed
// login is refused with its own token, carries no credential, and is
// audited exactly as before; a captured envelope, which the broker can
// now decrypt without RSA, still dies on its consumed sid.
package attack_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strconv"
	"testing"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

func auditedSecureStack(t *testing.T) (*secureStack, *audit.Journal) {
	t.Helper()
	s := newSecureStack(t)
	jnl, err := audit.Open(audit.Options{Dir: t.TempDir(), SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	s.br.SetAuditor(jnl)
	return s, jnl
}

// lastAudit returns the journal's newest record.
func lastAudit(t *testing.T, jnl *audit.Journal) audit.RecordJSON {
	t.Helper()
	seq := jnl.Seq()
	rr := httptest.NewRecorder()
	jnl.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET",
		"/debug/audit?since="+strconv.FormatUint(seq-1, 10)+"&limit=1", nil))
	var page audit.PageJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 {
		t.Fatalf("no audit record at seq %d", seq)
	}
	return page.Events[0]
}

// sendLogin submits a secureLogin envelope over sc's broker connection.
func sendLogin(t *testing.T, sc *core.SecureClient, env []byte) (*endpoint.Message, error) {
	t.Helper()
	return sc.Call(testCtx(t), endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpSecureLogin).
		Add(proto.ElemEnvelope, env))
}

// wantRefusal checks a secureLogin was refused with token, handed out
// no credential, and left one audit record naming alice and the token.
func wantRefusal(t *testing.T, jnl *audit.Journal, seq0 uint64, alice keys.PeerID, resp *endpoint.Message, err error, token string) {
	t.Helper()
	var opErr *client.OpError
	if !errors.As(err, &opErr) || opErr.Token != token {
		t.Fatalf("refusal = %v, want token %s", err, token)
	}
	if resp != nil && resp.Has(proto.ElemCred) {
		t.Fatal("refused login carried a credential")
	}
	if got := jnl.Seq() - seq0; got != 1 {
		t.Fatalf("refusal wrote %d audit records, want 1", got)
	}
	want := audit.RecordJSON{Seq: jnl.Seq(), Kind: audit.KindLogin, Peer: string(alice), Op: proto.OpSecureLogin, Reason: token}
	got := lastAudit(t, jnl)
	got.TimeNS = 0
	if got != want {
		t.Fatalf("audit record %+v, want %+v", got, want)
	}
}

// TestCachedCredentialDoesNotBypassLoginChecks: alice's credential sits
// in the broker's issued-credential cache. Logins that reuse her peer
// ID, username and key — or only some of them — with a bad sid, a wrong
// password, a key that does not match her CBID, or a signature by
// another key are each refused with their own token before the cache is
// consulted.
func TestCachedCredentialDoesNotBypassLoginChecks(t *testing.T) {
	s, jnl := auditedSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	ctx := testCtx(t)
	if err := alice.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	aliceKP := alice.Identity().Keys
	malloryKP, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	brKey := s.brKP.Public()

	cases := []struct {
		name  string
		req   func(sid string) attack.LoginRequest
		token string
	}{
		{"bad sid", func(string) attack.LoginRequest {
			return attack.LoginRequest{User: "alice", Pass: "alice-secret-pw", PeerID: alice.PeerID(),
				Key: aliceKP.Public(), Sid: "00000000000000000000000000000000", Signer: aliceKP}
		}, proto.ErrBadSid},
		{"bad password", func(sid string) attack.LoginRequest {
			return attack.LoginRequest{User: "alice", Pass: "guess", PeerID: alice.PeerID(),
				Key: aliceKP.Public(), Sid: sid, Signer: aliceKP}
		}, proto.ErrAuthFailed},
		{"CBID mismatch", func(sid string) attack.LoginRequest {
			return attack.LoginRequest{User: "alice", Pass: "alice-secret-pw", PeerID: alice.PeerID(),
				Key: malloryKP.Public(), Sid: sid, Signer: malloryKP}
		}, proto.ErrCBIDMismatch},
		{"bad request signature", func(sid string) attack.LoginRequest {
			return attack.LoginRequest{User: "alice", Pass: "alice-secret-pw", PeerID: alice.PeerID(),
				Key: aliceKP.Public(), Sid: sid, Signer: malloryKP}
		}, proto.ErrBadSignature},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := alice.SecureConnection(ctx, s.br.PeerID()); err != nil {
				t.Fatal(err)
			}
			env, err := tc.req(alice.Sid()).Envelope(brKey)
			if err != nil {
				t.Fatal(err)
			}
			seq0, sig0 := jnl.Seq(), s.brKP.SignCalls()
			resp, err := sendLogin(t, alice, env)
			wantRefusal(t, jnl, seq0, alice.PeerID(), resp, err, tc.token)
			if got := s.brKP.SignCalls() - sig0; got != 0 {
				t.Fatalf("refused login cost the broker %d signatures", got)
			}
		})
	}
	online, err := bob.GetOnlinePeers(ctx, "math")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range online {
		if p.ID == alice.PeerID() {
			t.Fatal("a refused login brought alice online")
		}
	}
}

// TestReplayedLoginEnvelopeRejected: an eavesdropper captures alice's
// secureLogin envelope. Its KEK blob is in the broker's unwrap memo, so
// the broker decrypts a replay with no RSA operation — and refuses it
// on the sid the original login consumed.
func TestReplayedLoginEnvelopeRejected(t *testing.T) {
	s, jnl := auditedSecureStack(t)
	eve := attack.NewEavesdropper(s.net)
	alice := s.join(t, "alice", "alice-secret-pw")
	ctx := testCtx(t)
	var captured []byte
	for _, frame := range eve.FramesTo(simnet.NodeID(s.br.PeerID())) {
		m, err := endpoint.ParseMessage(frame)
		if err != nil {
			continue
		}
		if op, _ := m.GetString(proto.ElemOp); op == proto.OpSecureLogin {
			captured, _ = m.Get(proto.ElemEnvelope)
		}
	}
	if captured == nil {
		t.Fatal("no secureLogin envelope captured")
	}
	if err := alice.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	// A pending sid exists, so the refusal is about the captured one.
	if err := alice.SecureConnection(ctx, s.br.PeerID()); err != nil {
		t.Fatal(err)
	}

	seq0, unwrap0 := jnl.Seq(), s.brKP.UnwrapCalls()
	resp, err := sendLogin(t, alice, captured)
	wantRefusal(t, jnl, seq0, alice.PeerID(), resp, err, proto.ErrBadSid)
	if got := s.brKP.UnwrapCalls() - unwrap0; got != 0 {
		t.Fatalf("replay cost %d RSA unwraps, want 0 (memoized KEK)", got)
	}
}
