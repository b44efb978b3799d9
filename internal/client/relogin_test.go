package client_test

import (
	"fmt"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/events"
)

// TestSendAfterRepeatedRelogin: every login re-binds the peer's group
// pipe and republishes its advertisement. Each message alice sends after
// one of bob's re-logins must reach bob's live pipe, never a pipe of one
// of his earlier sessions, and the broker must hold exactly one pipe
// advertisement for bob in the group however often he re-logs in.
func TestSendAfterRepeatedRelogin(t *testing.T) {
	const relogins = 8
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	ctx := testCtx(t)

	for i := 0; i <= relogins; i++ {
		if i > 0 {
			if err := bob.Logout(ctx); err != nil {
				t.Fatalf("relogin %d: Logout: %v", i, err)
			}
			h.login(bob, "pw-bob")
		}
		bobEvents := events.NewCollector(bob.Bus())
		text := fmt.Sprintf("after relogin %d", i)
		if err := alice.SendMsgPeer(ctx, bob.PeerID(), "math", text); err != nil {
			t.Fatalf("relogin %d: SendMsgPeer: %v", i, err)
		}
		e, ok := bobEvents.WaitFor(events.MessageReceived, 5*time.Second)
		if !ok {
			t.Fatalf("relogin %d: bob never received %q", i, text)
		}
		if string(e.Data) != text {
			t.Fatalf("relogin %d: bob received %q, want %q", i, e.Data, text)
		}
	}

	recs := h.br.Cache().Find(advert.TypePipe, func(a advert.Advertisement) bool {
		p := a.(*advert.Pipe)
		return p.PeerID == bob.PeerID() && p.Group == "math"
	})
	if len(recs) != 1 {
		t.Fatalf("broker caches %d pipe advertisements for bob in math after %d relogins, want 1", len(recs), relogins)
	}
}
