package core_test

import (
	"errors"
	"testing"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/seglog"
)

// TestBrokerLoginSurvivesFailedJournal pins the fail-open audit policy
// at the broker: with its journal dead (an injected disk crash), a
// secure login still completes, and the login event is counted lost —
// the signal an operator sees as audit_lost_total.
func TestBrokerLoginSurvivesFailedJournal(t *testing.T) {
	h := newSecureHarness(t, true)
	jnl, err := audit.Open(audit.Options{
		Dir: t.TempDir(), SyncInterval: -1,
		Faults: func(seglog.FaultPoint) error { return seglog.ErrInjected },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	if seq := jnl.Record(audit.Event{Kind: audit.KindOffense}); seq != 0 {
		t.Fatalf("crashed journal accepted seq %d", seq)
	}
	h.br.SetAuditor(jnl)

	h.join(h.secureClient("alice"), "pw-alice")

	if st := jnl.Stats(); st.Lost < 2 || !st.Failed {
		t.Fatalf("journal stats after login: %+v, want the login event counted lost", st)
	}
	if err := jnl.Sync(); !errors.Is(err, audit.ErrJournalFailed) {
		t.Fatalf("Sync on the failed journal: %v", err)
	}
}
