package audit

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/seglog"
)

// crashAt is a fault hook that kills the journal at point p once armed.
func crashAt(p seglog.FaultPoint, armed *atomic.Bool) seglog.FaultFunc {
	return func(fp seglog.FaultPoint) error {
		if armed.Load() && fp == p {
			return seglog.ErrInjected
		}
		return nil
	}
}

// TestJournalCrashRecovery is the journal's crash matrix, the same four
// fault points the relay WAL is driven through, in staged mode (the
// flusher interval is long, so every flush here is an explicit Sync).
// After a crash at each point the journal must reopen — a torn tail is
// truncated, never reported as damage — verify clean end to end, keep
// every record a successful Sync covered, and continue the sequence
// with no gap.
func TestJournalCrashRecovery(t *testing.T) {
	kp, chain, trust := signer(t)
	for _, p := range []seglog.FaultPoint{seglog.BeforeAppend, seglog.AfterAppend, seglog.BeforeSync, seglog.AfterSync} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			var armed atomic.Bool
			opts := Options{
				Dir: dir, SyncInterval: time.Hour, CheckpointEvery: 4,
				Signer: kp, Chain: chain, Faults: crashAt(p, &armed),
			}
			j, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				mustRecord(t, j, ev(i))
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			durable := j.Seq()

			armed.Store(true)
			for i := 0; i < 6; i++ {
				j.Record(ev(i))
			}
			if err := j.Sync(); !errors.Is(err, seglog.ErrInjected) || !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("sync after a crash at %s: %v", p, err)
			}
			j.Close()
			if p == seglog.BeforeSync {
				// The batch reached the page cache but was never fsynced:
				// a real crash may keep any prefix of it, torn mid-record.
				if _, err := TearRecord(dir); err != nil {
					t.Fatal(err)
				}
			}

			opts.Faults = nil
			j2, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen after a crash at %s: %v", p, err)
			}
			if p == seglog.BeforeSync && j2.Stats().TornBytes == 0 {
				t.Fatal("torn tail not truncated")
			}
			recovered := j2.Seq()
			if recovered < durable {
				t.Fatalf("recovered to seq %d, but a successful Sync covered seq %d", recovered, durable)
			}
			if seq := j2.Record(ev(99)); seq != recovered+1 {
				t.Fatalf("first record after recovery got seq %d, want %d", seq, recovered+1)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(dir, VerifyOptions{Trust: trust})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.LastSeq <= recovered {
				t.Fatalf("recovered journal: %+v (fault %v)", rep, rep.Fault)
			}
		})
	}
}

// TestJournalFailsOpen pins the failure policy: once the journal has
// failed, Record returns 0 at once and counts the event lost, and Sync
// and Close report ErrJournalFailed. The security surface keeps working
// without its journal (audit_lost_total is the operator's signal).
func TestJournalFailsOpen(t *testing.T) {
	var armed atomic.Bool
	j, err := Open(Options{Dir: t.TempDir(), SyncInterval: time.Hour, Faults: crashAt(seglog.BeforeAppend, &armed)})
	if err != nil {
		t.Fatal(err)
	}
	mustRecord(t, j, ev(0))
	armed.Store(true)
	for i := 1; i <= 3; i++ {
		done := make(chan uint64, 1)
		go func() { done <- j.Record(ev(i)) }()
		select {
		case seq := <-done:
			if seq != 0 {
				t.Fatalf("Record on a failed journal returned seq %d", seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Record blocked on a failed journal")
		}
	}
	if st := j.Stats(); st.Lost != 3 || !st.Failed {
		t.Fatalf("stats after failure: %+v, want 3 lost and failed", st)
	}
	if err := j.Sync(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Sync on a failed journal: %v", err)
	}
	if err := j.Close(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Close on a failed journal: %v", err)
	}
}
