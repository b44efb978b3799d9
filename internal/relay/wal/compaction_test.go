package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCompactionRetiresStaleSegments: a crash between compaction's
// fsync of the fresh segment and its deletes leaves an older segment
// behind. The next compaction must retire it too — every segment below
// the new active one — or its acked adds resurrect on a later reopen.
func TestCompactionRetiresStaleSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, Options{Dir: dir})
	for _, payload := range []string{"acked-later", "kept"} {
		if _, err := l.AppendAdd(addRec("bob", payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The interrupted compaction: segment 1 holds the live set, and
	// segment 0 was never deleted.
	data, err := os.ReadFile(filepath.Join(dir, "seg-00000000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, _, _ = openT(t, Options{Dir: dir, SegmentBytes: 512})
	if err := l.AppendAck(1, AckDelivered); err != nil {
		t.Fatal(err)
	}
	for i := 0; l.SegmentIndex() == 1; i++ {
		if i == 100 {
			t.Fatal("log never compacted")
		}
		seq, err := l.AppendAdd(addRec("bob", "churn"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendAck(seq, AckDelivered); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, recovered, _ := openT(t, Options{Dir: dir})
	for _, rec := range recovered {
		if rec.Seq == 1 {
			t.Fatal("acked seq 1 resurrected from a stale segment")
		}
	}
	if len(recovered) != 1 || string(recovered[0].Payload) != "kept" {
		t.Fatalf("recovered %d records, want only the live one", len(recovered))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d segments remain after compaction, want only the active one", len(entries))
	}
}
