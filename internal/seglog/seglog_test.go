package seglog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	errShort   = errors.New("test: truncated record")
	errCorrupt = errors.New("test: corrupt record")
	errFailed  = errors.New("test: log failed")
)

// testFormat frames opaque bodies of 1..64 bytes.
var testFormat = Format{
	Prefix: "seg-", Suffix: ".log", MinBody: 1, MaxBody: 64,
	Short: errShort, Corrupt: errCorrupt,
}

func encode(dst, body []byte) ([]byte, error) {
	start := len(dst)
	return End(append(Begin(dst), body...), start), nil
}

func frame(body string) []byte {
	b, _ := encode(nil, []byte(body))
	return b
}

// rejectFF plays a codec that refuses bodies starting with 0xff, so
// replay meets damage the frame check cannot see.
func rejectFF(rec []byte) error {
	if rec[HeaderSize] == 0xff {
		return errCorrupt
	}
	return nil
}

// lenient accepts every damage, truncating it away in the tail segment.
func lenient(Loc, error, bool) error { return nil }

// strict accepts only a short record in the tail segment.
func strict(_ Loc, err error, tail bool) error {
	if tail && errors.Is(err, errShort) {
		return nil
	}
	return err
}

func openLog(t testing.TB, dir string, damaged func(Loc, error, bool) error) (*Log[[]byte], int64) {
	t.Helper()
	var mu sync.Mutex
	l, torn, err := Open(Options[[]byte]{
		Dir: dir, Format: testFormat, Mu: &mu, SyncInterval: -1, Failed: errFailed,
		Encode: encode, Replay: rejectFF, Damaged: damaged,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, torn
}

// FuzzSegmentReplay feeds arbitrary bytes to Open as the only segment.
// Open must never panic; whatever it accepts it must leave cut at a
// frame boundary, so a Scan afterwards decodes the file to its last
// byte; and a second Open must find nothing left to truncate.
func FuzzSegmentReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame("one"))
	f.Add(append(frame("one"), frame("two")...))
	f.Add(append(frame("one"), frame("two")[:5]...))
	f.Add(append(frame("one"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	flipped := frame("flipped")
	flipped[len(flipped)-1] ^= 0x10
	f.Add(append(frame("kept"), flipped...))
	f.Add(append(frame("\xffrejected"), frame("after")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, testFormat.Name(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, torn := openLog(t, dir, lenient)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var end int64
		for seg, err := range Scan(dir, testFormat) {
			if err != nil {
				t.Fatal(err)
			}
			for rec, err := range seg.Records() {
				if err != nil {
					t.Fatalf("damage left at %s@%d after Open: %v", rec.Segment, rec.Offset, err)
				}
				end = rec.Offset + rec.Size
			}
			if end != int64(len(seg.Data)) {
				t.Fatalf("records end at %d of %d bytes", end, len(seg.Data))
			}
		}
		if torn != int64(len(data))-end {
			t.Fatalf("reported %d torn bytes, cut %d", torn, int64(len(data))-end)
		}
		l, torn = openLog(t, dir, lenient)
		l.Close()
		if torn != 0 {
			t.Fatalf("second Open truncated %d more bytes", torn)
		}
	})
}

// TestTornTailBeforeEmptySegment: the torn-tail rule applies to the
// last segment holding data, not the last file — an empty segment after
// it must not turn a crash artifact into damage.
func TestTornTailBeforeEmptySegment(t *testing.T) {
	dir := t.TempDir()
	data := append(frame("kept"), frame("torn")[:6]...)
	if err := os.WriteFile(filepath.Join(dir, testFormat.Name(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, testFormat.Name(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, torn := openLog(t, dir, strict)
	defer l.Close()
	if torn != 6 {
		t.Fatalf("truncated %d bytes, want the 6-byte torn record", torn)
	}
	if l.Active() != 1 {
		t.Fatalf("appending to segment %d, want the last one", l.Active())
	}
}

// TestDamageBeforeTailAborts: under a strict policy, damage in an
// earlier segment is not a crash artifact and Open refuses it.
func TestDamageBeforeTailAborts(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, testFormat.Name(0)), frame("\xffbad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, testFormat.Name(1)), frame("later"), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	_, _, err := Open(Options[[]byte]{
		Dir: dir, Format: testFormat, Mu: &mu, Failed: errFailed,
		Encode: encode, Replay: rejectFF, Damaged: strict,
	})
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("open over damaged history: %v", err)
	}
}

// TestFailureIsSticky: an injected crash kills the log; the failure
// wraps both the owner's sentinel and the cause, and every later call
// returns it without touching the file.
func TestFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	l, _, err := Open(Options[[]byte]{
		Dir: dir, Format: testFormat, Mu: &mu, SyncInterval: -1, Failed: errFailed,
		Encode: encode, Replay: rejectFF, Damaged: lenient,
		Faults: func(p FaultPoint) error {
			if p == AfterAppend {
				return ErrInjected
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	_, err = l.Append([]byte("at-crash"))
	_, again := l.Append([]byte("after"))
	mu.Unlock()
	for _, err := range []error{err, again, l.Sync(), l.Close()} {
		if !errors.Is(err, errFailed) || !errors.Is(err, ErrInjected) {
			t.Fatalf("failed log returned %v", err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, testFormat.Name(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame("at-crash")) {
		t.Fatalf("segment holds %q, want only the record written before the crash", got)
	}
}

// TestCompactionSeedsAndPrunes: a compacting log rotates into a segment
// seeded by Compact and deletes every older one.
func TestCompactionSeedsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(filepath.Join(dir, testFormat.Name(i)), frame("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	l, _, err := Open(Options[[]byte]{
		Dir: dir, Format: testFormat, Mu: &mu, SyncInterval: 0, SegmentBytes: 1, Failed: errFailed,
		Encode: encode, Replay: rejectFF, Damaged: lenient,
		Compact: func(dst []byte) ([]byte, error) { return encode(dst, []byte("live")) },
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	_, err = l.Append([]byte("next"))
	segs := l.Segments()
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	list, err := testFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0] != 3 || segs != 1 {
		t.Fatalf("segments after compaction: %v (log reports %d), want only [3]", list, segs)
	}
	got, _ := os.ReadFile(filepath.Join(dir, testFormat.Name(3)))
	if want := append(frame("live"), frame("next")...); !bytes.Equal(got, want) {
		t.Fatalf("compacted segment holds %q, want the seed then the new record", got)
	}
}

// TestConcurrentAppendAndSync: appenders, explicit Syncs and the
// flusher share the log; after Close every appended record replays, in
// each durability mode, with segments rotating underneath.
func TestConcurrentAppendAndSync(t *testing.T) {
	for _, interval := range []time.Duration{-1, 0, time.Millisecond} {
		t.Run(interval.String(), func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			opts := Options[[]byte]{
				Dir: dir, Format: testFormat, Mu: &mu, SyncInterval: interval,
				SegmentBytes: 256, Failed: errFailed,
				Encode: encode, Replay: rejectFF, Damaged: strict,
			}
			l, _, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			const writers, each = 4, 50
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						mu.Lock()
						_, err := l.Append([]byte("record"))
						mu.Unlock()
						if err != nil {
							t.Error(err)
							return
						}
						if i%10 == 0 {
							if err := l.Sync(); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			replayed := 0
			opts.Replay = func([]byte) error { replayed++; return nil }
			l, _, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if replayed != writers*each {
				t.Fatalf("replayed %d records, appended %d", replayed, writers*each)
			}
		})
	}
}
