// Package seglog is the segmented, append-only, CRC-framed log under
// the broker's two durable stores: the relay's crash-recovery queue log
// (internal/relay/wal) and the tamper-evident audit journal
// (internal/audit). It owns the machinery the two share — record
// framing, numbered segment files, replay with torn-tail truncation,
// staged appends drained by a background flusher, the fault-injection
// points, sticky failure and rotation — and leaves each owner its
// policy: the body codec, what replayed records mean, what damage
// means, and whether rotation compacts or keeps history.
//
// Durability contract: an append is durable once it has been fsynced.
// SyncInterval == 0 fsyncs every append before it returns. A positive
// interval stages appends in memory and a background flusher writes
// each staged batch with one write() and fsyncs it that often, keeping
// both syscalls off the append path. A negative interval writes inline
// but syncs only on Sync or Close (tests).
package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FaultPoint names an instant the fault-injection hook can observe (and
// kill the log at). The points bracket the two operations whose
// ordering recovery invariants depend on: the write of a record and the
// fsync that makes it durable.
type FaultPoint int

// Fault points.
const (
	// BeforeAppend fires before a record's bytes are written (or, with
	// batched syncing, staged): a crash here loses the record entirely.
	BeforeAppend FaultPoint = iota
	// AfterAppend fires after the write but before any fsync: the record
	// is in the OS page cache (or, with batched syncing, the staging
	// buffer), durable only by luck.
	AfterAppend
	// BeforeSync fires on entry to fsync: everything written is still
	// only as durable as the page cache.
	BeforeSync
	// AfterSync fires after a successful fsync: everything written so
	// far is durable.
	AfterSync
)

// String names the point for test output.
func (p FaultPoint) String() string {
	switch p {
	case BeforeAppend:
		return "before-append"
	case AfterAppend:
		return "after-append"
	case BeforeSync:
		return "before-sync"
	case AfterSync:
		return "after-sync"
	default:
		return fmt.Sprintf("fault-point-%d", int(p))
	}
}

// FaultFunc is the deterministic fault-injection hook: return a non-nil
// error to simulate the process dying at that point. The log goes
// sticky-failed, so the test can then reopen the directory and assert
// what recovery reconstructs from the bytes that made it to disk.
type FaultFunc func(p FaultPoint) error

// ErrInjected is a convenient error for FaultFunc implementations.
var ErrInjected = errors.New("seglog: injected crash")

const defaultSegmentBytes = 4 << 20

// Options parameterizes a Log holding records of type R.
type Options[R any] struct {
	// Dir holds the segments; Open creates it if needed.
	Dir    string
	Format Format
	// Mu is the owner's state lock, and the log guards its own state
	// with it, so one acquisition covers both: every method except Sync
	// and Close must be called with Mu held, and every hook below runs
	// with it held (Replay and Damaged run inside Open, before the log
	// is shared).
	Mu *sync.Mutex
	// SyncInterval selects the durability mode (see the package doc).
	SyncInterval time.Duration
	// SegmentBytes is the size the active segment may reach before the
	// next write rotates to a fresh one (0 = 4 MiB).
	SegmentBytes int64
	// Faults is the deterministic fault-injection hook (nil = none).
	Faults FaultFunc
	// OnSync observes every successful fsync of appended records with
	// its start time and duration. It must not call back into the Log.
	OnSync func(start time.Time, d time.Duration)
	// Failed is the owner's sentinel for a failed log: once an injected
	// crash or an I/O error kills the log, every call returns an error
	// wrapping both Failed and the cause.
	Failed error
	// Encode appends rec, framed by Begin and End, to dst.
	Encode func(dst []byte, rec R) ([]byte, error)
	// Replay receives each framed record during Open, in log order. An
	// error marks the record damaged, exactly like a failed frame check.
	Replay func(rec []byte) error
	// Damaged decides what a damaged record means. tail reports that it
	// lies in the last segment holding data, where a crash's torn write
	// may end. Returning nil accepts the damage: in the tail segment
	// Open truncates it away (the torn-tail rule), elsewhere it skips
	// the rest of that segment. An error aborts Open with it.
	Damaged func(loc Loc, err error, tail bool) error
	// Compact, when set, makes rotation a compaction: the fresh segment
	// is seeded with the records Compact appends to dst, fsynced, and
	// then every older segment is deleted. Nil keeps history: rotation
	// starts an empty segment and deletes nothing.
	Compact func(dst []byte) ([]byte, error)
	// BeforeFlush runs at the start of every Sync, before the staged
	// batch is cut, so the owner can stage records of its own (the
	// journal's due checkpoint) off its callers' append path.
	BeforeFlush func()
}

// Log is an open segmented log.
type Log[R any] struct {
	opts Options[R]

	// syncMu serializes flushes (the flusher, Sync and Close). It is
	// acquired BEFORE Mu, never while holding it: the write and fsync
	// run with Mu released, so appends keep flowing while the disk
	// catches up — holding the append lock across an fsync would turn
	// every flush interval into a log-wide stall.
	syncMu sync.Mutex

	// Guarded by opts.Mu.
	f      *os.File
	first  int   // lowest segment index on disk
	active int   // index of the segment taking writes
	size   int64 // bytes in the active segment
	buf    []byte
	stage  []byte // batched mode: framed records awaiting the flusher
	spare  []byte // recycled staging buffer (swapped with stage per flush)
	dirty  bool   // written but not fsynced
	err    error  // sticky failure
	stop   chan struct{}

	wg sync.WaitGroup
}

// Open replays the segments in opts.Dir through opts.Replay and returns
// the log ready for appends at the end of its last segment, plus how
// many torn bytes it truncated off the tail.
func Open[R any](opts Options[R]) (*Log[R], int64, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, 0, err
	}
	l := &Log[R]{opts: opts, first: -1}
	var torn int64
	for seg, err := range Scan(opts.Dir, opts.Format) {
		if err != nil {
			return nil, 0, err
		}
		if l.first < 0 {
			l.first = seg.Index
		}
		l.active = seg.Index
		for rec, err := range seg.Records() {
			if err == nil {
				err = opts.Replay(rec.Bytes)
			}
			if err == nil {
				continue
			}
			if err := opts.Damaged(rec.Loc, err, seg.Tail); err != nil {
				return nil, 0, err
			}
			if seg.Tail {
				torn = int64(len(seg.Data)) - rec.Offset
				if err := os.Truncate(filepath.Join(opts.Dir, seg.Name), rec.Offset); err != nil {
					return nil, 0, err
				}
			}
			break
		}
	}
	l.first = max(l.first, 0)
	f, err := os.OpenFile(l.path(l.active), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if fi, err := f.Stat(); err == nil {
		l.size = fi.Size()
	}
	l.f = f
	if opts.SyncInterval > 0 {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.flusher(l.stop)
	}
	return l, torn, nil
}

func (l *Log[R]) path(i int) string { return filepath.Join(l.opts.Dir, l.opts.Format.Name(i)) }

// Append encodes rec and appends it: staged in memory when
// SyncInterval > 0 (the flusher writes it), written — and with
// SyncInterval == 0 fsynced — before returning otherwise. It returns the
// record's framed bytes, valid until the next call. An Encode error
// leaves the log usable; every other failure is sticky.
func (l *Log[R]) Append(rec R) ([]byte, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.opts.SyncInterval > 0 {
		if err := l.fault(BeforeAppend); err != nil {
			return nil, err
		}
		start := len(l.stage)
		stage, err := l.opts.Encode(l.stage, rec)
		if err != nil {
			return nil, err
		}
		l.stage = stage
		return stage[start:], l.fault(AfterAppend)
	}
	if err := l.rotate(); err != nil {
		return nil, err
	}
	if err := l.fault(BeforeAppend); err != nil {
		return nil, err
	}
	buf, err := l.opts.Encode(l.buf[:0], rec)
	if err != nil {
		return nil, err
	}
	l.buf = buf
	n, err := l.f.Write(buf)
	l.size += int64(n)
	if err != nil {
		return nil, l.Fail(err)
	}
	l.dirty = true
	if err := l.fault(AfterAppend); err != nil {
		return nil, err
	}
	if l.opts.SyncInterval == 0 {
		if err := l.fault(BeforeSync); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return nil, l.Fail(err)
		}
		l.dirty = false
		l.synced(start)
		if err := l.fault(AfterSync); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Sync writes the staged batch and fsyncs everything appended before
// the call; Mu must not be held. The write and fsync run with Mu
// released, so concurrent appends are not stalled — they are simply not
// covered by this sync. Batched mode never touches the file outside
// syncMu, so the two syscalls cannot race anything; in the inline modes
// an append may rotate the segment while Sync is inside fsync, and then
// the synced file has been superseded and the result is moot.
func (l *Log[R]) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	mu := l.opts.Mu
	mu.Lock()
	if l.err == nil && l.opts.BeforeFlush != nil {
		l.opts.BeforeFlush()
	}
	err := l.err
	if err == nil && len(l.stage) > 0 {
		err = l.rotate()
	}
	if err != nil || (len(l.stage) == 0 && !l.dirty) {
		mu.Unlock()
		return err
	}
	batch, f := l.stage, l.f
	l.stage, l.spare = l.spare[:0], nil
	l.dirty = false
	mu.Unlock()

	var werr error
	var n int
	if len(batch) > 0 {
		n, werr = f.Write(batch)
	}

	mu.Lock()
	if cap(batch) > cap(l.spare) {
		l.spare = batch[:0]
	}
	l.size += int64(n)
	if werr == nil {
		werr = l.fault(BeforeSync)
	} else {
		l.Fail(werr)
	}
	mu.Unlock()
	if werr != nil {
		return werr
	}

	start := time.Now()
	serr := f.Sync()

	mu.Lock()
	defer mu.Unlock()
	if l.f != f {
		return nil
	}
	if serr != nil {
		l.dirty = true
		return l.Fail(serr)
	}
	l.synced(start)
	return l.fault(AfterSync)
}

func (l *Log[R]) synced(start time.Time) {
	if l.opts.OnSync != nil {
		l.opts.OnSync(start, time.Since(start))
	}
}

// rotate starts a fresh segment once the active one has outgrown
// SegmentBytes; it runs just before a write, so no segment is ever
// opened ahead of its first record. The outgoing segment is fsynced
// first, so history never has a hole ahead of a later segment. With
// Compact set the fresh segment is seeded and made durable before
// every older segment — leftovers of an interrupted compaction
// included — is deleted.
func (l *Log[R]) rotate() error {
	if l.size < l.opts.SegmentBytes {
		return nil
	}
	if l.dirty {
		if err := l.f.Sync(); err != nil {
			return l.Fail(err)
		}
		l.dirty = false
	}
	next := l.active + 1
	path := l.path(next)
	nf, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return l.Fail(err)
	}
	var seed []byte
	if l.opts.Compact != nil {
		if seed, err = l.opts.Compact(l.buf[:0]); err == nil {
			if _, err = nf.Write(seed); err == nil {
				err = nf.Sync()
			}
		}
		if err != nil {
			nf.Close()
			os.Remove(path)
			return l.Fail(err)
		}
	}
	l.f.Close()
	l.f, l.active, l.size = nf, next, int64(len(seed))
	if l.opts.Compact != nil {
		l.buf = seed[:0] // the next compaction reuses it
		// Deletes are best-effort: a segment left behind is retired by
		// the next compaction.
		segs, _ := l.opts.Format.List(l.opts.Dir)
		for _, i := range segs {
			if i < next {
				os.Remove(l.path(i))
			}
		}
		l.first = next
	}
	return nil
}

// fault runs the injection hook; a non-nil result kills the log.
func (l *Log[R]) fault(p FaultPoint) error {
	if l.opts.Faults == nil {
		return nil
	}
	if err := l.opts.Faults(p); err != nil {
		return l.Fail(err)
	}
	return nil
}

// Fail makes err the log's sticky failure (the first one wins) and
// returns the failure, which wraps both Options.Failed and its cause.
func (l *Log[R]) Fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", l.opts.Failed, err)
	}
	return l.err
}

// Err returns the sticky failure, nil while the log is healthy.
func (l *Log[R]) Err() error { return l.err }

// Active returns the index of the segment taking writes.
func (l *Log[R]) Active() int { return l.active }

// Segments returns how many segments the log spans on disk.
func (l *Log[R]) Segments() int { return l.active - l.first + 1 }

func (l *Log[R]) flusher(stop <-chan struct{}) {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

// Close stops the flusher, writes and fsyncs everything pending, and
// releases the file; Mu must not be held. A failed log is left exactly
// as the failure left it, and Close returns the failure.
func (l *Log[R]) Close() error {
	l.opts.Mu.Lock()
	stop := l.stop
	l.stop = nil
	l.opts.Mu.Unlock()
	if stop != nil {
		close(stop)
		l.wg.Wait()
	}
	err := l.Sync()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.opts.Mu.Lock()
	defer l.opts.Mu.Unlock()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
