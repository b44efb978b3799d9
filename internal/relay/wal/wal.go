// Package wal is the crash-recovery backbone of the broker relay: an
// append-only, CRC-checked queue log that makes store-and-forward
// queues survive a broker restart. Every queue mutation is written
// behind the in-memory queues — KindAdd when an item is enqueued,
// KindAck when it is delivered, expires or is dropped — so replaying
// the log reconstructs exactly the set of undelivered items.
//
// The log is built on internal/seglog, which owns framing, segment
// files, staged appends, the fsync path, fault injection and rotation;
// this package keeps the queue policy on top of it.
//
// Durability contract: an append is durable once it has been fsynced
// (SyncInterval == 0 syncs every append before returning; a positive
// interval batches appends in memory and a background flusher writes
// and fsyncs each batch that often; Sync() forces one). Recovery never
// loses an fsynced add, never resurrects an item whose ack was
// fsynced, and treats a torn or corrupt tail as the crash artifact it
// is: replay stops at the last valid record and the tail is truncated
// away. Un-fsynced records MAY survive (the OS got them to disk
// anyway) or may be lost entirely (a batched append that never left
// the staging buffer); that asymmetry is safe because the relay is
// at-least-once and the recipient's replay guard deduplicates (see
// SECURITY.md, "Durable queue trust model").
//
// The log is segmented: the active segment takes appends; when it
// outgrows SegmentBytes the log compacts — live records are rewritten
// into a fresh segment and, once that is fsynced, every older segment
// is deleted, including any a crash left behind mid-compaction — so
// disk usage tracks the live queue, not lifetime traffic.
package wal

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"sync"
	"time"

	"jxtaoverlay/internal/seglog"
)

// The fault-injection seam is seglog's: FaultFunc is called at each
// FaultPoint — before/after a record's write and before/after the fsync
// that makes it durable — and a non-nil return simulates the process
// dying there. The log goes sticky-failed — every later append or sync
// fails with ErrLogFailed — so the test can then reopen the directory
// and assert what recovery reconstructs from the bytes on disk.
type (
	FaultPoint = seglog.FaultPoint
	FaultFunc  = seglog.FaultFunc
)

// Fault points.
const (
	BeforeAppend = seglog.BeforeAppend
	AfterAppend  = seglog.AfterAppend
	BeforeSync   = seglog.BeforeSync
	AfterSync    = seglog.AfterSync
)

// ErrInjected is a convenient error for FaultFunc implementations.
var ErrInjected = seglog.ErrInjected

// ErrLogFailed is returned by appends after the log has failed (an
// injected crash or a real I/O error). The in-memory relay keeps
// working; the WAL just stops being written, exactly like a dying disk.
var ErrLogFailed = errors.New("wal: log failed")

// Options parameterizes a Log.
type Options struct {
	// Dir is the directory holding the segments. Empty disables the WAL
	// entirely (the relay runs in-memory, the pre-durability behaviour).
	Dir string
	// SyncInterval batches fsyncs: 0 syncs every append before it
	// returns (full durability, one fsync per record); a positive value
	// stages appends in memory and starts a background flusher that
	// writes each staged batch with one write() and fsyncs it that
	// often, keeping both syscalls off the append path; a negative
	// value writes inline but never syncs automatically (tests).
	SyncInterval time.Duration
	// SegmentBytes is the size the active segment may reach before the
	// log compacts into a fresh one (0 = 4 MiB).
	SegmentBytes int64
	// Faults is the deterministic fault-injection hook (nil = none).
	Faults FaultFunc
	// OnSync, when set, observes every successful fsync with its start
	// time and duration — the relay's tracer uses it to attribute
	// fsync-wait to the traces staged behind that sync. The callback
	// runs with log locks held and MUST NOT call back into the Log.
	OnSync func(start time.Time, d time.Duration)
}

// RecoveryStats reports what replay found.
type RecoveryStats struct {
	// Live is how many adds survived replay (no ack seen).
	Live int
	// Acked is how many adds were discarded because an ack retired them
	// — the "delivered/expired while down must not resurrect" guard.
	Acked int
	// TornBytes is how many trailing bytes were truncated off the last
	// segment holding data (a crash mid-append).
	TornBytes int64
	// CorruptSegments counts earlier segments whose replay stopped
	// early on a corrupt record (disk damage, not a crash artifact).
	CorruptSegments int
}

// Log is an open write-ahead queue log.
type Log struct {
	mu      sync.Mutex // guards the fields below and the segment log
	log     *seglog.Log[Record]
	nextSeq Seq
	live    map[Seq]Record // undelivered adds, for compaction
	dirty   bool           // set by each logged mutation, cleared by each completed fsync
}

// Open replays the segments in dir (creating it if needed), returning
// the log ready for appends plus the recovered live records and replay
// stats. Live records come back sorted by sequence number — enqueue
// order — with payloads copied out of the read buffer.
func Open(opts Options) (*Log, []Record, RecoveryStats, error) {
	var stats RecoveryStats
	if opts.Dir == "" {
		return nil, nil, stats, errors.New("wal: Options.Dir is required")
	}
	l := &Log{live: make(map[Seq]Record), nextSeq: 1}
	log, torn, err := seglog.Open(seglog.Options[Record]{
		Dir: opts.Dir, Format: format, Mu: &l.mu,
		SyncInterval: opts.SyncInterval, SegmentBytes: opts.SegmentBytes,
		Faults: opts.Faults, Failed: ErrLogFailed,
		OnSync: func(start time.Time, d time.Duration) {
			l.dirty = false
			if opts.OnSync != nil {
				opts.OnSync(start, d)
			}
		},
		Encode: AppendRecord,
		Replay: func(b []byte) error {
			rec, _, err := DecodeRecord(b)
			if err != nil {
				return err
			}
			switch rec.Kind {
			case KindAdd:
				l.live[rec.Seq] = rec
			case KindAck:
				if _, ok := l.live[rec.Seq]; ok {
					delete(l.live, rec.Seq)
					stats.Acked++
				}
			}
			l.nextSeq = max(l.nextSeq, rec.Seq+1)
			return nil
		},
		// Lenient replay: a damaged tail is a crash artifact and is
		// truncated; the same damage mid-way through an earlier segment
		// cannot come from a crash (later segments were created after
		// it) — replay keeps everything before it but counts the
		// segment so callers can surface the tampering.
		Damaged: func(_ seglog.Loc, _ error, tail bool) error {
			if !tail {
				stats.CorruptSegments++
			}
			return nil
		},
		Compact: l.compact,
	})
	if err != nil {
		return nil, nil, stats, err
	}
	l.log = log
	stats.TornBytes = torn

	// Neither the live map nor the caller may alias the replay buffers.
	for seq, rec := range l.live {
		rec.Payload = bytes.Clone(rec.Payload)
		l.live[seq] = rec
	}
	recovered := make([]Record, 0, len(l.live))
	for _, seq := range slices.Sorted(maps.Keys(l.live)) {
		recovered = append(recovered, l.live[seq])
	}
	stats.Live = len(recovered)
	return l, recovered, stats, nil
}

// compact seeds a fresh segment with the live set in sequence order:
// delivered and expired records are reclaimed by leaving them out. With
// batched syncing, adds still staged for the flusher land in the seed
// and again in the next batch; replay keys adds by sequence number, so
// the copy is harmless.
func (l *Log) compact(dst []byte) ([]byte, error) {
	seqs := make([]Seq, 0, len(l.live))
	for seq := range l.live {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	var err error
	for _, seq := range seqs {
		if dst, err = AppendRecord(dst, l.live[seq]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendAdd persists one enqueued item and returns its sequence number.
// With SyncInterval == 0 the record is fsynced before returning — the
// caller may then report the item as accepted-durable. The payload is
// retained (for compaction) until the matching AppendAck; the caller
// must not mutate it in between.
func (l *Log) AppendAdd(rec Record) (Seq, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Kind, rec.Seq = KindAdd, l.nextSeq
	if _, err := l.log.Append(rec); err != nil {
		return 0, err
	}
	l.nextSeq++
	l.live[rec.Seq] = rec
	l.dirty = true
	return rec.Seq, nil
}

// AppendAck retires a previously appended item. Acks for sequence 0
// (items that were never persisted, e.g. because the disk died) are
// silently ignored.
func (l *Log) AppendAck(seq Seq, reason AckReason) error {
	if seq == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.log.Append(Record{Kind: KindAck, Seq: seq, Reason: reason}); err != nil {
		return err
	}
	delete(l.live, seq)
	l.dirty = true
	return nil
}

// Sync forces an fsync of everything appended before the call. The
// fsync runs with the append lock released, so concurrent appends are
// not stalled — they are simply not covered by this sync.
func (l *Log) Sync() error { return l.log.Sync() }

// Close writes and syncs pending appends — including any staged batch
// — unless the log already failed, then releases the file. A failed
// log closes without touching the file again — its on-disk state is
// whatever the "crash" left — and returns the failure.
func (l *Log) Close() error { return l.log.Close() }

// SegmentIndex reports the active segment's index (tests).
func (l *Log) SegmentIndex() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Active()
}

// TearFinalRecord truncates a closed log mid-way through its last
// record — the torn tail an interrupted append leaves behind.
func TearFinalRecord(dir string) error {
	loc, err := seglog.Last(dir, format)
	if err != nil {
		return err
	}
	return seglog.Tear(dir, format, loc)
}

// FlipTailCRC flips one bit inside a closed log's last record, leaving
// the length frame intact, so the record decodes far enough to fail its
// CRC check rather than its framing.
func FlipTailCRC(dir string) error {
	loc, err := seglog.Last(dir, format)
	if err != nil {
		return err
	}
	return seglog.Flip(dir, loc)
}
