// Package audit is the broker's tamper-evident security event journal:
// an append-only, hash-chained log of every security-relevant decision
// the stack makes — offenses, admission refusals, relay drops, WAL
// errors, replay/verify/open failures, login and renew outcomes,
// federation presence transitions — durable across restarts and
// verifiable after the fact.
//
// Tamper evidence has three layers. Each record is CRC-framed (against
// accidental damage) and carries the SHA-256 of its predecessor's full
// framed bytes, so the journal is a hash chain: flipping a bit,
// reordering records or splicing segments breaks the chain at an exact
// byte offset. Periodically the chain is sealed by a checkpoint record
// whose payload is a broker-signed XMLdsig attestation of (chain head,
// record count, timestamp) — the same signature shape and credential
// chain advertisements use — so a forged chain rewrite needs the
// broker's private key, and a truncation past a checkpoint the auditor
// has seen is provable rollback. Verify replays the whole journal and
// reports the first bad segment+offset; see SECURITY.md, "Audit trust
// model", for exactly what each layer does and does not prove.
//
// The storage is built on internal/seglog, the engine under the relay
// WAL too: CRC + length-prefix framing, numbered segments, staged
// appends drained by a background flusher with the fsync off the append
// lock, fault points and sticky failure. The journal's policy differs
// from the WAL's in two deliberate ways. Rotation NEVER deletes: the
// WAL compacts because it tracks live queue state; an audit journal's
// whole point is history, so outgrowing SegmentBytes just starts a
// fresh segment and the old ones stay, hash-chained across the
// boundary. And replay refuses damage beyond a crash's torn tail
// (ErrJournalDamaged) instead of skipping it.
package audit

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/seglog"
)

// Event kinds. The vocabulary is part of the operational surface
// (queries filter on it); extend it, don't repurpose it.
const (
	// KindOffense: an out-of-band refusal fed into offender tracking
	// (relay quota rejections and similar).
	KindOffense = "offense"
	// KindAlert: a SecurityAlert was raised (offense streak crossed the
	// admission threshold, or a client-side open failure).
	KindAlert = "alert"
	// KindRateLimited: admission control refused an operation.
	KindRateLimited = "rate-limited"
	// KindRelayDrop: the relay shed a slice (quota or overflow).
	KindRelayDrop = "relay-drop"
	// KindWALError: the relay WAL failed to log a queue mutation.
	KindWALError = "wal-error"
	// KindOpenFail: a secure envelope failed verification/open at a
	// receiving peer (replay, tampering, unknown sender...).
	KindOpenFail = "open-fail"
	// KindLogin: a secureLogin outcome (reason "ok" or the error token).
	KindLogin = "login"
	// KindRenew: a credential renewal outcome.
	KindRenew = "renew"
	// KindPeerUp / KindPeerDown: presence transitions, local and
	// federated.
	KindPeerUp   = "peer-up"
	KindPeerDown = "peer-down"
	// KindHeartbeat: a presence-lease heartbeat outcome (reason "ok"
	// or the refusal token — a replayed or stale heartbeat lands here).
	KindHeartbeat = "heartbeat"
	// KindIdemDedup: a retried mutating op was answered from the
	// idempotency dedup window instead of re-executing.
	KindIdemDedup = "idem-dedup"
)

// Event is one security event to be journaled. Strings beyond the
// codec's field bound are truncated, never rejected — an audit path
// must not refuse to record an event because an attacker padded a
// field.
type Event struct {
	Kind   string
	Peer   string
	Op     string
	Reason string
	Trace  uint64
}

// ErrJournalFailed is returned by Sync/Close after the journal has
// failed (an I/O error or an injected crash). The journal fails open:
// appends after a failure are counted as lost (Stats.Lost, exported as
// audit_lost_total) and return 0 without blocking — the security
// surface keeps working; the journal just stops being written, exactly
// like a dying disk.
var ErrJournalFailed = errors.New("audit: journal failed")

// ErrJournalDamaged is returned by Open when anything but a torn tail
// on the last segment holding data fails to replay. Unlike the relay
// WAL, the journal refuses to append onto a broken chain: damage beyond
// a crash's torn tail is evidence, and evidence wants Verify, not
// overwriting.
var ErrJournalDamaged = errors.New("audit: journal damaged")

// Options parameterizes a Journal.
type Options struct {
	// Dir is the directory holding the segments (required).
	Dir string
	// SyncInterval batches fsyncs exactly like the relay WAL: 0 syncs
	// every append before it returns; a positive value stages appends
	// in memory and a background flusher writes+fsyncs each batch that
	// often; a negative value writes inline but never syncs (tests).
	SyncInterval time.Duration
	// SegmentBytes is the size the active segment may reach before a
	// fresh one is started (0 = 4 MiB). Old segments are never deleted.
	SegmentBytes int64
	// CheckpointEvery is how many records may accumulate before the
	// chain is sealed with a signed checkpoint (0 = 256; negative =
	// only on Close). Ignored without a Signer.
	CheckpointEvery int
	// Signer is the broker keypair sealing checkpoints (nil = the
	// journal chains but is never checkpointed).
	Signer *keys.KeyPair
	// Chain is the signer's credential chain, leaf first; Chain[0].Key
	// must be Signer's public key. Required when Signer is set.
	Chain []*cred.Credential
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// RingSize bounds the in-memory query ring backing /debug/audit
	// (0 = 4096).
	RingSize int
	// Faults is the deterministic fault-injection hook (nil = none).
	Faults seglog.FaultFunc
}

// Stats is a point-in-time snapshot of journal counters.
type Stats struct {
	// Records is the total appended this process (checkpoints included).
	Records uint64
	// Recovered is how many records Open replayed from disk.
	Recovered uint64
	// Checkpoints counts signed checkpoints appended this process.
	Checkpoints uint64
	// Lost counts events dropped because the journal had failed.
	Lost uint64
	// TornBytes is how many trailing bytes Open truncated off the last
	// segment holding data (a crash mid-append).
	TornBytes int64
	// Segments is the number of on-disk segments (history included).
	Segments int
	// Seq is the last assigned sequence number.
	Seq uint64
	// Failed reports the sticky failure state.
	Failed bool
}

// Journal is an open audit journal.
type Journal struct {
	opts  Options
	every int

	mu        sync.Mutex // guards the fields below and the segment log
	log       *seglog.Log[Record]
	seq       uint64
	head      [HashSize]byte
	sinceCkpt int // records since the last checkpoint
	recovered uint64
	appended  uint64
	ckpts     uint64
	lost      uint64
	tornBytes int64

	ring     []ringEntry
	ringNext int
}

type ringEntry struct {
	seq  uint64
	time int64
	ev   Event
}

// Open replays the segments in dir (creating it if needed) and returns
// the journal ready for appends, its chain state restored. A torn tail
// on the last segment holding data is truncated away (crash artifact);
// any other damage fails with ErrJournalDamaged — run Verify on the
// directory to locate it.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, errors.New("audit: Options.Dir is required")
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	if opts.Signer != nil && len(opts.Chain) == 0 {
		return nil, errors.New("audit: Signer requires a credential Chain")
	}
	every := opts.CheckpointEvery
	if every == 0 {
		every = 256
	}
	j := &Journal{opts: opts, every: every, ring: make([]ringEntry, opts.RingSize)}
	log, torn, err := seglog.Open(seglog.Options[Record]{
		Dir: opts.Dir, Format: format, Mu: &j.mu,
		SyncInterval: opts.SyncInterval, SegmentBytes: opts.SegmentBytes,
		Faults: opts.Faults, Failed: ErrJournalFailed,
		Encode: AppendRecord,
		Replay: j.replay,
		Damaged: func(loc seglog.Loc, err error, tail bool) error {
			if tail && errors.Is(err, ErrShortRecord) {
				return nil // a crash's torn write: truncate and resume
			}
			return fmt.Errorf("%w: %s@%d: %v", ErrJournalDamaged, loc.Segment, loc.Offset, err)
		},
		BeforeFlush: j.maybeCheckpointLocked,
	})
	if err != nil {
		return nil, err
	}
	j.log, j.tornBytes = log, torn
	return j, nil
}

// replay re-derives the chain state (seq, head) from one record. The
// links are re-checked: appending onto an already broken chain would
// launder the break into "it verified when written".
func (j *Journal) replay(framed []byte) error {
	rec, _, err := DecodeRecord(framed)
	if err != nil {
		return err
	}
	if rec.Seq != j.seq+1 || rec.Prev != j.head {
		return fmt.Errorf("hash chain break at seq %d", rec.Seq)
	}
	j.link(rec, framed)
	j.recovered++
	return nil
}

// Record appends one event and returns its sequence number (0 when the
// journal is nil or has failed — the event is counted lost, never
// blocks the caller). This is the hot emit path: with a positive
// SyncInterval it costs one encode, one SHA-256 and a ring store under
// a mutex — no syscalls, no allocations steady-state (bench-gated by
// BenchmarkAuditOverhead/append).
func (j *Journal) Record(e Event) uint64 {
	if j == nil {
		return 0
	}
	clampEvent(&e)
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := Record{
		Frame: FrameEvent, Seq: j.seq + 1, Prev: j.head,
		Time:  j.opts.Clock().UnixNano(),
		Trace: e.Trace, Kind: e.Kind, Peer: e.Peer, Op: e.Op, Reason: e.Reason,
	}
	if !j.appendLocked(rec) {
		j.lost++
		return 0
	}
	if j.opts.SyncInterval <= 0 {
		j.maybeCheckpointLocked()
	}
	return rec.Seq
}

// clampEvent truncates oversized fields instead of rejecting the event.
func clampEvent(e *Event) {
	if len(e.Kind) > maxFieldLen {
		e.Kind = e.Kind[:maxFieldLen]
	}
	if len(e.Peer) > maxFieldLen {
		e.Peer = e.Peer[:maxFieldLen]
	}
	if len(e.Op) > maxFieldLen {
		e.Op = e.Op[:maxFieldLen]
	}
	if len(e.Reason) > maxFieldLen {
		e.Reason = e.Reason[:maxFieldLen]
	}
}

// appendLocked appends rec and advances the chain over it. Any failure
// is sticky: the journal stops rather than write past a gap.
func (j *Journal) appendLocked(rec Record) bool {
	framed, err := j.log.Append(rec)
	if err != nil {
		j.log.Fail(err)
		return false
	}
	j.link(rec, framed)
	j.appended++
	j.sinceCkpt++
	if rec.Frame == FrameCheckpoint {
		j.ckpts++
		j.sinceCkpt = 0
	}
	return true
}

// link advances the chain head over one framed record.
func (j *Journal) link(rec Record, framed []byte) {
	j.head = sha256.Sum256(framed)
	j.seq = rec.Seq
	if rec.Frame == FrameEvent {
		j.ring[j.ringNext] = ringEntry{seq: rec.Seq, time: rec.Time, ev: Event{
			Kind: rec.Kind, Peer: rec.Peer, Op: rec.Op, Reason: rec.Reason, Trace: rec.Trace,
		}}
		j.ringNext = (j.ringNext + 1) % len(j.ring)
	}
}

// maybeCheckpointLocked seals the chain when enough records have
// accumulated. With a positive SyncInterval it runs in the flusher
// (seglog's BeforeFlush), keeping the signature off Record's path; in
// the inline modes it runs after the append that made it due. The RSA
// signature runs with mu held — a deliberate trade: a checkpoint every
// CheckpointEvery records stalls appends for one signature (~hundreds
// of µs), amortizing to well under the cost of the events it covers,
// and keeping the signed head exactly consistent with the chain
// position without a reservation protocol.
func (j *Journal) maybeCheckpointLocked() {
	if j.every > 0 && j.sinceCkpt >= j.every {
		j.checkpointLocked()
	}
}

func (j *Journal) checkpointLocked() {
	if j.opts.Signer == nil || j.sinceCkpt == 0 || j.log.Err() != nil {
		return
	}
	rec := Record{Frame: FrameCheckpoint, Seq: j.seq + 1, Prev: j.head, Time: j.opts.Clock().UnixNano()}
	payload, err := buildCheckpoint(rec.Seq, rec.Prev, time.Unix(0, rec.Time), j.opts.Signer, j.opts.Chain)
	if err != nil {
		j.log.Fail(err)
		return
	}
	rec.Checkpoint = payload
	j.appendLocked(rec)
}

// Sync writes the staged batch (if any), sealing a due checkpoint
// first, and fsyncs it.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	return j.log.Sync()
}

// Checkpoint seals the chain now, regardless of cadence, and syncs it
// (tests, and operators wanting a fresh attestation before archiving).
func (j *Journal) Checkpoint() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	j.checkpointLocked()
	j.mu.Unlock()
	return j.log.Sync()
}

// Close seals the chain with a final checkpoint, flushes and closes.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	j.checkpointLocked()
	j.mu.Unlock()
	return j.log.Close()
}

// Head returns the current chain head — the externally rememberable
// trust point that makes rollback provable (pass it to Verify as
// ExpectHead).
func (j *Journal) Head() [HashSize]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Stats snapshots the journal counters (telemetry collectors read it).
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Records:     j.appended,
		Recovered:   j.recovered,
		Checkpoints: j.ckpts,
		Lost:        j.lost,
		TornBytes:   j.tornBytes,
		Segments:    j.log.Segments(),
		Seq:         j.seq,
		Failed:      j.log.Err() != nil,
	}
}
