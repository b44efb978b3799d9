package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// ledger is the delivery oracle. Every op registers the plaintext it
// sends and the recipients it addresses; every SecureMessage a client
// opens is checked against it. It catches a wrong plaintext, an open of
// an unknown or unaddressed op, and a second open of the same op by the
// same recipient as they happen; missing() reports addressed
// recipients that never opened.
type ledger struct {
	mu         sync.Mutex
	flights    map[uint64]*flight
	watches    map[int]*drainWatch
	drains     []float64 // ms, drains recorded while measuring
	opened     int64     // plaintext bytes opened
	violations []string
	nViolation int
}

// flight is one op's delivery state.
type flight struct {
	payload   []byte
	addressed uint64 // bitmask of recipient peer indices
	opened    uint64
	need      int // opens that complete the op; -1 until the sender knows
	failed    bool
	done      chan struct{}
	closed    bool
}

// drainWatch follows one returning peer's queued backlog.
type drainWatch struct {
	start  time.Time
	ops    map[uint64]struct{}
	record bool
}

const maxViolationsKept = 20

func newLedger() *ledger {
	return &ledger{flights: make(map[uint64]*flight), watches: make(map[int]*drainWatch)}
}

func (l *ledger) violateLocked(format string, args ...any) {
	l.nViolation++
	if len(l.violations) < maxViolationsKept {
		l.violations = append(l.violations, fmt.Sprintf(format, args...))
	}
}

// violate records a violation found outside the ledger (a counter
// check, a queue-length mismatch).
func (l *ledger) violate(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.violateLocked(format, args...)
}

// expect registers an op before it is sent. need < 0 means the number
// of opens that complete it is set later with setNeed.
func (l *ledger) expect(id uint64, payload []byte, addressed uint64, need int) *flight {
	f := &flight{payload: payload, addressed: addressed, need: need, done: make(chan struct{})}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flights[id] = f
	l.checkDone(f)
	return f
}

// setNeed sets how many opens complete the op (group-relay: the direct
// recipients the relay reported).
func (l *ledger) setNeed(f *flight, need int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f.need = need
	l.checkDone(f)
}

// fail marks an op whose send failed: its deliveries are no longer
// required, but any that arrive are still checked.
func (l *ledger) fail(f *flight) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f.failed = true
	if !f.closed {
		f.closed = true
		close(f.done)
	}
}

func (l *ledger) checkDone(f *flight) {
	if !f.closed && f.need >= 0 && bits.OnesCount64(f.opened) >= f.need {
		f.closed = true
		close(f.done)
	}
}

// open checks one plaintext opened by peer.
func (l *ledger) open(peer int, body []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := opID(body)
	if !ok {
		l.violateLocked("peer %d opened a %d-byte plaintext with no op id", peer, len(body))
		return
	}
	f := l.flights[id]
	if f == nil {
		l.violateLocked("peer %d opened op %x, which is unknown or already complete", peer, id)
		return
	}
	bit := uint64(1) << peer
	switch {
	case f.addressed&bit == 0:
		l.violateLocked("peer %d opened op %x, which was not addressed to it", peer, id)
		return
	case f.opened&bit != 0:
		l.violateLocked("peer %d opened op %x twice", peer, id)
		return
	case !bytes.Equal(body, f.payload):
		l.violateLocked("peer %d opened op %x with a wrong plaintext", peer, id)
		return
	}
	f.opened |= bit
	l.opened += int64(len(body))
	l.checkDone(f)
	if f.opened == f.addressed {
		delete(l.flights, id)
	}
	if w := l.watches[peer]; w != nil {
		if _, ok := w.ops[id]; ok {
			delete(w.ops, id)
			if len(w.ops) == 0 {
				if w.record {
					l.drains = append(l.drains, ms(time.Since(w.start)))
				}
				delete(l.watches, peer)
			}
		}
	}
}

// watchDrain starts following peer's backlog: every op addressed to it
// that it has not opened. The caller holds off new rounds, so that set
// is exactly what the relay queued while the peer was away. It returns
// the backlog size.
func (l *ledger) watchDrain(peer int, start time.Time, record bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	bit := uint64(1) << peer
	ops := make(map[uint64]struct{})
	for id, f := range l.flights {
		if f.addressed&bit != 0 && f.opened&bit == 0 {
			ops[id] = struct{}{}
		}
	}
	if len(ops) > 0 {
		l.watches[peer] = &drainWatch{start: start, ops: ops, record: record}
	}
	return len(ops)
}

// outstanding counts ops some addressed recipient has not opened yet.
func (l *ledger) outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, f := range l.flights {
		if !f.failed {
			n++
		}
	}
	return n
}

// missing reports every addressed recipient that never opened, as
// violations, and returns all violations found so far.
func (l *ledger) missing() (count int, first []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, f := range l.flights {
		if f.failed {
			continue
		}
		if lost := f.addressed &^ f.opened; lost != 0 {
			l.violateLocked("op %x: %d addressed recipients never opened it (mask %x)", id, bits.OnesCount64(lost), lost)
		}
	}
	return l.nViolation, append([]string(nil), l.violations...)
}

func (l *ledger) openedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opened
}

func (l *ledger) drainTimes() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.drains...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
