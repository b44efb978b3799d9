package main

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"join", "peer-msg", "group-relay"}

// warmup is the untimed stretch of the workload run after set-up, so
// the measured phase starts with the heap sized and the caches filled.
const warmup = time.Second

// runner drives one workload against one deployment.
type runner struct {
	kind string
	seed uint64
	d    *deployment

	// group-relay churn state; touched only by worker 0 and finish,
	// always under d.presence.
	churn     *churner
	churnLeft int
}

func userCount(kind string) int {
	switch kind {
	case "join":
		return joinUsers
	case "peer-msg":
		return msgPeers
	default:
		return relayMembers
	}
}

// setup builds the deployment and brings it to the workload's starting
// state: join users are registered and have logged in and out once;
// messaging peers are online and have exchanged warm-up messages, so
// every later lookup finds its advertisement verified and cached.
func setup(kind string, seed uint64, dir string, tr *tracing) (_ *runner, err error) {
	d, err := newDeployment(userCount(kind), dir, tr)
	if err != nil {
		return nil, err
	}
	r := &runner{kind: kind, seed: seed, d: d}
	defer func() {
		if err != nil {
			d.remove()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = forEachPeer(len(d.peers), func(i int) error {
		if err := d.login(ctx, d.peers[i]); err != nil {
			return err
		}
		if kind == "join" {
			return d.logout(ctx, d.peers[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	warmID := streamWarm << 56
	switch kind {
	case "peer-msg":
		per := msgPeers / workers
		for from := range d.peers {
			base := from / per * per
			for to := base; to < base+per; to++ {
				if to == from {
					continue
				}
				warmID++
				if _, err := r.peerMsg(ctx, opInput{ID: warmID, From: from, To: to, Size: sizeSmall}); err != nil {
					return nil, fmt.Errorf("warm-up message: %w", err)
				}
			}
		}
	case "group-relay":
		for s := 0; s < relaySenders; s++ {
			warmID++
			if _, err := r.groupRound(ctx, opInput{ID: warmID, From: s, To: -1, Size: relayPayload}); err != nil {
				return nil, fmt.Errorf("warm-up round: %w", err)
			}
		}
		r.churn = newChurner(seed)
		r.churnLeft = r.churn.cadence()
		for _, i := range r.churn.initialOffline() {
			if err := d.logout(ctx, d.peers[i]); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// do runs one op and returns its latency.
func (r *runner) do(ctx context.Context, op opInput) (time.Duration, error) {
	switch r.kind {
	case "join":
		return r.join(ctx, op)
	case "peer-msg":
		return r.peerMsg(ctx, op)
	default:
		return r.groupRound(ctx, op)
	}
}

// join: secureConnection + secureLogin of an offline user, then logout.
// The logout is outside the latency but inside the run.
func (r *runner) join(ctx context.Context, op opInput) (time.Duration, error) {
	d := r.d
	p := d.peers[op.From]
	tr := d.tracer()
	t0 := time.Now()
	err := p.sc.SecureConnection(ctx, d.br.PeerID())
	t1 := time.Now()
	tr.span(spanConnect, p.idx, op.ID, t0, t1)
	if err == nil {
		err = p.sc.SecureLogin(ctx, p.pw)
	}
	t2 := time.Now()
	tr.span(spanLogin, p.idx, op.ID, t1, t2)
	lerr := p.sc.Logout(ctx)
	tr.span(spanLogout, p.idx, op.ID, t2, time.Now())
	if err == nil {
		err = lerr
	}
	return t2.Sub(t0), err
}

// peerMsg: secureMsgPeer, then wait until the recipient opened it.
func (r *runner) peerMsg(ctx context.Context, op opInput) (time.Duration, error) {
	d := r.d
	from, to := d.peers[op.From], d.peers[op.To]
	body := payload(r.seed, op)
	f := d.ledger.expect(op.ID, body, 1<<uint(op.To), 1)
	tr := d.tracer()
	t0 := time.Now()
	err := from.sc.SecureMsgPeer(ctx, to.sc.PeerID(), group, string(body))
	t1 := time.Now()
	tr.span(spanMsgPeer, from.idx, op.ID, t0, t1)
	if err != nil {
		d.ledger.fail(f)
		return 0, err
	}
	return r.await(ctx, f, from.idx, op.ID, t0, t1)
}

// groupRound: one relayed round to the whole group; it completes when
// every recipient the relay reached directly has opened it. Queued
// recipients open it when they return.
func (r *runner) groupRound(ctx context.Context, op opInput) (time.Duration, error) {
	d := r.d
	d.presence.RLock()
	defer d.presence.RUnlock()
	from := d.peers[op.From]
	var addressed uint64
	online := 0
	for _, p := range d.peers {
		if p.idx != op.From {
			addressed |= 1 << uint(p.idx)
			if p.online {
				online++
			}
		}
	}
	body := payload(r.seed, op)
	f := d.ledger.expect(op.ID, body, addressed, -1)
	tr := d.tracer()
	t0 := time.Now()
	direct, queued, err := from.sc.SecureMsgPeerGroupRelay(ctx, group, string(body))
	t1 := time.Now()
	tr.span(spanRelaySend, from.idx, op.ID, t0, t1)
	if err != nil {
		d.ledger.fail(f)
		return 0, err
	}
	if direct != online || direct+queued != bits.OnesCount64(addressed) {
		d.ledger.violate("op %x: relay reported %d direct + %d queued, want %d direct of %d",
			op.ID, direct, queued, online, bits.OnesCount64(addressed))
	}
	d.ledger.setNeed(f, direct)
	return r.await(ctx, f, from.idx, op.ID, t0, t1)
}

func (r *runner) await(ctx context.Context, f *flight, client int, seq uint64, t0, t1 time.Time) (time.Duration, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		r.d.ledger.fail(f)
		return 0, fmt.Errorf("op %x: delivery: %w", seq, ctx.Err())
	}
	t2 := time.Now()
	r.d.tracer().span(spanDeliveryWait, client, seq, t1, t2)
	return t2.Sub(t0), nil
}

// churnStep runs between worker 0's group-relay rounds at the seeded
// cadence: some members log out, some offline members return. For each
// returning member it checks that the relay queued exactly the rounds
// it missed and starts timing its drain from the secureConnection call.
func (r *runner) churnStep(ctx context.Context) error {
	r.churnLeft--
	if r.churnLeft > 0 {
		return nil
	}
	r.churnLeft = r.churn.cadence()
	d := r.d
	d.presence.Lock()
	defer d.presence.Unlock()
	var online, offline []int
	for _, p := range d.peers[relaySenders:] {
		if p.online {
			online = append(online, p.idx)
		} else {
			offline = append(offline, p.idx)
		}
	}
	leave, back := r.churn.step(online, offline)
	for _, i := range leave {
		if err := d.logout(ctx, d.peers[i]); err != nil {
			return err
		}
	}
	return r.bringBack(ctx, back, true)
}

// bringBack logs members back in. The caller holds d.presence.
func (r *runner) bringBack(ctx context.Context, idx []int, record bool) error {
	d := r.d
	for _, i := range idx {
		p := d.peers[i]
		start := time.Now()
		backlog := d.ledger.watchDrain(i, start, record)
		if q := d.rly.QueueLen(p.sc.PeerID()); q != backlog {
			d.ledger.violate("%s returns to %d queued slices, missed %d rounds", p.name, q, backlog)
		}
		if err := d.login(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// phase is what one timed stretch of closed-loop load measured.
type phase struct {
	attempted  int
	failed     int
	firstErr   error
	lat        []float64 // ms; a failed op is +Inf
	wall       time.Duration
	cpu        time.Duration
	allocKB    float64
	gcs        uint32
	gcPause    time.Duration
	heapMiB    float64
	goroutine  int
	opened     int64 // plaintext bytes opened during the phase
	drains     []float64
	drainsFrom int
	before     counters
	after      counters
	canary     []float64 // ms per canary sample
}

func (p *phase) completed() int { return p.attempted - p.failed }

// factor is the phase's machine factor: the median canary sample over
// the reference machine's (see canary.go). 1 without samples.
func (p *phase) factor() float64 {
	if len(p.canary) == 0 {
		return 1
	}
	return quantile(p.canary, 0.5) / canaryRefMS
}

// run drives the workload with one goroutine per worker, closed loop,
// until dur has passed or stop reports true.
//
// With a canary, the phase also samples the machine's speed: one sample
// before the load starts, then one every canaryEvery with the load
// paused. Paused time, and the CPU and allocation the samples cost, are
// left out of the phase's figures.
func (r *runner) run(stream uint64, dur time.Duration, stop func() bool, can *canary) *phase {
	d := r.d
	ph := &phase{}
	if can != nil {
		ph.canary = append(ph.canary, ms(can.sample()))
	}
	ph.before = d.counters()
	openedBefore := d.ledger.openedBytes()
	ph.drainsFrom = len(d.ledger.drainTimes())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)

	type result struct {
		lat      []float64
		failed   int
		firstErr error
	}
	results := make([]result, workers)
	// gate is held shared by every op and exclusively by a canary
	// sample, so samples never overlap the load.
	var gate sync.RWMutex
	var paused, pausedCPU time.Duration
	var pausedAlloc uint64
	loadDone := make(chan struct{})
	var sampler sync.WaitGroup
	if can != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(canaryEvery)
			defer tick.Stop()
			for {
				select {
				case <-loadDone:
					return
				case <-tick.C:
				}
				gate.Lock()
				var m0, m1 runtime.MemStats
				t0, c0 := time.Now(), cpuTime()
				runtime.ReadMemStats(&m0)
				ph.canary = append(ph.canary, ms(can.sample()))
				runtime.ReadMemStats(&m1)
				pausedAlloc += m1.TotalAlloc - m0.TotalAlloc
				pausedCPU += cpuTime() - c0
				paused += time.Since(t0)
				gate.Unlock()
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := newInputs(r.kind, r.seed, stream, w)
			res := &results[w]
			for time.Now().Before(deadline) && (stop == nil || !stop()) {
				gate.RLock()
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				lat, err := r.do(ctx, in.next())
				if err == nil && w == 0 && r.churn != nil {
					if cerr := r.churnStep(ctx); cerr != nil {
						d.ledger.violate("churn: %v", cerr)
					}
				}
				cancel()
				gate.RUnlock()
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					res.lat = append(res.lat, math.Inf(1))
					continue
				}
				res.lat = append(res.lat, ms(lat))
			}
		}(w)
	}
	wg.Wait()
	close(loadDone)
	sampler.Wait()
	ph.wall = time.Since(start) - paused
	ph.cpu = cpuTime() - cpu0 - pausedCPU
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ph.after = d.counters()
	for _, res := range results {
		ph.lat = append(ph.lat, res.lat...)
		ph.failed += res.failed
		if ph.firstErr == nil {
			ph.firstErr = res.firstErr
		}
	}
	ph.attempted = len(ph.lat)
	ph.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc-pausedAlloc) / 1024
	ph.gcs = ms1.NumGC - ms0.NumGC
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	ph.opened = d.ledger.openedBytes() - openedBefore
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	ph.heapMiB = float64(ms1.HeapAlloc) / (1 << 20)
	ph.goroutine = runtime.NumGoroutine()
	return ph
}

// finish settles the run and applies the oracle: every offline member
// returns, every addressed recipient must have opened every op exactly
// once with the bytes sent, queues must be empty, nothing may have been
// dropped, refused or alerted, and the audit journal must verify. It
// closes the deployment. It returns the violations found.
func (r *runner) finish(ph *phase) []string {
	d := r.d
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if r.churn != nil {
		d.presence.Lock()
		var offline []int
		for _, p := range d.peers[relaySenders:] {
			if !p.online {
				offline = append(offline, p.idx)
			}
		}
		if err := r.bringBack(ctx, offline, false); err != nil {
			d.ledger.violate("final return: %v", err)
		}
		d.presence.Unlock()
	}
	settled := false
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if d.ledger.outstanding() == 0 && d.rly.QueuedTotal() == 0 {
			settled = true
			break
		}
	}
	if !settled {
		d.ledger.violate("after 30s, %d ops undelivered and %d slices queued", d.ledger.outstanding(), d.rly.QueuedTotal())
	}
	// Drains that started in the phase and finished while settling
	// count; the final return above records none.
	ph.drains = d.ledger.drainTimes()[ph.drainsFrom:]
	c := d.counters()
	m := c.relay
	if n := m.DroppedOverflow + m.DroppedQuota + m.Expired; n > 0 {
		d.ledger.violate("relay dropped %d slices", n)
	}
	if m.DeliverErrors+m.WALErrors > 0 {
		d.ledger.violate("relay: %d deliver errors, %d WAL errors", m.DeliverErrors, m.WALErrors)
	}
	if c.net.Dropped > 0 {
		d.ledger.violate("simnet dropped %d frames", c.net.Dropped)
	}
	if c.adm.Limited > 0 {
		d.ledger.violate("admission refused %d ops", c.adm.Limited)
	}
	if c.audit.Lost > 0 {
		d.ledger.violate("audit journal lost %d records", c.audit.Lost)
	}
	if n := d.alerts.Load(); n > 0 {
		d.alertMu.Lock()
		d.ledger.violate("%d security alerts, first: %s", n, d.alertFirst)
		d.alertMu.Unlock()
	}
	if err := d.verifyAudit(); err != nil {
		d.ledger.violate("audit verify: %v", err)
	}
	_, v := d.ledger.missing()
	return v
}

// cpuTime is the process's user+system CPU time. Every component runs
// in this process, so it is the whole system's cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
