package main

import (
	"slices"
	"sort"

	"jxtaoverlay/internal/trace"
)

// Lifecycle stages as the program's recorder names them, mapped to
// <module>.<metric> bases.
var stageMetric = map[trace.Stage]string{
	trace.StageSeal:      "core.seal",
	trace.StageSend:      "client.send",
	trace.StageAdmission: "admission.check",
	trace.StageParse:     "broker.parse",
	trace.StageVerify:    "broker.verify",
	trace.StagePublish:   "broker.publish",
	trace.StageSlice:     "broker.slice",
	trace.StageDeliver:   "broker.deliver",
	trace.StageOpen:      "core.open",
	trace.StageEnqueue:   "relay.enqueue",
	trace.StageWALAppend: "relay.wal_append",
	trace.StageWALFsync:  "relay.wal_fsync",
	trace.StageQueueWait: "relay.queue_wait",
}

var spanMetric = [numSpanKinds]string{
	spanConnect:      "core.connect",
	spanLogin:        "core.login",
	spanLogout:       "core.logout",
	spanAuth:         "userdb.auth",
	spanMsgPeer:      "core.msg_peer",
	spanRelaySend:    "core.relay_send",
	spanDeliveryWait: "core.delivery_wait",
}

// recSpan is a lifecycle span and the client whose recorder holds it
// (-1 for the broker's).
type recSpan struct {
	trace.Span
	client int
}

// snapshot copies every recorder's spans and the benchmark's own.
func (t *tracing) snapshot() ([]recSpan, []benchSpan) {
	var life []recSpan
	for _, sp := range t.broker.Snapshot() {
		life = append(life, recSpan{sp, -1})
	}
	for i, r := range t.clients {
		for _, sp := range r.Snapshot() {
			life = append(life, recSpan{sp, i})
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return life, append([]benchSpan(nil), t.spans...)
}

// spanDurations adds <base>_p50_ms and <base>_ms_per_op for every
// benchmark span kind and lifecycle stage.
func spanDurations(out map[string]float64, life []recSpan, bench []benchSpan, ops float64) {
	durs := make(map[string][]float64)
	for _, sp := range life {
		if base, ok := stageMetric[sp.Stage]; ok {
			durs[base] = append(durs[base], float64(sp.Duration)/1e6)
		}
	}
	for _, sp := range bench {
		base := spanMetric[sp.kind]
		durs[base] = append(durs[base], float64(sp.end-sp.start)/1e6)
	}
	for _, base := range durationBases() {
		sum := 0.0
		for _, v := range durs[base] {
			sum += v
		}
		out[base+"_p50_ms"] = quantile(durs[base], 0.5)
		out[base+"_ms_per_op"] = ratio(sum, ops)
	}
}

// selfTimes adds <base>_self_ms_per_op: a benchmark span's duration
// minus the part of it covered by the lifecycle spans of the traces its
// client minted during it. A client mints a trace for each broker call
// (send) and relayed round (seal); calls made while opening a received
// message sit inside that client's open span and belong to the sender's
// op, so they are not counted as minted. Each client is driven by one
// worker at a time, so the traces a client minted during a span are
// that span's.
func selfTimes(out map[string]float64, life []recSpan, bench []benchSpan, ops float64) {
	type iv struct{ start, end int64 }
	opens := make(map[int][]iv)
	byTrace := make(map[uint64][]iv)
	for _, sp := range life {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], iv{sp.Start, sp.Start + sp.Duration})
		if sp.client >= 0 && sp.Stage == trace.StageOpen {
			opens[sp.client] = append(opens[sp.client], iv{sp.Start, sp.Start + sp.Duration})
		}
	}
	// inOpen reports whether [s,e] lies inside one of client c's open
	// spans: sort by start and keep a running maximum of ends.
	maxEnd := make(map[int][]int64)
	for c, list := range opens {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
		m := make([]int64, len(list))
		for i, x := range list {
			m[i] = x.end
			if i > 0 && m[i-1] > m[i] {
				m[i] = m[i-1]
			}
		}
		maxEnd[c] = m
	}
	inOpen := func(c int, s, e int64) bool {
		list := opens[c]
		i := sort.Search(len(list), func(i int) bool { return list[i].start > s }) - 1
		return i >= 0 && maxEnd[c][i] >= e
	}
	type minted struct {
		start  int64
		id     uint64
		client int
	}
	first := make(map[uint64]minted)
	for _, sp := range life {
		if sp.client < 0 || (sp.Stage != trace.StageSeal && sp.Stage != trace.StageSend) {
			continue
		}
		if inOpen(sp.client, sp.Start, sp.Start+sp.Duration) {
			continue
		}
		if m, ok := first[sp.TraceID]; !ok || sp.Start < m.start {
			first[sp.TraceID] = minted{sp.Start, sp.TraceID, sp.client}
		}
	}
	byClient := make(map[int][]minted)
	for _, m := range first {
		byClient[m.client] = append(byClient[m.client], m)
	}
	for _, list := range byClient {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
	}
	self := make(map[string]float64)
	for _, b := range bench {
		base := spanMetric[b.kind]
		if !slices.Contains(selfBases, base) {
			continue
		}
		list := byClient[b.client]
		i := sort.Search(len(list), func(i int) bool { return list[i].start >= b.start })
		var cover []iv
		for ; i < len(list) && list[i].start <= b.end; i++ {
			for _, x := range byTrace[list[i].id] {
				s, e := max(x.start, b.start), min(x.end, b.end)
				if s < e {
					cover = append(cover, iv{s, e})
				}
			}
		}
		sort.Slice(cover, func(i, j int) bool { return cover[i].start < cover[j].start })
		covered, reach := int64(0), b.start
		for _, x := range cover {
			if x.end <= reach {
				continue
			}
			covered += x.end - max(x.start, reach)
			reach = x.end
		}
		self[base] += float64(b.end-b.start-covered) / 1e6
	}
	for _, base := range selfBases {
		out[base+"_self_ms_per_op"] = ratio(self[base], ops)
	}
}

// layerValues computes every per-layer metric of a traced run: stage
// and span durations, self times, and counter deltas over the traced
// phase. untraced is the same workload's untraced half, for the
// tracing overhead and the workload-specific end-to-end figures.
//
// Every time is scaled by its phase's machine factor, like the
// end-to-end metrics.
func layerValues(untraced, traced *phase, t *tracing, life []recSpan, bench []benchSpan) map[string]float64 {
	out := make(map[string]float64)
	ops := float64(traced.attempted)
	spanDurations(out, life, bench, ops)
	selfTimes(out, life, bench, ops)
	for name := range out { // all durations so far
		out[name] /= traced.factor()
	}

	b, a := traced.before, traced.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	direct := d(b.relay.DeliveredDirect, a.relay.DeliveredDirect)
	enq := d(b.relay.Enqueued, a.relay.Enqueued)
	dropped := func(c counters) uint64 { return c.relay.DroppedOverflow + c.relay.DroppedQuota + c.relay.Expired }
	brH, brM := d(b.brVerify[0], a.brVerify[0]), d(b.brVerify[1], a.brVerify[1])
	clH, clM := d(b.clVerify[0], a.clVerify[0]), d(b.clVerify[1], a.clVerify[1])
	chH, chM := d(b.chain[0], a.chain[0]), d(b.chain[1], a.chain[1])

	out["trace.ops"] = ops
	out["userdb.auth_calls"] = d(b.authCalls, a.authCalls) / ops
	out["relay.direct_per_op"] = direct / ops
	out["relay.enqueued_per_op"] = enq / ops
	out["relay.flushed_per_op"] = d(b.relay.DeliveredFlushed, a.relay.DeliveredFlushed) / ops
	out["relay.direct_ratio"] = ratio(direct, direct+enq)
	out["relay.dropped"] = d(dropped(b), dropped(a))
	out["relay.deliver_errors"] = d(b.relay.DeliverErrors, a.relay.DeliverErrors)
	out["relay.wal_errors"] = d(b.relay.WALErrors, a.relay.WALErrors)
	out["xdsig.broker_verify_hit_ratio"] = ratio(brH, brH+brM)
	out["xdsig.broker_verify_lookups_per_op"] = (brH + brM) / ops
	out["xdsig.broker_verify_misses_per_op"] = brM / ops
	out["xdsig.client_verify_hit_ratio"] = ratio(clH, clH+clM)
	out["xdsig.client_verify_lookups_per_op"] = (clH + clM) / ops
	out["cred.chain_hit_ratio"] = ratio(chH, chH+chM)
	out["cred.chain_lookups_per_op"] = (chH + chM) / ops
	out["simnet.frames_per_op"] = d(b.net.Sent, a.net.Sent) / ops
	out["simnet.kb_per_op"] = d(b.net.Bytes, a.net.Bytes) / 1024 / ops
	out["simnet.broker_frames_per_op"] = d(b.brokerFrames, a.brokerFrames) / ops
	out["simnet.dropped"] = d(b.net.Dropped, a.net.Dropped)
	out["broker.ops_per_op"] = d(b.broker.OpsDispatched, a.broker.OpsDispatched) / ops
	out["broker.ops_failed"] = d(b.broker.OpsFailed, a.broker.OpsFailed)
	out["broker.advs_published_per_op"] = d(b.broker.AdvsPublished, a.broker.AdvsPublished) / ops
	out["admission.refused"] = d(b.adm.Limited, a.adm.Limited)
	out["audit.records_per_op"] = d(b.audit.Records, a.audit.Records) / ops
	out["audit.checkpoints_per_op"] = d(b.audit.Checkpoints, a.audit.Checkpoints) / ops
	out["audit.lost"] = d(b.audit.Lost, a.audit.Lost)
	out["runtime.gc_per_kop"] = float64(traced.gcs) / ops * 1000
	out["runtime.gc_pause_ms_per_s"] = ms(traced.gcPause) / traced.wall.Seconds()
	out["runtime.goroutines_end"] = float64(traced.goroutine)
	cpuU := ratio(ms(untraced.cpu), float64(untraced.completed())) / untraced.factor()
	cpuT := ratio(ms(traced.cpu), float64(traced.completed())) / traced.factor()
	out["bench.machine_factor"] = traced.factor()
	out["trace.overhead_pct"] = (ratio(cpuT, cpuU) - 1) * 100
	out["trace.spans_dropped"] = float64(t.dropped())
	out["goodput_mb_s"] = float64(untraced.opened) / untraced.wall.Seconds() / 1e6 * untraced.factor()
	out["drain_p50_ms"] = quantile(untraced.drains, 0.5) / untraced.factor()
	out["error_rate"] = ratio(float64(untraced.failed), float64(untraced.attempted))
	return out
}
