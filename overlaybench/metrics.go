package main

import (
	"math"
	"sort"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/simnet"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the overlay sees, measured with
// tracing off. Each is non-zero on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// Duration metrics of the traced run: the benchmark's own spans
// (spanMetric), then the program's lifecycle stages. Each prints as
// <base>_p50_ms and <base>_ms_per_op (sum of span durations / ops).
var stageBases = []string{
	"core.seal", "client.send", "admission.check", "broker.parse",
	"broker.verify", "broker.publish", "broker.slice", "broker.deliver",
	"core.open", "relay.enqueue", "relay.wal_append", "relay.wal_fsync",
	"relay.queue_wait",
}

// selfBases are the benchmark spans whose self time (span minus the
// lifecycle spans of the traces the call minted) is reported.
var selfBases = []string{"core.connect", "core.login", "core.logout", "core.msg_peer", "core.relay_send"}

// counterDefs are the traced run's counters and ratios. Per-op values
// divide by trace.ops, which is printed too.
var counterDefs = []metricDef{
	{"trace.ops", "count"},
	{"userdb.auth_calls", "1/op"},
	{"relay.direct_per_op", "1/op"},
	{"relay.enqueued_per_op", "1/op"},
	{"relay.flushed_per_op", "1/op"},
	{"relay.direct_ratio", "ratio"},
	{"relay.dropped", "count"},
	{"relay.deliver_errors", "count"},
	{"relay.wal_errors", "count"},
	{"xdsig.broker_verify_hit_ratio", "ratio"},
	{"xdsig.broker_verify_lookups_per_op", "1/op"},
	{"xdsig.broker_verify_misses_per_op", "1/op"},
	{"xdsig.client_verify_hit_ratio", "ratio"},
	{"xdsig.client_verify_lookups_per_op", "1/op"},
	{"cred.chain_hit_ratio", "ratio"},
	{"cred.chain_lookups_per_op", "1/op"},
	{"simnet.frames_per_op", "1/op"},
	{"simnet.kb_per_op", "KiB/op"},
	{"simnet.broker_frames_per_op", "1/op"},
	{"simnet.dropped", "count"},
	{"broker.ops_per_op", "1/op"},
	{"broker.ops_failed", "count"},
	{"broker.advs_published_per_op", "1/op"},
	{"admission.refused", "count"},
	{"audit.records_per_op", "1/op"},
	{"audit.checkpoints_per_op", "1/op"},
	{"audit.lost", "count"},
	{"runtime.gc_per_kop", "1/kop"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.goroutines_end", "count"},
	{"bench.machine_factor", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_dropped", "count"},
	// End-to-end figures that apply to some workloads only (zero
	// elsewhere), so they cannot be gated end to end; taken from the
	// untraced half of the traced run.
	{"goodput_mb_s", "MB/s"},
	{"drain_p50_ms", "ms"},
	{"error_rate", "ratio"},
}

func durationBases() []string {
	return append(append([]string(nil), spanMetric[:]...), stageBases...)
}

// perLayer is every metric a traced run prints, in order.
func perLayer() []metricDef {
	var out []metricDef
	for _, b := range durationBases() {
		out = append(out, metricDef{b + "_p50_ms", "ms"}, metricDef{b + "_ms_per_op", "ms"})
	}
	for _, b := range selfBases {
		out = append(out, metricDef{b + "_self_ms_per_op", "ms"})
	}
	return append(out, counterDefs...)
}

// counters is a snapshot of every layer's public statistics.
type counters struct {
	broker       broker.Stats
	adm          admission.Metrics
	relay        relay.Metrics
	brVerify     [2]uint64 // hits, misses
	clVerify     [2]uint64
	chain        [2]uint64
	net          simnet.Stats
	brokerFrames uint64
	audit        audit.Stats
	authCalls    uint64
}

func (d *deployment) counters() counters {
	c := counters{
		broker:       d.br.Stats(),
		adm:          d.adm.Metrics(),
		relay:        d.rly.Metrics(),
		net:          d.net.Stats(),
		brokerFrames: d.brokerFrames.Load(),
		audit:        d.aud.Stats(),
		authCalls:    d.authCalls.Load(),
	}
	c.brVerify[0], c.brVerify[1] = d.sec.VerifyCache().Stats()
	c.chain[0], c.chain[1] = d.sec.Trust().ChainCacheStats()
	for _, p := range d.peers {
		h, m := p.sc.VerifyCache().Stats()
		c.clVerify[0] += h
		c.clVerify[1] += m
		h, m = p.trust.ChainCacheStats()
		c.chain[0] += h
		c.chain[1] += m
	}
	return c
}

// endToEndValues computes the end-to-end metrics of an untraced phase.
// Times and rates are scaled by the phase's machine factor; the set-ups
// ran just before the phase, so they take its factor too.
func endToEndValues(ph *phase, setups []time.Duration) map[string]float64 {
	done := float64(ph.completed())
	f := ph.factor()
	secs := make([]float64, len(setups))
	for i, s := range setups {
		secs[i] = s.Seconds()
	}
	return map[string]float64{
		"setup_s":         quantile(secs, 0.5) / f,
		"ops_per_s":       done / ph.wall.Seconds() * f,
		"latency_p50_ms":  quantile(ph.lat, 0.50) / f,
		"latency_p99_ms":  quantile(ph.lat, 0.99) / f,
		"cpu_ms_per_op":   ms(ph.cpu) / done / f,
		"alloc_kb_per_op": ph.allocKB / done,
		"live_heap_mb":    ph.heapMiB,
	}
}

// quantile is the nearest-rank q-quantile; +Inf entries (failed ops)
// sort last. It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
