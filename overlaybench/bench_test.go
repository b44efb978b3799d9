package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsPassOracle runs each workload briefly, untraced and
// traced, and checks the oracle's verdict, the printed metric names and
// the counters that show each workload exercises the layers it exists
// for.
func TestWorkloadsPassOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three deployments per workload")
	}
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			res, err := run(options{workload: wl, seed: 7, seconds: 1, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)

			res, err = run(options{workload: wl, seed: 7, seconds: 2, trace: true, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer())
			m := func(name string) float64 { return res.Metrics[name].Value }
			if n := m("trace.spans_dropped"); n != 0 {
				t.Errorf("trace.spans_dropped = %v, want 0", n)
			}
			switch wl {
			case "join":
				if v := m("xdsig.broker_verify_misses_per_op"); v < 1 {
					t.Errorf("broker verify misses per op = %v, want >= 1", v)
				}
				if v := m("core.login_p50_ms"); v <= 0 {
					t.Errorf("core.login_p50_ms = %v, want > 0", v)
				}
			case "peer-msg":
				if v := m("userdb.auth_calls"); v != 0 {
					t.Errorf("userdb.auth_calls = %v, want 0", v)
				}
				if v := m("relay.enqueued_per_op"); v != 0 {
					t.Errorf("relay.enqueued_per_op = %v, want 0", v)
				}
				if v := m("xdsig.client_verify_hit_ratio"); v < 0.99 {
					t.Errorf("client verify hit ratio = %v, want >= 0.99", v)
				}
			case "group-relay":
				if v := m("relay.enqueued_per_op"); v <= 0 {
					t.Errorf("relay.enqueued_per_op = %v, want > 0", v)
				}
				if v := m("core.open_p50_ms"); v <= 0 {
					t.Errorf("core.open_p50_ms = %v, want > 0", v)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: printed %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the printed names and units to
// the benchmark's declaration.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command   []string
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer())
}

// TestSeedDeterminesInputs checks that a seed reproduces every input
// the program sees (who acts, toward whom, payload bytes, churn) and
// that another seed changes them.
func TestSeedDeterminesInputs(t *testing.T) {
	draw := func(wl string, seed uint64) []byte {
		var buf bytes.Buffer
		for w := 0; w < workers; w++ {
			in := newInputs(wl, seed, streamMeasure, w)
			for i := 0; i < 200; i++ {
				op := in.next()
				buf.WriteString(strings.Repeat(" ", op.From) + "|" + strings.Repeat(" ", op.To+1) + "|")
				buf.Write(payload(seed, op))
			}
		}
		c := newChurner(seed)
		online := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
		for _, i := range c.initialOffline() {
			buf.WriteByte(byte(i))
		}
		for i := 0; i < 50; i++ {
			leave, back := c.step(online, []int{12, 13, 14, 15})
			buf.WriteByte(byte(c.cadence()))
			for _, x := range append(leave, back...) {
				buf.WriteByte(byte(x))
			}
		}
		return buf.Bytes()
	}
	for _, wl := range workloadNames {
		a, b, c := draw(wl, 1), draw(wl, 1), draw(wl, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave different inputs on two draws", wl)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", wl)
		}
	}
}

// TestPeerMsgSizeMix checks the seeded size classes land near 70/20/10.
func TestPeerMsgSizeMix(t *testing.T) {
	count := map[int]int{}
	in := newInputs("peer-msg", 3, streamMeasure, 0)
	const n = 10000
	for i := 0; i < n; i++ {
		op := in.next()
		count[op.Size]++
		if op.From == op.To || op.From/(msgPeers/workers) != op.To/(msgPeers/workers) {
			t.Fatalf("op %d: %d -> %d leaves the worker's peers", i, op.From, op.To)
		}
	}
	for size, want := range map[int]float64{sizeSmall: 0.7, sizeMid: 0.2, sizeLarge: 0.1} {
		if got := float64(count[size]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("size %d: share %.3f, want %.2f", size, got, want)
		}
	}
}

// TestOracleCatches injects each kind of delivery fault into the
// ledger and checks that the oracle reports it.
func TestOracleCatches(t *testing.T) {
	op := opInput{ID: 42, From: 0, To: 1, Size: 300}
	body := payload(9, op)
	wrong := append([]byte(nil), body...)
	wrong[len(wrong)-1] ^= 1
	other := payload(9, opInput{ID: 43, Size: 300})
	cases := []struct {
		name  string
		opens func(l *ledger)
		want  string
	}{
		{"wrong plaintext", func(l *ledger) { l.open(1, wrong); l.open(2, body) }, "wrong plaintext"},
		{"missing delivery", func(l *ledger) { l.open(1, body) }, "never opened"},
		{"duplicate open", func(l *ledger) { l.open(1, body); l.open(1, body); l.open(2, body) }, "twice"},
		{"unaddressed recipient", func(l *ledger) { l.open(3, body); l.open(1, body); l.open(2, body) }, "not addressed"},
		{"open after completion", func(l *ledger) { l.open(1, body); l.open(2, body); l.open(2, body) }, "already complete"},
		{"unknown op", func(l *ledger) { l.open(1, body); l.open(2, body); l.open(1, other) }, "unknown"},
		{"no op id", func(l *ledger) { l.open(1, body); l.open(2, body); l.open(1, []byte("hi")) }, "no op id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger()
			l.expect(op.ID, body, 1<<1|1<<2, 2)
			tc.opens(l)
			n, v := l.missing()
			if n == 0 || !strings.Contains(strings.Join(v, "\n"), tc.want) {
				t.Fatalf("violations %v, want one containing %q", v, tc.want)
			}
		})
	}
	l := newLedger()
	f := l.expect(op.ID, body, 1<<1|1<<2, -1)
	l.open(1, body)
	l.setNeed(f, 1)
	select {
	case <-f.done:
	default:
		t.Fatal("op not complete after its one direct recipient opened")
	}
	l.open(2, body)
	if n, v := l.missing(); n != 0 {
		t.Fatalf("clean delivery reported violations: %v", v)
	}
}
