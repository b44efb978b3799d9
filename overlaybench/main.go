// Command overlaybench is the whole-stack benchmark of the secure
// JXTA-Overlay deployment: one process builds the full stack (broker,
// security extension, admission control, durable relay, audit journal,
// secure clients on the simnet fabric) and drives one seeded
// closed-loop workload against it.
//
//	overlaybench --workload join|peer-msg|group-relay --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures S seconds untraced and prints the
// end-to-end metrics; with --trace 1 it measures S/2 seconds untraced,
// then S/2 seconds on a fresh deployment with every lifecycle span
// recorded, and prints the per-layer metrics. Either way the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// correct is the delivery oracle's verdict; the exit code is 1 when it
// is false. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"jxtaoverlay/internal/keys"
)

// An untraced run builds the deployment at least setupMin times, and
// more, up to setupMax, until setupBudget has been spent; setup_s is the
// median. Key generation makes one set-up's time vary by tens of
// percent, most of all for the small deployments, which are also the
// cheap ones to repeat.
const (
	setupMin    = 5
	setupMax    = 15
	setupBudget = 3 * time.Second
)

// Recorder capacities of a traced run, per client and for the broker,
// sized so the traced half fills at most 7/8 of any ring (the phase
// stops early rather than drop a span).
var traceCaps = map[string][2]int{
	"join":        {1 << 12, 1 << 17},
	"peer-msg":    {1 << 14, 1 << 17},
	"group-relay": {1 << 15, 1 << 18},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: join, peer-msg or group-relay")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for the relay WAL and the audit journal")
	flag.Parse()
	o.trace = traceFlag == 1
	if !slices.Contains(workloadNames, o.workload) || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: overlaybench --workload join|peer-msg|group-relay --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlaybench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlaybench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and returns its result line. Setting
// and diagnostics go to standard output ahead of it.
func run(o options) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	setting, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"workers": workers, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"rsa_bits": keys.DefaultRSABits, "link_profile": "local", "go": runtime.Version(),
	})
	fmt.Println("setting", string(setting))

	can, err := newCanary()
	if err != nil {
		return nil, err
	}
	measured := time.Duration(o.seconds) * time.Second
	if !o.trace {
		var setups []time.Duration
		var spent time.Duration
		var r *runner
		for len(setups) < setupMin || (spent < setupBudget && len(setups) < setupMax) {
			if r != nil {
				r.d.remove()
			}
			start := time.Now()
			if r, err = setupIn(o, nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start))
			spent += setups[len(setups)-1]
		}
		ph, violations := measure(r, measured, nil, can)
		return report(ph.attempted, ph.failed, violations, endToEnd, endToEndValues(ph, setups)), nil
	}

	r, err := setupIn(o, nil)
	if err != nil {
		return nil, err
	}
	untraced, v1 := measure(r, measured/2, nil, can)

	caps := traceCaps[o.workload]
	tr := newTracing(userCount(o.workload), caps[0], caps[1])
	if r, err = setupIn(o, tr); err != nil {
		return nil, err
	}
	traced, v2 := measure(r, measured/2, tr, can)
	life, bench := tr.snapshot()
	vals := layerValues(untraced, traced, tr, life, bench)
	return report(untraced.attempted+traced.attempted, untraced.failed+traced.failed,
		append(v1, v2...), perLayer(), vals), nil
}

// setupIn builds the workload's deployment in a fresh directory.
func setupIn(o options, tr *tracing) (*runner, error) {
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	r, err := setup(o.workload, o.seed, dir, tr)
	if err != nil {
		_ = os.RemoveAll(dir) // best effort: scratch space
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return r, nil
}

// measure warms the deployment up, runs the measured phase, applies the
// oracle and removes the deployment. With tr set, tracing starts after
// the warm-up and the phase ends early if a recorder nears capacity.
func measure(r *runner, dur time.Duration, tr *tracing, can *canary) (*phase, []string) {
	r.run(streamWarm, warmup, nil, nil)
	var stop func() bool
	if tr != nil {
		r.d.startTracing()
		stop = tr.full
	}
	ph := r.run(streamMeasure, dur, stop, can)
	violations := r.finish(ph)
	fmt.Printf("phase: %d ops in %.3fs, %.3fs CPU, machine factor %.4f (%d canary samples)\n",
		ph.attempted, ph.wall.Seconds(), ph.cpu.Seconds(), ph.factor(), len(ph.canary))
	if ph.firstErr != nil {
		fmt.Printf("%d of %d ops failed, first: %v\n", ph.failed, ph.attempted, ph.firstErr)
	}
	r.d.remove()
	return ph, violations
}

// report assembles the result line. A metric that came out non-finite
// (every op failed) is printed as the largest float, so the line stays
// valid JSON and reads as worst possible.
func report(attempted, failed int, violations []string, defs []metricDef, vals map[string]float64) *result {
	for _, v := range violations {
		fmt.Println("violation:", v)
	}
	res := &result{Correct: len(violations) == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}
