// Command khbench is the repository's layered benchmark. One run generates
// seeded inputs, drives one named workload through the public surfaces,
// checks that every output is correct, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// Build and run it through run.sh, which compiles this program and the
// khserve daemon from the checkout first:
//
//	bash khbench/run.sh --workload decompose-road --seed 7 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - decompose-road: exact h-LB+UB at h=3 on a near-planar RoadGrid, one
//     warm Engine with nproc workers, closed loop of DecomposeInto.
//   - decompose-skewed: the same loop at h=2 on a Barabási–Albert graph,
//     whose hubs make the Algorithm-5 upper-bound phase a large share.
//
// The khserve daemon is not a workload of its own: its millisecond
// latencies on a shared 2-CPU host move by more than a quarter from run
// to run. The traced run of every workload measures it instead, on a
// seeded caveman graph (the serve-live graph) driven by an open loop at a
// nominal and a peak Poisson rate with a read/write mix of cached /core,
// exact and approximate /decompose, and single-edge /mutate toggles.
//
// With --trace 0 the run reports the end-to-end metrics, which every
// workload measures on its own primary operation. With --trace 1 the run
// is the traced layer sweep instead: it records spans around the calls
// into each layer (graph, hbfs, core bounds / engine / approx on the
// workload's graph; khserve, the EnginePool and incr on the serve-live
// graph), writes them to a span file when it ends, and reports the
// per-layer metrics and the tracing overhead.
// Besides the last line, a run prints a host header line and a report
// line that carries every measured number with its unit.
//
// Any correctness mismatch prints the result with "correct": false and
// exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	khserve  string // path to the khserve binary
	out      string // directory for edge lists and span files
	sz       sizes
}

// result is the contract line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run collects what one benchmark run measures and what it found wrong.
type run struct {
	cfg       config
	host      hostHeader
	metrics   map[string]metric
	report    map[string]metric // everything measured, a superset of metrics
	attempted int64
	failed    int64
	mismatch  []string
}

// e2e records an end-to-end metric: on the contract line of an untraced
// run, and on the report line always.
func (r *run) e2e(name, unit string, v float64) {
	if !r.cfg.trace {
		r.metrics[name] = metric{v, unit}
	}
	r.note(name, unit, v)
}

// layer records a per-layer metric: on the contract line of a traced run,
// and on the report line always.
func (r *run) layer(name, unit string, v float64) {
	if r.cfg.trace {
		r.metrics[name] = metric{v, unit}
	}
	r.note(name, unit, v)
}

// note records a number for the report line only.
func (r *run) note(name, unit string, v float64) { r.report[name] = metric{v, unit} }

// mismatchf records a correctness failure; the run then exits non-zero.
func (r *run) mismatchf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "khbench: MISMATCH:", msg)
	r.mismatch = append(r.mismatch, msg)
}

var workloads = map[string]func(*run) error{
	"decompose-road":   func(r *run) error { return runDecompose(r, roadSpec(r.cfg.sz)) },
	"decompose-skewed": func(r *run) error { return runDecompose(r, skewedSpec(r.cfg.sz)) },
}

func main() {
	var cfg config
	var trace int
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "", "decompose-road or decompose-skewed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 30, "measured length of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer sweep instead of the end-to-end measurement")
	flag.StringVar(&cfg.khserve, "khserve", "", "path to the khserve binary (run.sh builds it)")
	flag.StringVar(&cfg.out, "out", ".bench_build/khbench", "directory for generated inputs and span files")
	smoke := flag.Bool("smoke", false, "run every workload once on small inputs, both untraced and traced")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.sz = fullSizes
	if *smoke {
		cfg.sz = smokeSizes
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "khbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "khbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runSmoke runs every workload once untraced and once traced, briefly. A
// traced run must report exactly the metrics of layerTargets.
func runSmoke(cfg config) error {
	for name := range workloads {
		for _, tr := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = name, tr
			res, err := runOne(c)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, tr, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s trace=%v: incorrect output", name, tr)
			}
			if !tr {
				continue
			}
			for m := range res.Metrics {
				if _, ok := layerTargets[m]; !ok {
					return fmt.Errorf("%s: traced metric %s has no target", name, m)
				}
			}
			if len(res.Metrics) != len(layerTargets) {
				return fmt.Errorf("%s: traced run reports %d metrics, want %d", name, len(res.Metrics), len(layerTargets))
			}
		}
	}
	return nil
}

// runOne runs one workload and prints its header, report and result lines.
func runOne(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want decompose-road or decompose-skewed)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.khserve == "" {
		return nil, fmt.Errorf("--khserve is required (run the benchmark through run.sh)")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	r := &run{
		cfg:      cfg,
		host:     newHostHeader(cfg),
		metrics:  map[string]metric{},
		report:   map[string]metric{},
		mismatch: []string{},
	}
	if err := printJSON(map[string]any{"host": r.host}); err != nil {
		return nil, err
	}
	if err := wl(r); err != nil {
		return nil, err
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if err := printJSON(map[string]any{"report": r.report, "mismatches": r.mismatch}); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(r.mismatch) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	return res, printJSON(res)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// artifact names a file of this run under the output directory.
func (r *run) artifact(name string) string {
	mode := "e2e"
	if r.cfg.trace {
		mode = "trace"
	}
	return filepath.Join(r.cfg.out, fmt.Sprintf("%s-%s-seed%d-%s", r.cfg.workload, mode, r.cfg.seed, name))
}

// nproc is the worker count of every multi-worker engine the benchmark
// builds: the CPUs this process may use.
func nproc() int { return runtime.GOMAXPROCS(0) }
