package main

import (
	"fmt"
	"slices"
	"time"

	khcore "repro"
)

// decomposeLimit is the latency limit of one batch decomposition, behind
// slo_frac on the decompose-* workloads: about ten times a typical run.
const decomposeLimit = 2 * time.Second

// setupRepeats is how many times a run sets up, so setup_s is a median.
const setupRepeats = 9

// runDecompose measures a closed loop of DecomposeInto on one warm engine
// with nproc workers.
func runDecompose(r *run, spec decomposeSpec) error {
	g, eng, ref, err := setupDecompose(r, spec)
	if err != nil {
		return err
	}
	defer eng.Close()
	opts := khcore.Options{H: spec.h}
	if r.cfg.trace {
		return traceDecompose(r, spec, g, eng, ref)
	}
	lat := decomposeLoop(r, eng, opts, ref, r.cfg.seconds, nil)[0]
	if err := checkWorkersAgree(r, g, opts, ref); err != nil {
		return err
	}
	if err := recordTail(r.e2e, "latency_ms", lat); err != nil {
		return err
	}
	met := 0
	for _, l := range lat {
		if l <= ms(decomposeLimit) {
			met++
		}
	}
	r.e2e("slo_frac", "fraction", share(int64(met), r.attempted))
	r.e2e("ok_frac", "fraction", share(r.attempted-r.failed, r.attempted))
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	r.e2e("peak_rss_mb", "MB", rss)
	return nil
}

// setupDecompose generates the graph, builds a warm engine and runs the
// first decomposition, setupRepeats times; setup_s is the median. The last
// engine stays open for the run. Its first result is checked by
// khcore.Validate and becomes the reference every repeat must equal.
func setupDecompose(r *run, spec decomposeSpec) (*khcore.Graph, *khcore.Engine, []int, error) {
	var times []float64
	var g *khcore.Graph
	var eng *khcore.Engine
	var res khcore.Result
	for i := 0; i < setupRepeats; i++ {
		if eng != nil {
			eng.Close()
		}
		start := time.Now()
		g = spec.graph(r.cfg.seed)
		eng = khcore.NewEngine(g, nproc())
		if err := eng.DecomposeInto(&res, khcore.Options{H: spec.h}); err != nil {
			eng.Close()
			return nil, nil, nil, fmt.Errorf("first decomposition: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	setup, err := median(times)
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	r.e2e("setup_s", "s", setup)
	r.note("graph.vertices", "count", float64(g.NumVertices()))
	r.note("graph.edges", "count", float64(g.NumEdges()))
	if err := khcore.Validate(g, spec.h, res.Core); err != nil {
		r.mismatchf("decomposition fails khcore.Validate: %v", err)
	}
	return g, eng, slices.Clone(res.Core), nil
}

// decomposeLoop runs DecomposeInto back to back for dur and returns each
// successful run's latency in ms. Run i is recorded by tracers[i mod
// len(tracers)] (a nil tracer records nothing) and its latency lands in
// that tracer's slot. Every result must equal ref bit for bit.
func decomposeLoop(r *run, eng *khcore.Engine, opts khcore.Options, ref []int, dur time.Duration, tracers ...*tracer) [][]float64 {
	var res khcore.Result
	lat := make([][]float64, len(tracers))
	name := fmt.Sprintf("engine.DecomposeInto.w%d", eng.Workers())
	var stolen time.Duration
	for i, deadline := 0, time.Now().Add(dur); time.Now().Before(deadline); i++ {
		slot := i % len(tracers)
		tr := tracers[slot]
		id := tr.begin(name, 0, tr.newReq())
		steal0 := stealTimes()
		start := time.Now()
		err := eng.DecomposeInto(&res, opts)
		d := time.Since(start)
		// Time the host gave this guest's CPUs to other guests is not
		// the program's latency; leave it out.
		s := min(maxStolen(steal0, stealTimes()), d)
		stolen += s
		d -= s
		tr.end(id, statsAttrs(res.Stats))
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		lat[slot] = append(lat[slot], ms(d))
		if !slices.Equal(res.Core, ref) {
			r.mismatchf("repeat %d of the decomposition differs from the first result", i)
		}
	}
	r.note("latency_ms.stolen_total", "ms", ms(stolen))
	return lat
}

// checkWorkersAgree runs the decomposition once with a single worker; it
// must equal the nproc-worker reference bit for bit.
func checkWorkersAgree(r *run, g *khcore.Graph, opts khcore.Options, ref []int) error {
	e1 := khcore.NewEngine(g, 1)
	defer e1.Close()
	var res khcore.Result
	if err := e1.DecomposeInto(&res, opts); err != nil {
		return fmt.Errorf("workers=1 decomposition: %w", err)
	}
	if !slices.Equal(res.Core, ref) {
		r.mismatchf("workers=1 and workers=%d decompositions differ", nproc())
	}
	return nil
}

// statsAttrs tags an engine span with the run's work counters and phases.
func statsAttrs(st khcore.Stats) map[string]any {
	return map[string]any{
		"visits":              st.Visits,
		"hdegreeComputations": st.HDegreeComputations,
		"decrements":          st.Decrements,
		"partitions":          st.Partitions,
		"phaseHDegreesMs":     ms(st.PhaseHDegrees),
		"phaseLowerBoundsMs":  ms(st.PhaseLowerBounds),
		"phaseUpperBoundMs":   ms(st.PhaseUpperBound),
		"phaseIntervalsMs":    ms(st.PhaseIntervals),
	}
}

// traceDecompose is the traced run of a decompose-* workload: the closed
// loop with every other run traced (the two halves' p50s give the tracing
// overhead), the serve layers, then the library probes on the workload's
// graph.
func traceDecompose(r *run, spec decomposeSpec, g *khcore.Graph, eng *khcore.Engine, ref []int) error {
	tr := newTracer()
	opts := khcore.Options{H: spec.h}
	lat := decomposeLoop(r, eng, opts, ref, r.cfg.seconds/2, nil, tr)
	if err := setOverhead(r, lat[0], lat[1]); err != nil {
		return err
	}
	// The khserve, EnginePool and incr layers are measured on the
	// serve-live graph, where the daemon's read/write mix exercises them.
	file, g0, err := serveInput(r)
	if err != nil {
		return err
	}
	if err := serveLayers(r, tr, file, g0, r.cfg.seconds/6); err != nil {
		return err
	}
	return finishTrace(r, tr, g, spec.h, ref)
}

// setOverhead reports how much slower the traced stretch's median is.
func setOverhead(r *run, plain, traced []float64) error {
	p, err := median(plain)
	if err != nil {
		return fmt.Errorf("untraced stretch: %w", err)
	}
	t, err := median(traced)
	if err != nil {
		return fmt.Errorf("traced stretch: %w", err)
	}
	r.layer("trace.overhead_frac", "fraction", (t-p)/p)
	return nil
}
