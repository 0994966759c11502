package main

import (
	"fmt"
	"slices"
	"time"

	khcore "repro"
)

// finishTrace runs the library probes on g at h and writes the spans. ref
// holds the exact cores of g at h, or nil to compute them here.
func finishTrace(r *run, tr *tracer, g *khcore.Graph, h int, ref []int) error {
	if ref == nil {
		res, err := khcore.Decompose(g, khcore.Options{H: h, Workers: 1})
		if err != nil {
			return err
		}
		ref = res.Core
	}
	if err := workloadProbes(r, tr, g, h, ref); err != nil {
		return err
	}
	if err := probeBounds(r, tr, g, h, ref); err != nil {
		return err
	}
	return tr.write(r.artifact("spans.json"), r.host)
}

// serveLayers measures the khserve, EnginePool and incr layers on the
// serve-live graph: traced open-loop phases against the daemon at the
// nominal and then at the peak rate, each for phase, then the
// same schedules replayed in process.
func serveLayers(r *run, tr *tracer, file string, g0 *khcore.Graph, phase time.Duration) error {
	d, err := startDaemon(r.cfg.khserve, file)
	if err != nil {
		return err
	}
	defer d.kill() // after a panic; a no-op once stop has returned
	edits := toggleStream(g0, editBudget(r.cfg.sz, 2*phase+replayMaxExtra), r.cfg.seed)
	s := newSession(d.base, g0, edits)
	defer s.c.close()
	schedules, err := s.tracedPhases(r, tr, phase)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	extra := uint64(10)
	more := func() ([]request, error) {
		extra++
		return schedule(r.cfg.sz.peak, 5*time.Second, r.cfg.seed, extra, edits, &s.next)
	}
	return replayLayers(r, tr, g0, schedules, more)
}

// tracedPhases runs the daemon phases of a traced run, checks the daemon's
// final answers and returns the phases' schedules.
func (s *session) tracedPhases(r *run, tr *tracer, phase time.Duration) ([][]request, error) {
	if err := s.warm(); err != nil {
		return nil, err
	}
	s.tr = tr
	var schedules [][]request
	var traced [][]sample
	for i, p := range []struct {
		rate float64
		dur  time.Duration
	}{{r.cfg.sz.nominal, phase}, {r.cfg.sz.peak, phase}} {
		reqs, err := schedule(p.rate, p.dur, r.cfg.seed, uint64(i+1), s.edits, &s.next)
		if err != nil {
			return nil, err
		}
		schedules = append(schedules, reqs)
		traced = append(traced, runPhase(reqs, s.send))
	}
	s.tr = nil
	if err := s.finalGate(r); err != nil {
		return nil, err
	}
	recordPhase(r, summarize(r, traced[0]), ".nominal")
	recordPhase(r, summarize(r, traced[1]), ".peak")
	all := summarize(r, slices.Concat(traced...))
	ovh, err := median(all.overhead)
	if err != nil {
		return nil, fmt.Errorf("serve.overhead_ms.p50: %w", err)
	}
	r.layer("serve.overhead_ms.p50", "ms", ovh)
	r.layer("serve.cache_hit_frac", "fraction", share(all.cacheHits, all.cacheQ))
	r.layer("serve.shed_frac", "fraction", share(all.shed, all.attempted))
	r.layer("serve.degrade_frac", "fraction", share(all.degraded, all.cacheQ))
	r.layer("serve.generator_lag_ms.max", "ms", ms(all.genLagMax))
	return schedules, nil
}
