package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	khcore "repro"
)

// replayer plays a serve schedule in process against the two layers
// khserve wraps: an EnginePool for the reads and a Maintainer for the
// writes. It mirrors the daemon's policy: /core at the maintained h and a
// repeated exact /decompose are cache hits that touch no engine, every
// mutation is one ApplyBatch followed by a pool Reset, and mutations
// serialize.
type replayer struct {
	pool *khcore.EnginePool
	m    *khcore.Maintainer
	tr   *tracer

	mu       sync.Mutex   // serializes mutations, like the daemon's mutMu
	version  atomic.Int64 // bumped per applied mutation
	cachedAt atomic.Int64 // version of the cached exact h=3 result
	busy     atomic.Int64 // nanoseconds engines spent checked out
	applied  []khcore.EdgeEdit
}

func newReplayer(g *khcore.Graph, tr *tracer) (*replayer, error) {
	pool, err := khcore.NewEnginePool(g, nproc(), 1)
	if err != nil {
		return nil, err
	}
	m, err := khcore.NewMaintainer(g, 2, khcore.Options{Workers: 1})
	if err != nil {
		pool.Close()
		return nil, err
	}
	rp := &replayer{pool: pool, m: m, tr: tr}
	rp.cachedAt.Store(-1)
	return rp, nil
}

func (rp *replayer) close() {
	rp.pool.Close()
	rp.m.Close()
}

// send is the replay's counterpart of session.send.
func (rp *replayer) send(sm *sample, rq request) {
	switch rq.kind {
	case kindCore:
		sm.rep.cached = true
	case kindDecompose:
		v := rp.version.Load()
		if rp.cachedAt.Load() == v {
			sm.rep.cached = true
			return
		}
		if sm.err = rp.decompose(rq, khcore.Options{H: 3}); sm.err == nil {
			rp.cachedAt.Store(v)
		}
	case kindApprox:
		sm.err = rp.decompose(rq, khcore.Options{H: 3, Approx: khcore.ApproxOptions{Enabled: true, Seed: rq.aseed}})
	case kindMutate:
		sm.err = rp.mutate(rq.edit)
	}
}

// decompose runs one pooled decomposition, with spans around Acquire, the
// engine run and Release.
func (rp *replayer) decompose(rq request, opts khcore.Options) error {
	ctx := context.Background()
	req := rp.tr.newReq()
	root := rp.tr.begin("replay."+rq.kind.String(), 0, req)
	defer rp.tr.end(root, nil)
	id := rp.tr.begin("pool.Acquire", root, req)
	e, err := rp.pool.Acquire(ctx)
	rp.tr.end(id, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	var res khcore.Result
	id = rp.tr.begin("engine.DecomposeIntoCtx", root, req)
	err = e.DecomposeIntoCtx(ctx, &res, opts)
	rp.tr.end(id, statsAttrs(res.Stats))
	id = rp.tr.begin("pool.Release", root, req)
	rp.pool.Release(e)
	rp.tr.end(id, nil)
	rp.busy.Add(int64(time.Since(start)))
	return err
}

// mutate applies one edit through the maintainer and rebinds the pool.
func (rp *replayer) mutate(e khcore.EdgeEdit) error {
	ctx := context.Background()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	req := rp.tr.newReq()
	root := rp.tr.begin("replay.mutate", 0, req)
	defer rp.tr.end(root, nil)
	id := rp.tr.begin("incr.Maintainer.ApplyBatch", root, req)
	err := rp.m.ApplyBatch(ctx, []khcore.EdgeEdit{e})
	st := rp.m.LastStats().Incr
	rp.tr.end(id, map[string]any{
		"regionSize": st.RegionSize, "localized": st.Localized, "repairedVertices": st.RepairedVertices,
	})
	if err != nil {
		return err
	}
	rp.applied = append(rp.applied, e)
	id = rp.tr.begin("pool.Reset", root, req)
	err = rp.pool.Reset(ctx, rp.m.Graph())
	rp.tr.end(id, nil)
	rp.version.Add(1)
	return err
}

// replayMaxExtra bounds how long the replay may go on past the traced
// schedules to collect the samples a p90 needs.
const replayMaxExtra = 60 * time.Second

// replayLayers plays the given schedules through a replayer, then further
// schedules from more until every reported p90 has its samples, and
// reports the incr and pool metrics. The first schedule is at the nominal
// rate and every later one at the peak rate. The maintained cores must
// then equal a fresh decomposition of the benchmark's own copy of the
// final edge set.
func replayLayers(r *run, tr *tracer, g0 *khcore.Graph, schedules [][]request, more func() ([]request, error)) error {
	rp, err := newReplayer(g0, tr)
	if err != nil {
		return err
	}
	defer rp.close()
	need := int(math.Ceil(minBeyond / (1 - 90/100.0)))
	enough := func() bool {
		for _, name := range []string{"incr.Maintainer.ApplyBatch", "pool.Acquire", "pool.Reset"} {
			if len(tr.named(name)) < need {
				return false
			}
		}
		return true
	}
	// Engine time and wall time at the nominal [0] and the peak [1] rate.
	var busy, wall [2]time.Duration
	for i := 0; i < len(schedules) || (!enough() && wall[1] < replayMaxExtra); i++ {
		if i >= len(schedules) {
			reqs, err := more()
			if err != nil {
				return err
			}
			schedules = append(schedules, reqs)
		}
		rate := min(i, 1)
		busy0, start := rp.busy.Load(), time.Now()
		for _, sm := range runPhase(schedules[i], rp.send) {
			r.attempted++
			if sm.err != nil {
				r.failed++
				r.mismatchf("replayed %v request failed: %v", sm.kind, sm.err)
			}
		}
		wall[rate] += time.Since(start)
		busy[rate] += time.Duration(rp.busy.Load() - busy0)
	}
	size := float64(rp.pool.Size())
	r.note("pool.busy_frac.nominal", "fraction", float64(busy[0])/float64(wall[0])/size)
	r.layer("pool.busy_frac", "fraction", float64(busy[1])/float64(wall[1])/size)
	if err := recordReplay(r, tr); err != nil {
		return err
	}
	final, err := applyEdits(g0, rp.applied)
	if err != nil {
		r.mismatchf("replayed edits do not apply to the benchmark's edge set: %v", err)
		return nil
	}
	res, err := khcore.Decompose(final, khcore.Options{H: 2, Workers: 1})
	if err != nil {
		return err
	}
	if !slices.Equal(res.Core, rp.m.Core()) {
		r.mismatchf("maintained h=2 cores differ from a fresh decomposition of the final graph")
	}
	return nil
}

func recordReplay(r *run, tr *tracer) error {
	apply := tr.named("incr.Maintainer.ApplyBatch")
	var lat []float64
	var region, repaired, localized float64
	for _, s := range apply {
		lat = append(lat, ms(s.End-s.Start))
		region += float64(s.Attrs["regionSize"].(int))
		repaired += float64(s.Attrs["repairedVertices"].(int))
		if s.Attrs["localized"].(bool) {
			localized++
		}
	}
	n := float64(max(len(apply), 1))
	r.layer("incr.region_size", "count", region/n)
	r.layer("incr.repaired_vertices", "count", repaired/n)
	r.layer("incr.localized_frac", "fraction", localized/n)
	if err := recordTail(r.layer, "incr.apply_ms", lat); err != nil {
		return err
	}
	if err := recordTail(r.layer, "pool.acquire_wait_ms", tr.durationsMS("pool.Acquire")); err != nil {
		return err
	}
	reset, err := percentile(tr.durationsMS("pool.Reset"), 90)
	if err != nil {
		return fmt.Errorf("pool.reset_ms.p90: %w", err)
	}
	r.layer("pool.reset_ms.p90", "ms", reset)
	return nil
}
