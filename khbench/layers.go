package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	khcore "repro"
	"repro/internal/hbfs"
)

// probeRepeats is how many times a layer probe repeats a call; the probe
// reports the median.
const probeRepeats = 3

// spliceEdits is how many toggles the Graph.Splice probe replays.
const spliceEdits = 200

// workloadProbes times the calls into the graph, hbfs, engine and approx
// layers on the workload's graph g at distance threshold h. ref holds the
// exact cores of g at h, which every exact run must reproduce.
func workloadProbes(r *run, tr *tracer, g *khcore.Graph, h int, ref []int) error {
	probeGraph(r, tr, g)
	probeHBFS(r, tr, g, h)
	if err := probeEngine(r, tr, g, h, ref); err != nil {
		return err
	}
	return probeApprox(r, tr, g, h, ref)
}

// medianOf runs fn probeRepeats times inside spans called name and
// returns the median duration in ms.
func medianOf(tr *tracer, name string, fn func()) float64 {
	var xs []float64
	for i := 0; i < probeRepeats; i++ {
		xs = append(xs, ms(tr.timed(name, fn)))
	}
	m, _ := median(xs) // probeRepeats > 0 samples
	return m
}

// probeGraph times Builder.Build over g's edge list and Graph.Splice over
// a replayed toggle stream.
func probeGraph(r *run, tr *tracer, g *khcore.Graph) {
	edges := graphEdges(g)
	r.layer("graph.build_ms", "ms", medianOf(tr, "graph.Builder.Build", func() {
		b := khcore.NewBuilder(g.NumVertices())
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		b.Build()
	}))
	var lat []float64
	cur := g
	for _, e := range toggleStream(g, spliceEdits, r.cfg.seed) {
		pair := [][2]int32{{int32(e.U), int32(e.V)}}
		ins, del := pair, [][2]int32(nil)
		if e.Op == khcore.EditDelete {
			ins, del = nil, pair
		}
		lat = append(lat, ms(tr.timed("graph.Graph.Splice", func() {
			cur = cur.Splice(cur.NumVertices(), ins, del)
		})))
	}
	m, _ := median(lat) // spliceEdits > 0 samples
	r.layer("graph.splice_ms", "ms", m)
}

// probeHBFS times the batch h-degree and h-ball kernels of an h-BFS pool
// over every vertex of g.
func probeHBFS(r *run, tr *tracer, g *khcore.Graph, h int) {
	pool := hbfs.NewPool(g, nproc())
	defer pool.Close()
	verts := make([]int32, g.NumVertices())
	for v := range verts {
		verts[v] = int32(v)
	}
	out := make([]int32, len(verts))
	pool.ResetVisits()
	hd := medianOf(tr, "hbfs.Pool.HDegrees", func() { pool.HDegrees(verts, h, nil, out) })
	visits := pool.Visits() / probeRepeats
	r.layer("hbfs.hdegrees_ms", "ms", hd)
	r.layer("hbfs.visits", "count", float64(visits))
	r.layer("hbfs.ns_per_visit", "ns", hd*1e6/float64(max(visits, 1)))
	r.layer("hbfs.balls_ms", "ms", medianOf(tr, "hbfs.Pool.Balls", func() {
		pool.Balls(verts, h, nil, func(int, int32, []int32, int) {})
	}))
}

// probeEngine times warm exact runs with one worker and with nproc
// workers; both must reproduce ref.
func probeEngine(r *run, tr *tracer, g *khcore.Graph, h int, ref []int) error {
	opts := khcore.Options{H: h}
	runs := map[int]khcore.Stats{}
	times := map[int]float64{}
	for _, w := range []int{1, nproc()} {
		eng := khcore.NewEngine(g, w)
		var res khcore.Result
		var err error
		if err = eng.DecomposeInto(&res, opts); err == nil { // warm-up
			times[w] = medianOf(tr, fmt.Sprintf("engine.DecomposeInto.w%d", w), func() {
				if e := eng.DecomposeInto(&res, opts); e != nil {
					err = e
				}
			})
		}
		eng.Close()
		if err != nil {
			return fmt.Errorf("engine probe, workers=%d: %w", w, err)
		}
		if !slices.Equal(res.Core, ref) {
			r.mismatchf("engine with %d workers differs from the reference decomposition", w)
		}
		runs[w] = res.Stats
	}
	st1, stN := runs[1], runs[nproc()]
	r.layer("engine.decompose_ms.w1", "ms", times[1])
	r.layer("engine.decompose_ms.wN", "ms", times[nproc()])
	r.layer("engine.speedup", "ratio", times[1]/times[nproc()])
	r.layer("engine.visits", "count", float64(stN.Visits))
	r.layer("engine.hdegree_computations", "count", float64(stN.HDegreeComputations))
	r.layer("engine.decrements", "count", float64(stN.Decrements))
	r.layer("engine.partitions", "count", float64(stN.Partitions))
	r.layer("engine.visit_efficiency", "ratio", float64(st1.Visits)/float64(max(stN.Visits, 1)))
	r.layer("engine.phase_ub_ms", "ms", ms(stN.PhaseUpperBound))
	r.layer("engine.phase_intervals_ms", "ms", ms(stN.PhaseIntervals))
	return nil
}

// probeApprox times the approximate tier with nproc workers. Runs with one
// seed must repeat exactly, with either worker count.
func probeApprox(r *run, tr *tracer, g *khcore.Graph, h int, ref []int) error {
	opts := khcore.Options{H: h, Approx: khcore.ApproxOptions{Enabled: true, Seed: r.cfg.seed}}
	var first []int
	var st khcore.Stats
	for _, w := range []int{nproc(), 1} {
		eng := khcore.NewEngine(g, w)
		var res khcore.Result
		var err error
		d := medianOf(tr, fmt.Sprintf("approx.DecomposeInto.w%d", w), func() {
			if e := eng.DecomposeInto(&res, opts); e != nil {
				err = e
				return
			}
			if first == nil {
				first = slices.Clone(res.Core)
			} else if !slices.Equal(first, res.Core) {
				r.mismatchf("approx runs with seed %d differ (workers=%d)", r.cfg.seed, w)
			}
		})
		eng.Close()
		if err != nil {
			return fmt.Errorf("approx probe: %w", err)
		}
		if w == nproc() {
			r.layer("approx.decompose_ms", "ms", d)
			st = res.Stats
		}
	}
	maxErr := 0
	for v, c := range first {
		maxErr = max(maxErr, abs(c-ref[v]))
	}
	r.layer("approx.max_abs_err", "count", float64(maxErr))
	r.layer("approx.error_bound", "count", float64(st.Approx.ErrorBound))
	r.layer("approx.samples_drawn", "count", float64(st.Approx.SamplesDrawn))
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// probeBounds times the one-shot bound helpers, then calls them again to
// count the h-BFS helper goroutines they leave running. It runs last in a
// traced run, so the helpers it leaves behind cannot disturb another
// probe. The bounds must bracket the exact cores: LB1, LB2 ≤ core ≤ UB ≤
// h-degree, and the UB must not depend on the worker count.
func probeBounds(r *run, tr *tracer, g *khcore.Graph, h int, ref []int) error {
	var hdeg, lb1, lb2, ub1, ubN []int32
	var err1, errN error
	r.layer("bounds.hdeg_ms", "ms", ms(tr.timed("core.HDegrees", func() {
		hdeg = khcore.HDegrees(g, h, nproc())
	})))
	r.layer("bounds.lb_ms", "ms", ms(tr.timed("core.LowerBounds", func() {
		lb1, lb2 = khcore.LowerBounds(g, h, nproc())
	})))
	r.layer("bounds.ub_ms.w1", "ms", ms(tr.timed("core.UpperBoundsCtx.w1", func() {
		ub1, err1 = khcore.UpperBoundsCtx(context.Background(), g, h, 1)
	})))
	r.layer("bounds.ub_ms.wN", "ms", ms(tr.timed(fmt.Sprintf("core.UpperBoundsCtx.w%d", nproc()), func() {
		ubN, errN = khcore.UpperBoundsCtx(context.Background(), g, h, nproc())
	})))
	if err1 != nil || errN != nil {
		return fmt.Errorf("upper bounds: %v, %v", err1, errN)
	}
	r.layer("bounds.leaked_goroutines", "count", float64(leakedHelpers(func() {
		khcore.HDegrees(g, h, nproc())
		khcore.LowerBounds(g, h, nproc())
		_, err1 = khcore.UpperBoundsCtx(context.Background(), g, h, 1)
		_, errN = khcore.UpperBoundsCtx(context.Background(), g, h, nproc())
	})))
	if err1 != nil || errN != nil {
		return fmt.Errorf("upper bounds: %v, %v", err1, errN)
	}
	if !slices.Equal(ub1, ubN) {
		r.mismatchf("Algorithm-5 upper bounds differ between 1 and %d workers", nproc())
	}
	for v, c := range ref {
		if int(lb1[v]) > c || int(lb2[v]) > c || int(ub1[v]) < c || ub1[v] > hdeg[v] {
			r.mismatchf("bounds do not bracket the core of vertex %d: lb1=%d lb2=%d core=%d ub=%d hdeg=%d",
				v, lb1[v], lb2[v], c, ub1[v], hdeg[v])
			break
		}
	}
	return nil
}

// helperFrame marks the stack of an h-BFS pool helper goroutine.
const helperFrame = "hbfs.helperLoop("

// leakedHelpers runs fn and returns how many h-BFS helper goroutines it
// started that are still running afterwards. Goroutine ids, not counts,
// are compared, so a goroutine that exits during fn cannot hide one that
// fn leaves behind. The collector is off while fn runs and is counted: a
// collection would run the finalizer that closes a dropped pool, and the
// count would depend on when it happened. Asynchronous exits (a closed
// pool's helpers leave after Close returns) are waited out before the
// baseline and before the count.
func leakedHelpers(fn func()) int {
	settleGoroutines()
	before := helperGoroutines()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	settleGoroutines()
	n := 0
	for id := range helperGoroutines() {
		if !before[id] {
			n++
		}
	}
	return n
}

// settleGoroutines waits, up to two seconds, until the goroutine count has
// not changed for five polls in a row.
func settleGoroutines() {
	const poll = 10 * time.Millisecond
	last, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(poll)
		if n := runtime.NumGoroutine(); n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
}

// helperGoroutines returns the ids of the live goroutines that are h-BFS
// pool helpers, read from the headers of a full runtime.Stack dump.
func helperGoroutines() map[int64]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[int64]bool{}
	for _, block := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(block, helperFrame) {
			continue
		}
		var id int64
		if _, err := fmt.Sscanf(block, "goroutine %d ", &id); err == nil {
			ids[id] = true
		}
	}
	return ids
}
