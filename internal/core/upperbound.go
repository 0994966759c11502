package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// upperBoundsInto implements Algorithm 5: an upper bound on every core
// index obtained by peeling the power graph G^h implicitly, without ever
// materializing it. The h-neighborhood of a popped vertex is re-computed in
// the *original* graph each time (Algorithm 5 never shrinks V — that is
// exactly what makes its result the classic core decomposition of G^h),
// and the approximate h-degree (UBdeg) of each neighbor still in the queue
// is decremented by exactly 1 — an optimistic update, since the true
// h-degree can drop by more — so the level at which a vertex is popped
// upper-bounds its (k,h)-core index. degH supplies the initial h-degrees.
// The result lands in (and aliases) the engine's ub scratch; the
// sequential solver's bucket queue is borrowed and left empty.
//
// The peel is serial at every worker count: a level-synchronous parallel
// variant (one bucket per round, its h-balls fanned across the pool) lost
// to this loop at two workers on both a road grid and a skewed graph.
func (e *Engine) upperBoundsInto(degH []int32) []int32 {
	n := e.g.NumVertices()
	e.ub = growInt32(e.ub, n)
	ub := e.ub
	if e.opts.UpperBound == HDegreeUB {
		// Ablation baseline (Table 5, "h-degree" column): the raw
		// h-degree is itself an upper bound on the core index.
		copy(ub, degH)
		return ub
	}
	e.powerPeelSerial(ub, e.ubdeg, e.powerPeelInit(degH), nil)
	return ub
}

// powerPeelInit sizes the engine's ub/ubdeg scratch from degH and seeds
// the borrowed sequential bucket queue with every vertex at its
// approximate h-degree (Algorithm 5 lines 1–2), returning the queue.
func (e *Engine) powerPeelInit(degH []int32) *bucketQueue {
	n := e.g.NumVertices()
	e.ub = growInt32(e.ub, n)
	e.ubdeg = growInt32(e.ubdeg, n)
	copy(e.ubdeg, degH)
	q := e.sv[0].q
	q.Clear()
	for v := 0; v < n; v++ {
		q.insert(v, int(e.ubdeg[v]))
	}
	return q
}

// powerPeelSerial is the Algorithm-5 loop body, shared by the upper-bound
// path and PowerPeelingOrder: pop the minimum
// vertex, settle its bound at the running level, and decrement the
// approximate h-degree of every still-queued vertex in its h-ball. When
// order is non-nil, every settled vertex is appended to it — the
// degeneracy ordering of G^h — and the grown slice is returned. The
// cancellation broadcast is polled on the usual amortized schedule.
//
//khcore:hotpath
//khcore:peel
func (e *Engine) powerPeelSerial(ub, ubdeg []int32, q *bucketQueue, order []int) []int {
	t := e.trav()
	k := 0
	ops := 0
	for q.Len() > 0 {
		if ops++; ops&cancelCheckMask == 0 && e.cancel.stop() {
			break // Algorithm 5 is the serial prefix; cancel it promptly too
		}
		v, kv := q.PopMin(k)
		if v < 0 {
			break
		}
		if kv > k {
			k = kv
		}
		ub[v] = int32(k)
		if order != nil {
			order = append(order, v)
		}
		// Algorithm 5 peels over the full vertex set, so no alive mask;
		// the ball is consumed before the next pop reuses the scratch.
		verts, _ := t.Ball(v, e.h, nil)
		for _, nb := range verts {
			u := int(nb)
			if !q.Contains(u) {
				continue
			}
			ubdeg[u]--
			e.stats.Decrements++
			nk := int(ubdeg[u])
			if nk < k {
				nk = k
			}
			q.move(u, nk)
		}
	}
	return order
}

// UpperBounds exposes Algorithm 5 for analysis (Table 4): the core-index
// upper bound of every vertex. workers ≤ 0 selects NumCPU, h = 0 selects
// the default distance threshold 2 (matching Options.withDefaults, as
// this helper always did). A nil graph — or a negative h — yields an
// empty slice; UpperBoundsCtx reports those as typed errors instead.
func UpperBounds(g *graph.Graph, h, workers int) []int32 {
	if h == 0 {
		h = 2
	}
	out, err := UpperBoundsCtx(context.Background(), g, h, workers)
	if err != nil {
		return []int32{}
	}
	return out
}

// UpperBoundsCtx is UpperBounds with cooperative cancellation and the
// typed-error contract: ErrNilGraph for a nil graph, ErrInvalidH for
// h < 1, and an ErrCanceled wrap when ctx cancels the implicit power-graph
// peel (whose O(n) h-BFS runs make this the expensive analysis helper).
func UpperBoundsCtx(ctx context.Context, g *graph.Graph, h, workers int) ([]int32, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: UpperBounds", ErrNilGraph)
	}
	if h < 1 {
		return nil, fmt.Errorf("%w: h=%d (need h ≥ 1)", ErrInvalidH, h)
	}
	e := NewEngine(g, workers)
	defer e.Close()
	e.cancel.bindRun(ctx)
	if e.cancel.stop() {
		return nil, CanceledError(ctx)
	}
	e.beginRun(Options{H: h}.withDefaults())
	e.degH = growInt32(e.degH, g.NumVertices())
	e.pool.HDegrees(e.allVerts(), e.h, e.alive0(), e.degH)
	out := make([]int32, g.NumVertices())
	copy(out, e.upperBoundsInto(e.degH))
	if e.cancel.stop() {
		return nil, CanceledError(ctx)
	}
	return out, nil
}

// PowerPeelingOrder runs Algorithm 5 and returns the order in which the
// implicit power-graph peeling removes the vertices — a degeneracy
// ordering of G^h — together with the per-vertex upper bounds. Coloring
// greedily in the reverse of this order uses at most 1 + max(ub) colors
// (the Szekeres–Wilf bound on G^h); see the chromatic package. h = 0
// selects the default distance threshold 2; a nil graph or negative h
// yields empty results — PowerPeelingOrderCtx reports those as typed
// errors instead.
func PowerPeelingOrder(g *graph.Graph, h, workers int) (order []int, ub []int32) {
	if h == 0 {
		h = 2
	}
	order, ub, err := PowerPeelingOrderCtx(context.Background(), g, h, workers)
	if err != nil {
		return []int{}, []int32{}
	}
	return order, ub
}

// PowerPeelingOrderCtx is PowerPeelingOrder with cooperative cancellation
// and the typed-error contract (ErrNilGraph, ErrInvalidH for h < 1, an
// ErrCanceled wrap when ctx fires mid-peel). It shares powerPeelSerial
// (with its decrement accounting and amortized cancellation polls) with
// the upper-bound path; the peeling order is that loop's pop order.
func PowerPeelingOrderCtx(ctx context.Context, g *graph.Graph, h, workers int) ([]int, []int32, error) {
	if g == nil {
		return nil, nil, fmt.Errorf("%w: PowerPeelingOrder", ErrNilGraph)
	}
	if h < 1 {
		return nil, nil, fmt.Errorf("%w: h=%d (need h ≥ 1)", ErrInvalidH, h)
	}
	e := NewEngine(g, workers)
	defer e.Close()
	e.cancel.bindRun(ctx)
	if e.cancel.stop() {
		return nil, nil, CanceledError(ctx)
	}
	e.beginRun(Options{H: h}.withDefaults())
	n := g.NumVertices()
	e.degH = growInt32(e.degH, n)
	e.pool.HDegrees(e.allVerts(), e.h, e.alive0(), e.degH)
	if e.cancel.stop() {
		return nil, nil, CanceledError(ctx)
	}
	q := e.powerPeelInit(e.degH)
	order := e.powerPeelSerial(e.ub, e.ubdeg, q, make([]int, 0, n))
	if e.cancel.stop() {
		return nil, nil, CanceledError(ctx)
	}
	ub := make([]int32, n)
	copy(ub, e.ub)
	return order, ub, nil
}
