package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/leakcheck"
)

// countdownCtx is a context.Context that reports itself canceled after its
// Err method has been polled n times. The engine's cooperative checks poll
// Err, so a countdown fires at a deterministic point in the middle of a
// run — no timing races, reproducible under -race and on any host speed.
// Done returns a non-nil (never-closed) channel so cancelState arms.
type countdownCtx struct {
	left atomic.Int64
	done chan struct{}
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// decomposeEqual asserts two core slices are bit-identical.
func decomposeEqual(t *testing.T, got, want []int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: core[%d] = %d, want %d", label, v, got[v], want[v])
		}
	}
}

// TestCancelMidPeelLeavesEngineReusable is the acceptance property of the
// cancellation redesign: cancel a run at many different depths, then run
// the same engine uncanceled and demand results bit-identical to a fresh
// engine's. Covers all three algorithms on the sequential path.
func TestCancelMidPeelLeavesEngineReusable(t *testing.T) {
	g := gen.BarabasiAlbert(250, 3, 99)
	algos := []struct {
		name string
		opts Options
	}{
		{"hlbub", Options{H: 2}},
		{"hlb", Options{H: 2, Algorithm: HLB}},
		{"hbz", Options{H: 2, Algorithm: HBZ, AllowBaseline: true}},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			want, err := Decompose(g, a.opts)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(g, 1)
			defer eng.Close()
			canceledAtLeastOnce := false
			for _, polls := range []int64{0, 1, 2, 5, 20, 100} {
				ctx := newCountdown(polls)
				var res Result
				err := eng.DecomposeIntoCtx(ctx, &res, a.opts)
				if err != nil {
					if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
						t.Fatalf("polls=%d: wrong error %v", polls, err)
					}
					canceledAtLeastOnce = true
				} else {
					// The countdown outlived the run — fine, but then the
					// result must already be correct.
					decomposeEqual(t, res.Core, want.Core, "uncanceled run")
				}
				// Either way the engine must be fully reusable.
				var after Result
				if err := eng.DecomposeInto(&after, a.opts); err != nil {
					t.Fatalf("polls=%d: post-cancel run failed: %v", polls, err)
				}
				decomposeEqual(t, after.Core, want.Core, "post-cancel run")
			}
			if !canceledAtLeastOnce {
				t.Fatal("no countdown fired mid-run; widen the poll range")
			}
		})
	}
}

// TestCancelMidPeelParallel exercises the same property on the concurrent
// h-LB+UB path: the partition work queue and every interval solver poll
// the broadcast, and a canceled fan-out must drain the pool workers and
// leave the multi-worker engine reusable. Run under -race in CI.
func TestCancelMidPeelParallel(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(400, 3, 41)
	want, err := Decompose(g, Options{H: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, 4)
	defer eng.Close()
	canceledAtLeastOnce := false
	for _, polls := range []int64{0, 1, 3, 10, 50, 300} {
		ctx := newCountdown(polls)
		var res Result
		err := eng.DecomposeIntoCtx(ctx, &res, Options{H: 2})
		if err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("polls=%d: wrong error %v", polls, err)
			}
			canceledAtLeastOnce = true
		} else {
			decomposeEqual(t, res.Core, want.Core, "uncanceled parallel run")
		}
		var after Result
		if err := eng.DecomposeInto(&after, Options{H: 2}); err != nil {
			t.Fatalf("polls=%d: post-cancel run failed: %v", polls, err)
		}
		decomposeEqual(t, after.Core, want.Core, "post-cancel parallel run")
	}
	if !canceledAtLeastOnce {
		t.Fatal("no countdown fired mid-run; widen the poll range")
	}
}

// TestCancelSpectrumAndValidate covers the remaining ctx surfaces.
func TestCancelSpectrumAndValidate(t *testing.T) {
	g := gen.ErdosRenyi(120, 360, 5)
	if _, err := DecomposeSpectrumCtx(newCountdown(3), g, 3, Options{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("spectrum: %v", err)
	}
	res, err := Decompose(g, Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCtx(newCountdown(0), g, 2, res.Core); !errors.Is(err, ErrCanceled) {
		t.Errorf("validate pre-canceled: %v", err)
	}
	if err := ValidateCtx(context.Background(), g, 2, res.Core); err != nil {
		t.Errorf("validate happy path: %v", err)
	}
}

// TestCancelMaintainer checks the staleness recovery: a canceled update
// leaves the maintainer able to produce exact indices on the next
// successful update, even in the opposite direction (where the stale
// carried bounds would be unsound as seeds).
func TestCancelMaintainer(t *testing.T) {
	g := gen.ErdosRenyi(80, 200, 9)
	m, err := NewMaintainer(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a vertex pair with no edge yet, so the insert reaches the
	// decomposition rather than failing the duplicate check.
	u, v := nonEdge(t, m)
	// Cancel an insert mid-decomposition.
	err = m.InsertEdgeCtx(newCountdown(2), u, v)
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("wrong error: %v", err)
	}
	// Opposite-direction update must still come out exact.
	if err := m.DeleteEdge(u, v); err != nil {
		// The insert's edge bookkeeping survived the cancellation, so the
		// delete must find the edge.
		t.Fatalf("delete after canceled insert: %v", err)
	}
	want, err := Decompose(m.Graph(), Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "maintainer after canceled update")
}

// TestCancelNewMaintainerReleasesPool pins that a constructor whose
// initial decomposition is canceled closes the engine it built: the
// caller never receives a Maintainer to Close, so any h-BFS helper left
// parked would leak.
func TestCancelNewMaintainerReleasesPool(t *testing.T) {
	leakcheck.Check(t)
	g := gen.ErdosRenyi(200, 600, 9)
	m, err := NewMaintainerCtx(newCountdown(3), g, 2, Options{Workers: 2})
	if !errors.Is(err, ErrCanceled) || m != nil {
		t.Fatalf("got maintainer %v, error %v; want nil, ErrCanceled", m, err)
	}
}

// TestCancelMaintainerRetryAndRefresh pins the two recovery paths from a
// canceled update whose edge mutation already committed: retrying the
// same update completes the owed re-decomposition instead of failing the
// duplicate check, and Refresh restores exactness without any mutation.
func TestCancelMaintainerRetryAndRefresh(t *testing.T) {
	g := gen.ErdosRenyi(80, 200, 9)
	check := func(m *Maintainer, label string) {
		t.Helper()
		if m.Stale() {
			t.Fatalf("%s: still stale", label)
		}
		want, err := Decompose(m.Graph(), Options{H: 2})
		if err != nil {
			t.Fatal(err)
		}
		decomposeEqual(t, m.Core(), want.Core, label)
	}

	m, err := NewMaintainer(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, v := nonEdge(t, m)
	if err := m.InsertEdgeCtx(newCountdown(0), u, v); !errors.Is(err, ErrCanceled) {
		t.Fatalf("insert was not canceled: %v", err)
	}
	if !m.Stale() {
		t.Fatal("canceled insert did not mark the maintainer stale")
	}
	// While stale, only a retry of the *interrupted* edge completes the
	// pending update: a genuinely duplicate insert of another, pre-existing
	// edge must still error.
	var eu, ev int
	{
		g := m.Graph()
		found := false
		for a := 0; a < g.NumVertices() && !found; a++ {
			for _, b := range g.Neighbors(a) {
				if a != u || int(b) != v {
					eu, ev, found = a, int(b), true
					break
				}
			}
		}
		if !found {
			t.Fatal("graph has no other edge")
		}
	}
	if err := m.InsertEdge(eu, ev); err == nil {
		t.Fatal("stale maintainer accepted a duplicate insert of an unrelated edge")
	}
	// Retrying the identical insert must finish the pending update.
	if err := m.InsertEdgeCtx(context.Background(), u, v); err != nil {
		t.Fatalf("retry after canceled insert: %v", err)
	}
	check(m, "after insert retry")

	// Same through Refresh, for a canceled delete.
	if err := m.DeleteEdgeCtx(newCountdown(0), u, v); !errors.Is(err, ErrCanceled) {
		t.Fatalf("delete was not canceled: %v", err)
	}
	if err := m.Refresh(context.Background()); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	check(m, "after refresh")
	// A duplicate insert on a non-stale maintainer still errors.
	u2, v2 := nonEdge(t, m)
	if err := m.InsertEdge(u2, v2); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertEdge(u2, v2); err == nil {
		t.Fatal("duplicate insert accepted on a non-stale maintainer")
	}
}

// nonEdge returns a vertex pair of the maintainer's graph with no edge
// between them.
func nonEdge(t *testing.T, m *Maintainer) (int, int) {
	t.Helper()
	g := m.Graph()
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		adjacent := make(map[int]bool, len(g.Neighbors(u)))
		for _, w := range g.Neighbors(u) {
			adjacent[int(w)] = true
		}
		for v := u + 1; v < n; v++ {
			if !adjacent[v] {
				return u, v
			}
		}
	}
	t.Fatal("complete graph: no non-edge available")
	return -1, -1
}
