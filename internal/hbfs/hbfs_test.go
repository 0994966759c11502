package hbfs

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/vset"
)

// pathGraph returns P_n.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

func TestHDegreeOnPath(t *testing.T) {
	g := pathGraph(7)
	tr := NewTraversal(g)
	// On P7 from the middle, deg^h grows by 2 per hop until the ends.
	cases := []struct{ src, h, want int }{
		{3, 1, 2}, {3, 2, 4}, {3, 3, 6}, {3, 6, 6},
		{0, 1, 1}, {0, 3, 3}, {0, 6, 6},
	}
	for _, c := range cases {
		if got := tr.HDegree(c.src, c.h, nil); got != c.want {
			t.Errorf("deg^%d(%d) = %d, want %d", c.h, c.src, got, c.want)
		}
	}
}

func TestAliveMaskRestrictsPaths(t *testing.T) {
	// 0-1-2 and 0-3-4-5-2: with 1 dead, d(0,2) becomes 4.
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 5}, {5, 2}})
	tr := NewTraversal(g)
	alive := vset.New(6)
	alive.Fill()
	alive.Remove(1)
	if got := tr.HDegree(0, 2, alive); got != 2 { // {3,4}
		t.Fatalf("deg²(0) with 1 dead = %d, want 2", got)
	}
	found := false
	tr.Visit(0, 4, alive, func(u int32, d int32) {
		if u == 2 {
			found = true
			if d != 4 {
				t.Fatalf("d(0,2) with 1 dead = %d, want 4", d)
			}
		}
	})
	if !found {
		t.Fatal("vertex 2 not reached at h=4")
	}
	// Dead source yields nothing.
	if got := tr.HDegree(1, 3, alive); got != 0 {
		t.Fatalf("dead source h-degree = %d, want 0", got)
	}
}

func TestVisitDistancesMatchBFS(t *testing.T) {
	g := graph.FromEdges(8, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}})
	tr := NewTraversal(g)
	for src := 0; src < 8; src++ {
		want := g.BFSDistances(src)
		for h := 1; h <= 4; h++ {
			got := map[int32]int32{}
			tr.Visit(src, h, nil, func(u, d int32) { got[u] = d })
			for v := int32(0); v < 8; v++ {
				inRange := v != int32(src) && want[v] > 0 && int(want[v]) <= h
				d, ok := got[v]
				if inRange != ok {
					t.Fatalf("src=%d h=%d v=%d: reported=%v, want %v", src, h, v, ok, inRange)
				}
				if ok && d != want[v] {
					t.Fatalf("src=%d h=%d v=%d: d=%d, want %d", src, h, v, d, want[v])
				}
			}
		}
	}
}

func TestVisitCountingAndReset(t *testing.T) {
	g := pathGraph(10)
	tr := NewTraversal(g)
	tr.HDegree(0, 3, nil)
	// Dequeues source + 3 reached vertices.
	if tr.Visits() != 4 {
		t.Fatalf("visits = %d, want 4", tr.Visits())
	}
	tr.ResetVisits()
	if tr.Visits() != 0 {
		t.Fatal("ResetVisits failed")
	}
	tr.AddVisits(7)
	if tr.Visits() != 7 {
		t.Fatal("AddVisits failed")
	}
}

func TestRepeatedSearchesStaySound(t *testing.T) {
	// Successive searches reuse the epoch-cleared seen set; results must
	// not bleed between runs.
	g := pathGraph(4)
	tr := NewTraversal(g)
	for i := 0; i < 8; i++ {
		if got := tr.HDegree(1, 2, nil); got != 3 {
			t.Fatalf("iteration %d: deg²(1) = %d, want 3", i, got)
		}
	}
}

func TestTraversalReset(t *testing.T) {
	tr := NewTraversal(pathGraph(4))
	if got := tr.HDegree(0, 1, nil); got != 1 {
		t.Fatalf("deg¹(0) on P4 = %d, want 1", got)
	}
	// Re-bind to a larger graph: scratch must grow and results be exact.
	tr.Reset(pathGraph(100))
	if got := tr.HDegree(50, 2, nil); got != 4 {
		t.Fatalf("after Reset: deg²(50) on P100 = %d, want 4", got)
	}
	// Shrinking reuses capacity.
	tr.Reset(pathGraph(3))
	if got := tr.HDegree(1, 1, nil); got != 2 {
		t.Fatalf("after shrink: deg¹(1) on P3 = %d, want 2", got)
	}
}

func TestNeighborhoodBufferReuse(t *testing.T) {
	g := pathGraph(9)
	tr := NewTraversal(g)
	buf := make([]VD, 0, 16)
	nb := tr.Neighborhood(4, 2, nil, buf)
	if len(nb) != 4 {
		t.Fatalf("|N(4,2)| = %d, want 4", len(nb))
	}
	nb2 := tr.Neighborhood(0, 1, nil, nb)
	if len(nb2) != 1 || nb2[0].V != 1 || nb2[0].D != 1 {
		t.Fatalf("reused buffer wrong: %v", nb2)
	}
}

func TestInvalidInputs(t *testing.T) {
	g := pathGraph(5)
	tr := NewTraversal(g)
	if tr.HDegree(-1, 2, nil) != 0 || tr.HDegree(99, 2, nil) != 0 {
		t.Fatal("out-of-range source not rejected")
	}
	if tr.HDegree(0, 0, nil) != 0 {
		t.Fatal("h=0 must yield 0")
	}
}

// TestPoolMatchesSequential is a property test: parallel batch h-degrees
// equal sequential ones on random graphs.
func TestPoolMatchesSequential(t *testing.T) {
	check := func(seed int64) bool {
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			v := int(r % int64(n))
			if v < 0 {
				v = -v
			}
			return v
		}
		n := 70 + next(80)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(next(n), next(n))
		}
		g := b.Build()
		alive := vset.New(n)
		for v := 0; v < n; v++ {
			if next(5) > 0 { // ~80% alive
				alive.Add(v)
			}
		}
		h := 1 + next(3)
		pool := NewPool(g, 4)
		defer pool.Close()
		verts := alive.AppendMembers(make([]int32, 0, n))
		par := make([]int32, n)
		pool.HDegrees(verts, h, alive, par)
		seq := NewTraversal(g)
		for _, v := range verts {
			if int(par[v]) != seq.HDegree(int(v), h, alive) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolVisitAccounting(t *testing.T) {
	g := pathGraph(50)
	pool := NewPool(g, 3)
	if pool.Workers() != 3 {
		t.Fatalf("Workers = %d", pool.Workers())
	}
	out := pool.HDegreesAll(2, nil)
	if len(out) != 50 {
		t.Fatal("HDegreesAll wrong length")
	}
	// Interior vertices have deg² = 4.
	if out[25] != 4 {
		t.Fatalf("deg²(25) = %d, want 4", out[25])
	}
	if pool.Visits() == 0 {
		t.Fatal("pool recorded no visits")
	}
	pool.ResetVisits()
	if pool.Visits() != 0 {
		t.Fatal("ResetVisits failed")
	}
	// Default worker count.
	if NewPool(g, 0).Workers() < 1 {
		t.Fatal("default pool empty")
	}
}

// TestPoolRunOncePerWorker pins Run's contract: every worker index runs
// exactly once per fan-out, each with its own dedicated traversal — even
// when a fast helper loops back to the wake channel while other wake-ups
// are still pending (the index travels through the channel, so a helper
// can never re-claim its own slot).
func TestPoolRunOncePerWorker(t *testing.T) {
	g := pathGraph(8)
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(g, workers)
		for round := 0; round < 20; round++ {
			var calls [8]atomic.Int32
			var travs [8]atomic.Pointer[Traversal]
			p.Run(func(w int, tr *Traversal) {
				calls[w].Add(1)
				travs[w].Store(tr)
			})
			for w := 0; w < workers; w++ {
				if got := calls[w].Load(); got != 1 {
					t.Fatalf("workers=%d round=%d: worker %d ran %d times, want 1", workers, round, w, got)
				}
				if travs[w].Load() != p.Traversal(w) {
					t.Fatalf("workers=%d round=%d: worker %d got a foreign traversal", workers, round, w)
				}
			}
			for w := workers; w < 8; w++ {
				if calls[w].Load() != 0 {
					t.Fatalf("workers=%d: phantom worker %d invoked", workers, w)
				}
			}
		}
		p.Close()
	}
}
