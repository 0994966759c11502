package core

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randGraph builds a deterministic pseudo-random graph from a seed.
func randGraph(seed int64, maxN, edgeFactor int) *graph.Graph {
	r := seed
	next := func(n int) int {
		r = r*6364136223846793005 + 1442695040888963407
		v := int(r % int64(n))
		if v < 0 {
			v = -v
		}
		return v
	}
	n := 5 + next(maxN)
	b := graph.NewBuilder(n)
	m := next(edgeFactor*n + 1)
	for i := 0; i < m; i++ {
		b.AddEdge(next(n), next(n))
	}
	return b.Build()
}

// TestPropertyMonotoneInH: the core index of every vertex is non-decreasing
// in h (a larger radius can only grow h-neighborhoods).
func TestPropertyMonotoneInH(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 30, 3)
		prev := NaiveDecompose(g, 1)
		for h := 2; h <= 4; h++ {
			cur := NaiveDecompose(g, h)
			for v := range cur {
				if cur[v] < prev[v] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEdgeAdditionMonotone: adding an edge never decreases any
// core index (h-neighborhoods only grow, distances only shrink).
func TestPropertyEdgeAdditionMonotone(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 20, 2)
		n := g.NumVertices()
		// Find a non-edge to add.
		var au, av int = -1, -1
		for u := 0; u < n && au < 0; u++ {
			for v := u + 1; v < n; v++ {
				if !g.HasEdge(u, v) {
					au, av = u, v
					break
				}
			}
		}
		if au < 0 {
			return true // complete graph
		}
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if u < int(v) {
					b.AddEdge(u, int(v))
				}
			}
		}
		b.AddEdge(au, av)
		g2 := b.Build()
		for h := 1; h <= 3; h++ {
			before := NaiveDecompose(g, h)
			after := NaiveDecompose(g2, h)
			for v := range before {
				if after[v] < before[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySubgraphCoreBounded: for any induced subgraph G[V'], the
// core index inside G[V'] never exceeds the core index in G (the
// ingredient of Property 3).
func TestPropertySubgraphCoreBounded(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 24, 3)
		n := g.NumVertices()
		r := seed ^ 0x5ee5
		keep := make([]int, 0, n)
		for v := 0; v < n; v++ {
			r = r*6364136223846793005 + 1442695040888963407
			if r%3 != 0 {
				keep = append(keep, v)
			}
		}
		if len(keep) < 2 {
			return true
		}
		sub, orig := g.InducedSubgraph(keep)
		for h := 1; h <= 3; h++ {
			whole := NaiveDecompose(g, h)
			inner := NaiveDecompose(sub, h)
			for i, ov := range orig {
				if inner[i] > whole[ov] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAllAlgorithmsValidated: the fast algorithms produce
// decompositions accepted by the independent verifier on random graphs.
func TestPropertyAllAlgorithmsValidated(t *testing.T) {
	forceParallel(t)
	check := func(seed int64) bool {
		g := randGraph(seed, 40, 3)
		for h := 1; h <= 3; h++ {
			for _, alg := range []Algorithm{HBZ, HLB, HLBUB} {
				res, err := Decompose(g, Options{H: h, Algorithm: alg, Workers: 2, AllowBaseline: true})
				if err != nil {
					return false
				}
				if Validate(g, h, res.Core) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCoreAtLeastWithinTopCore: every vertex of the innermost core
// C_k* has h-degree ≥ k* inside G[C_k*] — the defining property, checked
// through the fast algorithm rather than the verifier.
func TestPropertyCoreAtLeastWithinTopCore(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 40, 3)
		h := 2
		res, err := Decompose(g, Options{H: h, Workers: 1, Algorithm: HLBUB})
		if err != nil {
			return false
		}
		k := res.MaxCoreIndex()
		top := res.CoreVertices(k)
		sub, _ := g.InducedSubgraph(top)
		degs := HDegrees(sub, h, 1)
		for _, d := range degs {
			if int(d) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDistinctCoresCountsLevels: DistinctCores equals the number
// of distinct values in Core (sanity of the Table 2 metric).
func TestPropertyDistinctCoresCountsLevels(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 40, 3)
		res, err := Decompose(g, Options{H: 2, Workers: 1})
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, c := range res.Core {
			seen[c] = true
		}
		return res.DistinctCores() == len(seen)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIsolatedVerticesDoNotPerturb: adding isolated vertices
// changes nothing for existing vertices and assigns core 0 to the new ones.
func TestPropertyIsolatedVerticesDoNotPerturb(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 25, 3)
		n := g.NumVertices()
		b := graph.NewBuilder(n + 3) // three isolated tail vertices
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if u < int(v) {
					b.AddEdge(u, int(v))
				}
			}
		}
		g2 := b.Build()
		for h := 1; h <= 3; h++ {
			a, err := Decompose(g, Options{H: h, Workers: 1})
			if err != nil {
				return false
			}
			c, err := Decompose(g2, Options{H: h, Workers: 1})
			if err != nil {
				return false
			}
			for v := 0; v < n; v++ {
				if a.Core[v] != c.Core[v] {
					return false
				}
			}
			for v := n; v < n+3; v++ {
				if c.Core[v] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestUBMinMatchesBruteForce checks the ubMin propagation against its
// definition: for arbitrary per-vertex values on small random graphs and
// every h in 1..3, ubMin[v] must be the minimum value over the vertices
// within distance h of v (v included), found here by a plain BFS per
// vertex.
func TestUBMinMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 40, 2)
		n := g.NumVertices()
		ub := make([]int32, n)
		for v := range ub {
			ub[v] = int32((seed>>(v%32))&15) + int32(v%7)
		}
		e := NewEngine(g, 1)
		defer e.Close()
		dist := make([]int, n)
		for h := 1; h <= 3; h++ {
			e.beginRun(Options{H: h}.withDefaults())
			got := e.ubMinInto(ub)
			for src := 0; src < n; src++ {
				for i := range dist {
					dist[i] = -1
				}
				dist[src] = 0
				want := ub[src]
				for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
					u := queue[0]
					if ub[u] < want {
						want = ub[u]
					}
					if dist[u] == h {
						continue
					}
					for _, w := range g.Neighbors(u) {
						if dist[w] < 0 {
							dist[w] = dist[u] + 1
							queue = append(queue, int(w))
						}
					}
				}
				if got[src] != want {
					t.Logf("seed %d h=%d vertex %d: ubMin %d, brute force %d", seed, h, src, got[src], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
