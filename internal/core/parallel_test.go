package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// forceParallel raises GOMAXPROCS to at least 2 for the rest of the test,
// so a multi-worker engine drains its intervals with more than one solver
// — and the settled-vertex broadcast sees concurrent publishes — even on
// a single-core machine, where the engine would otherwise run one solver.
// GOMAXPROCS is process-wide, so callers must not call t.Parallel.
func forceParallel(t *testing.T) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestParallelUpperBoundBitIdentical pins that the Algorithm-5 bounds do
// not depend on the engine's worker count: for randomized graphs, every h
// in 1..3 and several worker counts, the upper bounds must be
// bit-identical to a single-worker engine's — the peel is exact (it IS
// the core decomposition of G^h), and only the h-degree batch that seeds
// it is spread over the pool.
func TestParallelUpperBoundBitIdentical(t *testing.T) {
	check := func(seed int64) bool {
		g := randGraph(seed, 60, 3)
		for h := 1; h <= 3; h++ {
			want := UpperBounds(g, h, 1) // single-worker engine: serial peel
			for _, workers := range []int{2, 3, 8} {
				got := UpperBounds(g, h, workers)
				if len(got) != len(want) {
					t.Logf("seed %d h=%d workers=%d: %d bounds, want %d", seed, h, workers, len(got), len(want))
					return false
				}
				for v := range want {
					if got[v] != want[v] {
						t.Logf("seed %d h=%d workers=%d: vertex %d: parallel UB %d, serial %d",
							seed, h, workers, v, got[v], want[v])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// hlbubAgreesAcrossWorkers decomposes g at h with 1, 2 and 8 workers and
// reports whether the single-worker result passes the independent verifier
// and the multi-worker results are bit-identical to it.
func hlbubAgreesAcrossWorkers(t *testing.T, g *graph.Graph, h int, label string) bool {
	t.Helper()
	var want []int
	for _, workers := range []int{1, 2, 8} {
		res, err := Decompose(g, Options{H: h, Algorithm: HLBUB, Workers: workers})
		if err != nil {
			t.Logf("%s h=%d workers=%d: %v", label, h, workers, err)
			return false
		}
		if workers == 1 {
			want = res.Core
			if err := Validate(g, h, want); err != nil {
				t.Logf("%s h=%d: sequential result invalid: %v", label, h, err)
				return false
			}
			continue
		}
		for v := range want {
			if res.Core[v] != want[v] {
				t.Logf("%s h=%d workers=%d: vertex %d: parallel core %d, sequential %d",
					label, h, workers, v, res.Core[v], want[v])
				return false
			}
		}
	}
	return true
}

// cavemanGraph builds nBlocks disjoint dense blocks (cliques with a drop
// fraction of their edges removed) of minSize..maxSize vertices, joined
// into one component by a ring of single bridge edges.
func cavemanGraph(nBlocks, minSize, maxSize int, drop float64, seed uint64) *graph.Graph {
	r := gen.NewRNG(seed)
	b := graph.NewBuilder(0)
	starts := []int{0}
	for i := 0; i < nBlocks; i++ {
		v := starts[i]
		size := minSize + r.Intn(maxSize-minSize+1)
		for x := v; x < v+size; x++ {
			for y := x + 1; y < v+size; y++ {
				if r.Float64() >= drop {
					b.AddEdge(x, y)
				}
			}
		}
		starts = append(starts, v+size)
	}
	for i := 0; i < nBlocks; i++ {
		j := (i + 1) % nBlocks
		b.AddEdge(starts[i]+r.Intn(starts[i+1]-starts[i]), starts[j]+r.Intn(starts[j+1]-starts[j]))
	}
	return b.Build()
}

// concentratedSpectrumGraphs are inputs whose upper bounds cluster in a
// narrow band, so V[kmin] is most of V for every partition and ImproveLB
// takes most h-degrees from the phase-1 counts instead of recounting.
func concentratedSpectrumGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadGrid(20, 20, 0.1, 0.05, 3)},
		{"caveman", cavemanGraph(8, 10, 16, 0.3, 5)},
	}
}

// TestParallelHLBUBEquivalenceProperty is the solver-count equivalence
// guarantee: for randomized graphs, every h in 1..3 and every worker count
// — and for the concentrated-spectrum inputs at h = 2 and 3 — the
// concurrent interval solvers must produce core indices bit-identical to
// a single-worker engine's (which itself is checked against the
// independent verifier). Run under -race in CI, this also exercises the
// solver-arena isolation: any shared mutable state between two interval
// solvers shows up as a detected race.
func TestParallelHLBUBEquivalenceProperty(t *testing.T) {
	forceParallel(t)
	check := func(seed int64) bool {
		g := randGraph(seed, 60, 3)
		for h := 1; h <= 3; h++ {
			if !hlbubAgreesAcrossWorkers(t, g, h, fmt.Sprintf("seed %d", seed)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	for _, in := range concentratedSpectrumGraphs() {
		for h := 2; h <= 3; h++ {
			if !hlbubAgreesAcrossWorkers(t, in.g, h, in.name) {
				t.Fatalf("%s h=%d: worker counts disagree", in.name, h)
			}
		}
	}
}

// TestParallelSingleCPUMatchesOneWorker pins the solver-count selection:
// with one schedulable CPU a 2-worker engine must run exactly the
// one-solver schedule, so its work counters — not just its core indices —
// equal a 1-worker engine's on the concentrated-spectrum inputs.
func TestParallelSingleCPUMatchesOneWorker(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	for _, in := range concentratedSpectrumGraphs() {
		for h := 2; h <= 3; h++ {
			var stats [2]Stats
			for i, workers := range []int{1, 2} {
				e := NewEngine(in.g, workers)
				res, err := e.Decompose(Options{H: h})
				e.Close()
				if err != nil {
					t.Fatal(err)
				}
				if e.parSolvers != 1 {
					t.Errorf("%s h=%d workers=%d: %d interval solvers under GOMAXPROCS=1, want 1",
						in.name, h, workers, e.parSolvers)
				}
				stats[i] = res.Stats
			}
			one, two := stats[0], stats[1]
			if one.Visits != two.Visits || one.HDegreeComputations != two.HDegreeComputations ||
				one.Decrements != two.Decrements || one.Partitions != two.Partitions {
				t.Errorf("%s h=%d: 2 workers under GOMAXPROCS=1 did visits/hdeg/decrements/partitions %d/%d/%d/%d, 1 worker %d/%d/%d/%d",
					in.name, h, two.Visits, two.HDegreeComputations, two.Decrements, two.Partitions,
					one.Visits, one.HDegreeComputations, one.Decrements, one.Partitions)
			}
		}
	}
}

// TestUBSettleAgreesWithOracle pins coreDecomp's upper-bound settle (a
// flagged vertex popped at a level k ≥ kmin with ub ≤ k settles at k with
// no recount) against the naive oracle. Each input runs three ways at one
// and two workers: plain; with the seed upper bound equal to the oracle
// cores, so every bound is tight and the rule fires on every flagged pop
// at or above kmin; and with the seed bound one above the oracle, so it
// fires only where Algorithm 5 was already tight. An unsound settle
// (settling a vertex whose core exceeds the frontier) shows up as a core
// index below the oracle's.
func TestUBSettleAgreesWithOracle(t *testing.T) {
	forceParallel(t)
	inputs := append(concentratedSpectrumGraphs(), []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(120, 3, 9)},
		{"er", gen.ErdosRenyi(100, 300, 13)},
	}...)
	for _, in := range inputs {
		n := in.g.NumVertices()
		for h := 1; h <= 3; h++ {
			want := NaiveDecompose(in.g, h)
			tight := make([]int32, n)
			loose := make([]int32, n)
			for v, c := range want {
				tight[v] = int32(c)
				loose[v] = int32(c) + 1
			}
			for _, workers := range []int{1, 2} {
				e := NewEngine(in.g, workers)
				for _, seed := range []struct {
					name string
					ub   []int32
				}{{"plain", nil}, {"tight", tight}, {"tight+1", loose}} {
					e.seedUB = seed.ub
					got, err := e.Decompose(Options{H: h, Algorithm: HLBUB})
					if err != nil {
						e.Close()
						t.Fatal(err)
					}
					equalCores(t, fmt.Sprintf("%s h=%d workers=%d seedUB=%s", in.name, h, workers, seed.name), got, want)
				}
				e.Close()
			}
		}
	}
}

// TestImproveLBReusesPhaseOneDegrees pins that the h-degree reuse engages
// where it should: on the concentrated-spectrum inputs, most partition
// members across the planned intervals have their whole h-ball inside
// V[kmin] (ubMin ≥ kmin), so ImproveLB recounts only a minority.
func TestImproveLBReusesPhaseOneDegrees(t *testing.T) {
	for _, in := range concentratedSpectrumGraphs() {
		for h := 2; h <= 3; h++ {
			e := NewEngine(in.g, 1)
			e.beginRun(Options{H: h}.withDefaults())
			n := in.g.NumVertices()
			e.degH = growInt32(e.degH, n)
			e.pool.HDegrees(e.allVerts(), h, e.alive0(), e.degH)
			lb2 := e.lb2Into(e.lb1Into())
			ub := e.upperBoundsInto(e.degH)
			e.planIntervals(ub, lb2, 1)
			ubMin := e.ubMinInto(ub)
			var members, reused int
			for _, iv := range e.intervals {
				for v := 0; v < n; v++ {
					if int(ub[v]) < iv.kmin {
						continue
					}
					members++
					if int(ubMin[v]) >= iv.kmin {
						reused++
					}
				}
			}
			e.Close()
			t.Logf("%s h=%d: %d intervals, %d of %d ImproveLB sources reused", in.name, h, len(e.intervals), reused, members)
			if 2*reused <= members {
				t.Errorf("%s h=%d: only %d of %d ImproveLB sources reuse the phase-1 h-degree", in.name, h, reused, members)
			}
		}
	}
}

// TestParallelHLBUBEngineReuse reruns parallel decompositions through one
// multi-worker engine across changing h and partition widths, interleaved
// with sequential algorithms, so stale per-solver arena state from a
// previous run would surface as drift.
func TestParallelHLBUBEngineReuse(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(300, 4, 5)
	eng := NewEngine(g, 4)
	defer eng.Close()
	for round := 0; round < 3; round++ {
		for h := 1; h <= 3; h++ {
			for _, ps := range []int{0, 1, 5} {
				opts := Options{H: h, Algorithm: HLBUB, PartitionSize: ps}
				want, err := Decompose(g, Options{H: h, Algorithm: HLBUB, PartitionSize: ps, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Decompose(opts)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want.Core {
					if got.Core[v] != want.Core[v] {
						t.Fatalf("round %d h=%d S=%d vertex %d: engine %d, want %d",
							round, h, ps, v, got.Core[v], want.Core[v])
					}
				}
			}
			// Interleave a sequential algorithm through the same engine: it
			// shares solver 0 with the parallel path.
			if _, err := eng.Decompose(Options{H: h, Algorithm: HLB}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelSolverArenaZeroAllocs pins the steady-state allocation rate
// of the parallel h-LB+UB path to zero: after a warm-up run has sized
// every per-worker solver arena, repeated DecomposeInto calls through a
// multi-worker engine must not allocate — the interval work queue, the
// solver arenas and the Pool.Run fan-out are all reused.
func TestParallelSolverArenaZeroAllocs(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(400, 3, 41)
	for _, workers := range []int{2, 4} {
		eng := NewEngine(g, workers)
		opts := Options{H: 2, Algorithm: HLBUB}
		var res Result
		if err := eng.DecomposeInto(&res, opts); err != nil { // warm-up sizes all arenas
			eng.Close()
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := eng.DecomposeInto(&res, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("workers=%d: warm parallel engine allocates %.1f objects/op, want 0", workers, allocs)
		}
		eng.Close()
	}
}

// TestBaselineGate pins the h-BZ serving-path gate: selecting the baseline
// without the explicit opt-in is an error, with it the run succeeds, and
// the error names the remedy.
func TestBaselineGate(t *testing.T) {
	g := gen.Path(6)
	if _, err := Decompose(g, Options{H: 2, Algorithm: HBZ}); err == nil {
		t.Fatal("h-BZ ran without AllowBaseline")
	} else if want := "AllowBaseline"; !strings.Contains(err.Error(), want) {
		t.Fatalf("gate error %q does not mention %q", err, want)
	}
	res, err := Decompose(g, Options{H: 2, Algorithm: HBZ, AllowBaseline: true})
	if err != nil {
		t.Fatalf("h-BZ with AllowBaseline: %v", err)
	}
	if err := Validate(g, 2, res.Core); err != nil {
		t.Fatal(err)
	}
	// The default (zero-value) algorithm is HLBUB, not the baseline.
	if Algorithm(0) != HLBUB {
		t.Fatal("zero-value Algorithm is not HLBUB")
	}
}

// TestAdaptivePartitionPlanBalancesMass checks the UB-histogram planner:
// on a skewed graph the adaptive split must cover the full value range
// with contiguous intervals, and no interval may carry more than double an
// equal share of the vertex mass plus one value's worth (a single distinct
// value is indivisible).
func TestAdaptivePartitionPlanBalancesMass(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 77)
	e := NewEngine(g, 4)
	defer e.Close()
	e.beginRun(Options{H: 2}.withDefaults())
	n := g.NumVertices()
	e.degH = growInt32(e.degH, n)
	e.pool.HDegrees(e.allVerts(), 2, e.alive0(), e.degH)
	lb2 := e.lb2Into(e.lb1Into())
	ub := e.upperBoundsInto(e.degH)
	e.planIntervals(ub, lb2, 4)
	if len(e.intervals) < 2 {
		t.Fatalf("adaptive plan produced %d intervals", len(e.intervals))
	}
	// Contiguity and top-down coverage.
	maxUB := int32(0)
	for _, u := range ub {
		if u > maxUB {
			maxUB = u
		}
	}
	if e.intervals[0].kmax != int(maxUB) {
		t.Fatalf("top interval kmax = %d, want max UB %d", e.intervals[0].kmax, maxUB)
	}
	for i := 1; i < len(e.intervals); i++ {
		if e.intervals[i].kmax != e.intervals[i-1].kmin-1 {
			t.Fatalf("intervals %d and %d not contiguous: %+v %+v",
				i-1, i, e.intervals[i-1], e.intervals[i])
		}
	}
	// Mass balance: count vertices whose UB falls inside each interval.
	share := n / len(e.intervals)
	for i, iv := range e.intervals {
		mass := 0
		biggestVal := 0
		valCnt := map[int]int{}
		for _, u := range ub {
			if int(u) >= iv.kmin && int(u) <= iv.kmax {
				mass++
				valCnt[int(u)]++
			}
		}
		for _, c := range valCnt {
			if c > biggestVal {
				biggestVal = c
			}
		}
		if mass > 2*share+biggestVal {
			t.Errorf("interval %d [%d,%d] carries %d vertices (share %d, biggest value %d): unbalanced",
				i, iv.kmin, iv.kmax, mass, share, biggestVal)
		}
	}
}
