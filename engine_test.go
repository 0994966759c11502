package khcore_test

// Tests for the reusable Engine: bit-exact equivalence with the one-shot
// Decompose across every algorithm and h, scratch soundness under reuse
// (repeated runs, changing options, graph re-binding), and the
// steady-state allocation guarantee that motivates the Engine.

import (
	"testing"

	khcore "repro"
)

func engineTestGraphs() map[string]*khcore.Graph {
	return map[string]*khcore.Graph{
		"erdos-renyi":  khcore.ErdosRenyi(300, 900, 7),
		"scale-free":   khcore.BarabasiAlbert(250, 3, 11),
		"communities":  khcore.Communities(240, 6, 20, 60, 0.05, 13),
		"paper-fig1":   khcore.PaperGraph(),
		"sparse-grid":  khcore.RoadGrid(12, 12, 0.1, 0.05, 17),
		"empty":        khcore.FromEdges(0, nil),
		"edgeless":     khcore.FromEdges(5, nil),
		"disconnected": khcore.FromEdges(9, [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {6, 7}}),
	}
}

// TestEngineMatchesDecompose is the equivalence guarantee: one Engine,
// reused across all three algorithms and h = 1..3 on every test graph,
// must reproduce the one-shot Decompose results bit for bit.
func TestEngineMatchesDecompose(t *testing.T) {
	algorithms := []khcore.Algorithm{khcore.HBZ, khcore.HLB, khcore.HLBUB}
	for name, g := range engineTestGraphs() {
		eng := khcore.NewEngine(g, 2)
		for _, algo := range algorithms {
			for h := 1; h <= 3; h++ {
				opts := khcore.Options{H: h, Algorithm: algo, Workers: 2, AllowBaseline: true}
				want, err := khcore.Decompose(g, opts)
				if err != nil {
					t.Fatalf("%s/%v/h=%d: Decompose: %v", name, algo, h, err)
				}
				got, err := eng.Decompose(opts)
				if err != nil {
					t.Fatalf("%s/%v/h=%d: Engine.Decompose: %v", name, algo, h, err)
				}
				if got.H != want.H || len(got.Core) != len(want.Core) {
					t.Fatalf("%s/%v/h=%d: shape mismatch", name, algo, h)
				}
				for v := range want.Core {
					if got.Core[v] != want.Core[v] {
						t.Fatalf("%s/%v/h=%d: vertex %d: engine core %d, one-shot core %d",
							name, algo, h, v, got.Core[v], want.Core[v])
					}
				}
			}
		}
		eng.Close()
	}
}

// TestEngineRepeatedRunsStable reruns the same query many times through one
// engine; any scratch-reset bug would show as drift between runs.
func TestEngineRepeatedRunsStable(t *testing.T) {
	g := khcore.BarabasiAlbert(200, 4, 23)
	eng := khcore.NewEngine(g, 1)
	opts := khcore.Options{H: 2, Algorithm: khcore.HLBUB}
	first, err := eng.Decompose(opts)
	if err != nil {
		t.Fatal(err)
	}
	var res khcore.Result
	for i := 0; i < 10; i++ {
		if err := eng.DecomposeInto(&res, opts); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for v := range first.Core {
			if res.Core[v] != first.Core[v] {
				t.Fatalf("run %d: vertex %d drifted from %d to %d", i, v, first.Core[v], res.Core[v])
			}
		}
	}
	if err := khcore.Validate(g, 2, first.Core); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDecomposeIntoReusesBuffer checks the zero-alloc output path:
// a Result passed back in must keep its Core backing array.
func TestEngineDecomposeIntoReusesBuffer(t *testing.T) {
	g := khcore.ErdosRenyi(120, 350, 3)
	eng := khcore.NewEngine(g, 1)
	var res khcore.Result
	if err := eng.DecomposeInto(&res, khcore.Options{H: 2, Algorithm: khcore.HLB}); err != nil {
		t.Fatal(err)
	}
	before := &res.Core[0]
	if err := eng.DecomposeInto(&res, khcore.Options{H: 3, Algorithm: khcore.HLB}); err != nil {
		t.Fatal(err)
	}
	if &res.Core[0] != before {
		t.Fatal("DecomposeInto re-allocated the Core buffer despite sufficient capacity")
	}
	if err := khcore.Validate(g, 3, res.Core); err != nil {
		t.Fatal(err)
	}
}

// TestEngineInvalidOptions mirrors the one-shot error contract.
func TestEngineInvalidOptions(t *testing.T) {
	eng := khcore.NewEngine(khcore.PaperGraph(), 1)
	if _, err := eng.Decompose(khcore.Options{H: -1}); err == nil {
		t.Fatal("h = -1 accepted")
	}
	if _, err := eng.Decompose(khcore.Options{H: 2, Algorithm: khcore.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// The engine must remain usable after a rejected call.
	if _, err := eng.Decompose(khcore.Options{H: 2}); err != nil {
		t.Fatalf("engine unusable after rejected options: %v", err)
	}
}

// TestEngineSpectrumMatchesOneShot pins Engine.DecomposeSpectrum to the
// package-level result.
func TestEngineSpectrumMatchesOneShot(t *testing.T) {
	g := khcore.Communities(180, 5, 15, 50, 0.08, 29)
	want, err := khcore.DecomposeSpectrum(g, 3, khcore.Options{Algorithm: khcore.HLB, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := khcore.NewEngine(g, 1)
	// Warm the engine with an unrelated run first: spectrum must not be
	// contaminated by previous scratch contents.
	if _, err := eng.Decompose(khcore.Options{H: 3, Algorithm: khcore.HLBUB}); err != nil {
		t.Fatal(err)
	}
	got, err := eng.DecomposeSpectrum(3, khcore.Options{Algorithm: khcore.HLB})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 3; h++ {
		for v := range want.Core[h-1] {
			if got.Core[h-1][v] != want.Core[h-1][v] {
				t.Fatalf("h=%d vertex %d: engine %d, one-shot %d",
					h, v, got.Core[h-1][v], want.Core[h-1][v])
			}
		}
	}
}

// TestEngineSteadyStateAllocs asserts the headline property: after a
// warm-up run, repeated DecomposeInto calls through one single-worker
// engine allocate nothing, and at least 10× less than fresh-state
// Decompose calls (the acceptance bar; in practice the gap is far larger).
func TestEngineSteadyStateAllocs(t *testing.T) {
	g := khcore.BarabasiAlbert(400, 3, 41)
	for _, algo := range []khcore.Algorithm{khcore.HBZ, khcore.HLB, khcore.HLBUB} {
		opts := khcore.Options{H: 2, Algorithm: algo, Workers: 1, AllowBaseline: true}
		eng := khcore.NewEngine(g, 1)
		var res khcore.Result
		if err := eng.DecomposeInto(&res, opts); err != nil { // warm-up sizes all scratch
			t.Fatal(err)
		}
		engineAllocs := testing.AllocsPerRun(3, func() {
			if err := eng.DecomposeInto(&res, opts); err != nil {
				t.Fatal(err)
			}
		})
		freshAllocs := testing.AllocsPerRun(3, func() {
			if _, err := khcore.Decompose(g, opts); err != nil {
				t.Fatal(err)
			}
		})
		if engineAllocs > 0 {
			t.Errorf("%v: warm engine allocates %.0f objects/op, want 0", algo, engineAllocs)
		}
		if freshAllocs < 10*(engineAllocs+1) {
			t.Errorf("%v: fresh Decompose allocates %.0f objects/op vs engine %.0f — less than the 10× bar",
				algo, freshAllocs, engineAllocs)
		}
	}
}
