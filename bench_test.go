package khcore_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6, Appendix C), regenerating each artifact through
// internal/expt at a bench-friendly scale, plus micro-benchmarks for the
// hot substrate paths. Run everything with:
//
//	go test -bench=. -benchmem
//
// The absolute numbers are machine- and scale-dependent; the shapes that
// must hold (who wins, by roughly what factor) are recorded in
// EXPERIMENTS.md.

import (
	"testing"

	khcore "repro"
	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/hbfs"
)

// benchCfg keeps every experiment at a scale where the full suite runs in
// minutes while preserving the paper's relative effects.
func benchCfg() expt.Config {
	return expt.Config{
		Workers:       0, // NumCPU
		MaxVertices:   800,
		MaxH:          3,
		HClubMaxNodes: 20000,
		Pairs:         100,
		Ell:           10,
		Reps:          1,
		Seed:          0xBE4C4,
	}
}

func runTable(b *testing.B, id string, mutate func(*expt.Config)) {
	b.Helper()
	cfg := benchCfg()
	if mutate != nil {
		mutate(&cfg)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := expt.Run(id, cfg, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// ---- One benchmark per paper artifact ----

func BenchmarkTable1Stats(b *testing.B) {
	runTable(b, "table1", nil)
}

func BenchmarkTable2Decompose(b *testing.B) {
	runTable(b, "table2", func(c *expt.Config) { c.Datasets = []string{"coli", "cele", "jazz"} })
}

func BenchmarkTable3Algorithms(b *testing.B) {
	runTable(b, "table3", func(c *expt.Config) {
		c.Datasets = []string{"jazz"}
		c.MaxVertices = 198
	})
}

func BenchmarkTable4Bounds(b *testing.B) {
	runTable(b, "table4", func(c *expt.Config) { c.Datasets = []string{"jazz", "coli"} })
}

func BenchmarkTable5Ablation(b *testing.B) {
	runTable(b, "table5", func(c *expt.Config) {
		c.Datasets = []string{"jazz"}
		c.MaxVertices = 198
	})
}

func BenchmarkFigure3Profile(b *testing.B) {
	runTable(b, "fig3", func(c *expt.Config) { c.Datasets = []string{"jazz"} })
}

func BenchmarkFigure4Histogram(b *testing.B) {
	runTable(b, "fig4", func(c *expt.Config) { c.Datasets = []string{"jazz"} })
}

func BenchmarkFigure5Scalability(b *testing.B) {
	runTable(b, "fig5", func(c *expt.Config) {
		c.Datasets = []string{"doub"}
		c.MaxVertices = 1000
		c.MaxH = 2
	})
}

func BenchmarkTable6HClub(b *testing.B) {
	runTable(b, "table6", func(c *expt.Config) {
		c.Datasets = []string{"jazz"}
		c.MaxVertices = 198
		c.MaxH = 2
	})
}

func BenchmarkTable7Landmarks(b *testing.B) {
	runTable(b, "table7", func(c *expt.Config) {
		c.Datasets = []string{"jazz"}
		c.MaxH = 2
	})
}

func BenchmarkFigure6Spectrum(b *testing.B) {
	runTable(b, "fig6", func(c *expt.Config) { c.Datasets = []string{"jazz"} })
}

func BenchmarkFigure7Centrality(b *testing.B) {
	runTable(b, "fig7", func(c *expt.Config) { c.Datasets = []string{"coli"} })
}

// ---- §5 applications ----

func BenchmarkChromatic(b *testing.B) {
	g := khcore.Communities(300, 40, 5, 10, 0.3, 0xC01)
	dec, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: khcore.HLBUB})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.GreedyColoring(g, 2, dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDensest(b *testing.B) {
	g := khcore.Communities(300, 40, 5, 10, 0.3, 0xDE)
	dec, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: khcore.HLBUB})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.DensestSubgraph(g, 2, dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommunity(b *testing.B) {
	g := khcore.Communities(300, 40, 5, 10, 0.3, 0xC0)
	dec, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: khcore.HLBUB})
	if err != nil {
		b.Fatal(err)
	}
	q := dec.CoreVertices(dec.MaxCoreIndex())[:1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.CommunitySearch(g, 2, q, dec); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Decomposition algorithm comparison (the heart of Table 3) ----

func benchDecompose(b *testing.B, alg khcore.Algorithm, h int) {
	g := khcore.Communities(600, 80, 6, 12, 0.4, 0xD1CE)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.Decompose(g, khcore.Options{H: h, Algorithm: alg, AllowBaseline: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposeHBZ_h2(b *testing.B)   { benchDecompose(b, khcore.HBZ, 2) }
func BenchmarkDecomposeHLB_h2(b *testing.B)   { benchDecompose(b, khcore.HLB, 2) }
func BenchmarkDecomposeHLBUB_h2(b *testing.B) { benchDecompose(b, khcore.HLBUB, 2) }
func BenchmarkDecomposeHLB_h3(b *testing.B)   { benchDecompose(b, khcore.HLB, 3) }
func BenchmarkDecomposeHLBUB_h3(b *testing.B) { benchDecompose(b, khcore.HLBUB, 3) }

// Ablation benches for two design choices: the Algorithm-4 partition width
// S (README §Performance, "Tunables") and the worker count (README
// §Performance, "Worker scaling").

func BenchmarkAblationPartitionS1(b *testing.B)  { benchPartition(b, 1) }
func BenchmarkAblationPartitionS4(b *testing.B)  { benchPartition(b, 4) }
func BenchmarkAblationPartitionS16(b *testing.B) { benchPartition(b, 16) }

func benchPartition(b *testing.B, s int) {
	g := khcore.Communities(500, 70, 6, 12, 0.4, 0xAB1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: khcore.HLBUB, PartitionSize: s})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkAblationWorkersN(b *testing.B) { benchWorkers(b, 0) }

func benchWorkers(b *testing.B, w int) {
	g := khcore.BarabasiAlbert(1500, 4, 0xAB2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: khcore.HLBUB, Workers: w})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Substrate micro-benchmarks ----

func BenchmarkHDegreeBFS(b *testing.B) {
	g := khcore.BarabasiAlbert(2000, 4, 0x8F5)
	t := hbfs.NewTraversal(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.HDegree(i%g.NumVertices(), 2, nil)
	}
}

func BenchmarkBucketMove(b *testing.B) {
	const n = 1 << 14
	q := bucket.New(n, n)
	for v := 0; v < n; v++ {
		q.Insert(v, v%n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i & (n - 1)
		q.Move(v, (v*7+i)%n)
	}
}

func BenchmarkUpperBound(b *testing.B) {
	g := khcore.Communities(400, 55, 6, 12, 0.4, 0x0B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.UpperBounds(g, 2, 0)
	}
}

func BenchmarkLowerBounds(b *testing.B) {
	g := khcore.Communities(400, 55, 6, 12, 0.4, 0x1B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LowerBounds(g, 4, 0)
	}
}

// ---- Extension-module benchmarks ----

func BenchmarkSpectrum(b *testing.B) {
	g := khcore.Communities(300, 40, 5, 10, 0.3, 0x59EC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.DecomposeSpectrum(g, 3, khcore.Options{Algorithm: khcore.HLB}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaintainerInsert(b *testing.B) {
	g := khcore.Communities(300, 40, 5, 10, 0.3, 0x3A1)
	m, err := khcore.NewMaintainer(g, 2, khcore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	u, v := 0, 1
	for i := 0; i < b.N; i++ {
		for m.Graph().HasEdge(u, v) || u == v {
			v++
			if v >= m.Graph().NumVertices() {
				u++
				v = u + 1
			}
			if u >= m.Graph().NumVertices()-1 {
				b.Skip("graph saturated")
			}
		}
		if err := m.InsertEdge(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchy(b *testing.B) {
	g := khcore.Communities(400, 55, 6, 12, 0.4, 0x41E2)
	dec, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: khcore.HLBUB})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.BuildHierarchy(g, dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxHClique(b *testing.B) {
	g := khcore.Communities(150, 20, 5, 10, 0.3, 0xC11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := khcore.MaxHClique(g, 2, 50000)
		if len(r.Clique) == 0 {
			b.Fatal("no clique")
		}
	}
}
