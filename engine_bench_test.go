package khcore_test

// Allocation benchmarks for the reusable Engine (run with
// `go test -bench=Engine -benchmem`): repeated decompositions through one
// warm Engine versus rebuilding the whole working set per call. The
// benchmarks cover both the single-worker zero-alloc path and the default
// parallel pool (which pays only the per-batch goroutine spawns).

import (
	"fmt"
	"os"
	"testing"
	"time"

	khcore "repro"
)

// benchGraph returns the benchmark graph: the synthetic Barabási–Albert
// default, or a real SNAP edge list when KHCORE_BENCH_DATASET names one
// (`make bench DATASET=path/to/snap.txt` plumbs the variable through), so
// the recorded numbers can track realistic degree skew.
func benchGraph() *khcore.Graph {
	if path := os.Getenv("KHCORE_BENCH_DATASET"); path != "" {
		g, err := khcore.LoadDataset(path)
		if err != nil {
			panic(fmt.Sprintf("KHCORE_BENCH_DATASET: %v", err))
		}
		return g
	}
	return khcore.BarabasiAlbert(2000, 4, 97)
}

func benchmarkEngineRepeated(b *testing.B, workers int) {
	g := benchGraph()
	eng := khcore.NewEngine(g, workers)
	defer eng.Close()
	opts := khcore.Options{H: 2, Algorithm: khcore.HLBUB, Workers: workers}
	var res khcore.Result
	if err := eng.DecomposeInto(&res, opts); err != nil { // warm the scratch arena
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.DecomposeInto(&res, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkFresh(b *testing.B, workers int) {
	g := benchGraph()
	opts := khcore.Options{H: 2, Algorithm: khcore.HLBUB, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.Decompose(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDecompose is the headline kernel benchmark: one warm
// Engine, h = 2, each of the three algorithms as a sub-benchmark. The
// `make bench` target records it into BENCH_kernels.json.
func BenchmarkEngineDecompose(b *testing.B) {
	g := benchGraph()
	for _, alg := range []khcore.Algorithm{khcore.HBZ, khcore.HLB, khcore.HLBUB} {
		b.Run(alg.String(), func(b *testing.B) {
			eng := khcore.NewEngine(g, 1)
			opts := khcore.Options{H: 2, Algorithm: alg, Workers: 1, AllowBaseline: true}
			var res khcore.Result
			if err := eng.DecomposeInto(&res, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.DecomposeInto(&res, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineDecomposeRepeated(b *testing.B) { benchmarkEngineRepeated(b, 1) }
func BenchmarkDecomposeFresh(b *testing.B)          { benchmarkFresh(b, 1) }
func BenchmarkEngineDecomposeParallel(b *testing.B) { benchmarkEngineRepeated(b, 0) }
func BenchmarkDecomposeFreshParallel(b *testing.B)  { benchmarkFresh(b, 0) }

// BenchmarkParallelHLBUB is the worker-scaling benchmark behind
// BENCH_parallel.json and the README scaling table: one warm engine per
// worker count, h = 2, h-LB+UB end to end (bounds, Algorithm 5 and the
// concurrent interval peeling). workers=1 takes the serial interval
// path; higher counts drain the interval work queue with per-worker
// solvers (host gates permitting).
// Each sub-benchmark also reports the pipeline's per-phase wall-times as
// custom metrics ("phase-*-ns/op"), which benchjson folds into the
// phase_ns_per_op_by_workers section — the Amdahl split of the run,
// recorded instead of inferred.
func BenchmarkParallelHLBUB(b *testing.B) {
	g := benchGraph()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := khcore.NewEngine(g, workers)
			defer eng.Close()
			opts := khcore.Options{H: 2, Algorithm: khcore.HLBUB}
			var res khcore.Result
			if err := eng.DecomposeInto(&res, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var hdeg, lb, ub, ivals time.Duration
			for i := 0; i < b.N; i++ {
				if err := eng.DecomposeInto(&res, opts); err != nil {
					b.Fatal(err)
				}
				hdeg += res.Stats.PhaseHDegrees
				lb += res.Stats.PhaseLowerBounds
				ub += res.Stats.PhaseUpperBound
				ivals += res.Stats.PhaseIntervals
			}
			n := float64(b.N)
			b.ReportMetric(float64(hdeg.Nanoseconds())/n, "phase-hdeg-ns/op")
			b.ReportMetric(float64(lb.Nanoseconds())/n, "phase-lb-ns/op")
			b.ReportMetric(float64(ub.Nanoseconds())/n, "phase-ub-ns/op")
			b.ReportMetric(float64(ivals.Nanoseconds())/n, "phase-intervals-ns/op")
		})
	}
}

// BenchmarkEngineSpectrum measures the cross-level seeding path: all
// h = 1..3 levels through one scratch arena.
func BenchmarkEngineSpectrum(b *testing.B) {
	g := benchGraph()
	eng := khcore.NewEngine(g, 1)
	opts := khcore.Options{Algorithm: khcore.HLB, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DecomposeSpectrum(3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApproxDecompose is the accuracy/latency frontier behind
// BENCH_sampling.json: one warm single-worker engine, h ∈ {2, 3}, the
// exact h-LB+UB run as the baseline sub-benchmark and one sub-benchmark
// per epsilon. Every approximate sub-benchmark reports the observed
// core-index error against the exact result as custom metrics
// (max-core-err, mean-core-err) next to the run's advertised bound
// (err-bound) and sampling effort (samples/op), so the recorded JSON
// carries the accuracy axis, not just the time axis. benchjson's sampling
// section divides the exact baseline by each epsilon's ns/op to get the
// speedup column.
func BenchmarkApproxDecompose(b *testing.B) {
	g := benchGraph()
	for _, h := range []int{2, 3} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			eng := khcore.NewEngine(g, 1)
			defer eng.Close()
			exactOpts := khcore.Options{H: h, Workers: 1}
			var exact khcore.Result
			if err := eng.DecomposeInto(&exact, exactOpts); err != nil {
				b.Fatal(err)
			}
			exactCore := append([]int(nil), exact.Core...)
			b.Run("exact", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := eng.DecomposeInto(&exact, exactOpts); err != nil {
						b.Fatal(err)
					}
				}
			})
			for _, eps := range []float64{0.1, 0.2, 0.3, 0.5} {
				b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
					opts := khcore.Options{H: h, Workers: 1,
						Approx: khcore.ApproxOptions{Enabled: true, Epsilon: eps, Seed: 1}}
					var res khcore.Result
					if err := eng.DecomposeInto(&res, opts); err != nil {
						b.Fatal(err)
					}
					maxErr, sumErr := 0, 0
					for v, c := range res.Core {
						d := c - exactCore[v]
						if d < 0 {
							d = -d
						}
						if d > maxErr {
							maxErr = d
						}
						sumErr += d
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := eng.DecomposeInto(&res, opts); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(maxErr), "max-core-err")
					b.ReportMetric(float64(sumErr)/float64(len(res.Core)), "mean-core-err")
					b.ReportMetric(float64(res.Stats.Approx.ErrorBound), "err-bound")
					b.ReportMetric(float64(res.Stats.Approx.SamplesDrawn), "samples/op")
				})
			}
		})
	}
}

// BenchmarkUBAblation measures what the Algorithm 5 power-graph bound
// buys over the raw h-degree bound (Options.UpperBound = HDegreeUB): the
// h-degree bound skips the whole Algorithm 5 pass but yields looser
// partitions, so the interval peeling does more work. Each sub-benchmark
// reports the partition count and the ub/intervals phase split; the
// recorded numbers live in BENCH_parallel.json's notes.
func BenchmarkUBAblation(b *testing.B) {
	g := benchGraph()
	for _, ub := range []struct {
		name string
		kind khcore.UpperBoundKind
	}{{"ub=power", khcore.PowerUB}, {"ub=hdeg", khcore.HDegreeUB}} {
		b.Run(ub.name, func(b *testing.B) {
			eng := khcore.NewEngine(g, 1)
			defer eng.Close()
			opts := khcore.Options{H: 2, Workers: 1, UpperBound: ub.kind}
			var res khcore.Result
			if err := eng.DecomposeInto(&res, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var ubTime, ivals time.Duration
			var parts int64
			for i := 0; i < b.N; i++ {
				if err := eng.DecomposeInto(&res, opts); err != nil {
					b.Fatal(err)
				}
				ubTime += res.Stats.PhaseUpperBound
				ivals += res.Stats.PhaseIntervals
				parts += int64(res.Stats.Partitions)
			}
			n := float64(b.N)
			b.ReportMetric(float64(ubTime.Nanoseconds())/n, "phase-ub-ns/op")
			b.ReportMetric(float64(ivals.Nanoseconds())/n, "phase-intervals-ns/op")
			b.ReportMetric(float64(parts)/n, "partitions/op")
		})
	}
}
