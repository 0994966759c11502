package main

// Targets of the per-layer metrics. The layer numbers are not gated; each
// explains one end-to-end number. The decompose-* workloads gate
// latency_ms.p50/p90 and setup_s; the khserve numbers (query_ms.*,
// mutate_ms.* at the nominal and peak rates) are on the report line of
// every traced run and are not gated.
const (
	toSetup     = "setup_s on decompose-road and decompose-skewed, most on road"
	toKernel    = "latency_ms.p50/p90 on decompose-road and decompose-skewed, most on road"
	toEngine    = "latency_ms.p50/p90 on decompose-road and decompose-skewed"
	toUB        = "latency_ms.p50/p90 on decompose-skewed; barely on decompose-road"
	toApprox    = "query_ms.approx.nominal.p50 and query_ms.peak.p90 (traced report line); nothing on decompose-*"
	toMutate    = "mutate_ms.nominal.p50 (traced report line); nothing on decompose-*"
	toPool      = "query_ms.peak.p90 and mutate_ms.nominal.p90 (traced report line); nothing on decompose-*"
	toServe     = "query_ms.nominal.p50, which cache hits dominate (traced report line); nothing on decompose-*"
	toNothing   = "no end-to-end metric: counts h-BFS helpers the one-shot bound calls leave running"
	toTraceCost = "no end-to-end metric: the share by which tracing slows latency_ms.p50"
)

// layerTargets names, for every per-layer metric a traced run reports, the
// end-to-end metric and workload it should move. It is written into every
// span file, and it lists exactly the per_layer metrics of BENCHMARK.json.
var layerTargets = map[string]string{
	"graph.build_ms":              toSetup,
	"graph.splice_ms":             toMutate,
	"hbfs.hdegrees_ms":            toKernel,
	"hbfs.balls_ms":               toKernel,
	"hbfs.visits":                 toKernel,
	"hbfs.ns_per_visit":           toKernel,
	"bounds.hdeg_ms":              toEngine,
	"bounds.lb_ms":                toEngine,
	"bounds.ub_ms.w1":             toUB,
	"bounds.ub_ms.wN":             toUB,
	"bounds.leaked_goroutines":    toNothing,
	"engine.decompose_ms.w1":      toEngine,
	"engine.decompose_ms.wN":      toEngine,
	"engine.speedup":              toEngine,
	"engine.visits":               toEngine,
	"engine.hdegree_computations": toEngine,
	"engine.decrements":           toEngine,
	"engine.partitions":           toEngine,
	"engine.visit_efficiency":     toEngine,
	"engine.phase_ub_ms":          toUB,
	"engine.phase_intervals_ms":   toKernel,
	"approx.decompose_ms":         toApprox,
	"approx.samples_drawn":        toApprox,
	"approx.max_abs_err":          toApprox,
	"approx.error_bound":          toApprox,
	"incr.apply_ms.p50":           toMutate,
	"incr.apply_ms.p90":           toMutate,
	"incr.region_size":            toMutate,
	"incr.localized_frac":         toMutate,
	"incr.repaired_vertices":      toMutate,
	"pool.acquire_wait_ms.p50":    toPool,
	"pool.acquire_wait_ms.p90":    toPool,
	"pool.reset_ms.p90":           toPool,
	"pool.busy_frac":              toPool,
	"serve.overhead_ms.p50":       toServe,
	"serve.cache_hit_frac":        toServe,
	"serve.shed_frac":             toPool,
	"serve.degrade_frac":          toPool,
	"serve.generator_lag_ms.max":  toServe,
	"trace.overhead_frac":         toTraceCost,
}
