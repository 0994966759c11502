// Package faultinject is the deterministic fault-injection substrate of
// the chaos suite: named sites threaded through the serving hot paths
// (engine-pool checkout, h-BFS batch chunks, peel rounds, incremental
// repair) that compile to a no-op in production builds and, under
// the `faultinject` build tag, inject seeded panics, delays and
// cancellations reproducibly.
//
// A site is one line of instrumented code:
//
//	faultinject.Here(faultinject.PeelRound)
//
// In the default build Here is an empty function with a constant argument
// — it inlines to nothing, keeping the steady-state serving path at its
// 0 allocs/op contract (pinned by the engine and pool alloc tests, which
// run with the sites compiled in). Under `-tags faultinject` the chaos
// tests arm a Plan (seed, per-kind rates, a cancellation hook) and every
// Nth hit of a site deterministically draws the same fault for the same
// seed, so a failing chaos run reproduces from its seed alone.
//
// Site names are registered constants: the khlint `faultsite` analyzer
// rejects Here calls whose argument is anything but one of the constants
// below, and requires every declared Site constant to appear in the
// registry — so Sites() is always the complete list the chaos suite must
// cover.
package faultinject

// Site names one fault-injection point. Every value is a registered
// constant in this package (enforced by the faultsite analyzer); the
// dotted name identifies the subsystem and the exact seam.
type Site string

// The registered sites. Each one marks a seam where production faults
// concentrate: checkout of a pooled engine, the batch-chunk claim loop of
// the h-BFS worker pool (runs on helper goroutines — a panic there must
// resurface on the publisher), the per-level peel round of the bucket
// decomposition, and the closure and splice of an incremental repair.
const (
	// PoolAcquire fires at the top of EnginePool.Acquire, before an
	// engine is checked out.
	PoolAcquire Site = "core.pool.acquire"
	// BatchChunk fires once per claimed chunk in the h-BFS pool's batch
	// drains (exact, capped, sampled and ball kernels; helper and inline
	// paths alike).
	BatchChunk Site = "hbfs.batch.chunk"
	// PeelRound fires once per bucket level of the core peeling loop
	// (coreDecomp), on whichever solver goroutine runs the interval.
	PeelRound Site = "core.peel.round"
	// IncrRegion fires once per expanded vertex in the incremental
	// maintainer's dirty-region closure (incr.Finder.CloseRegionCtx).
	IncrRegion Site = "incr.region.expand"
	// IncrSplice fires in Engine.repairRegion between seeding the localized
	// re-peel and splicing the repaired core indices into the published
	// array — the seam where a fault must leave the carried bounds sound.
	IncrSplice Site = "incr.splice"
)

// registry lists every declared site. The faultsite analyzer checks the
// list is complete (every Site constant of this package appears) and
// well-formed (dotted lowercase names, no duplicates), so the chaos
// suite's Sites() iteration provably covers every instrumented seam.
var registry = []Site{
	PoolAcquire,
	BatchChunk,
	PeelRound,
	IncrRegion,
	IncrSplice,
}

// Sites returns the full list of registered injection sites.
func Sites() []Site {
	return append([]Site(nil), registry...)
}
