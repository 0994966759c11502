//go:build faultinject

package faultinject

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drawSequence replays the decision Here would make for hits 1..n of a
// site under a plan, without side effects.
func drawSequence(p Plan, site Site, n int) []Kind {
	out := make([]Kind, n)
	for i := 1; i <= n; i++ {
		u := uniform(p.Seed, site, uint64(i))
		switch {
		case u < p.PanicRate:
			out[i-1] = PanicFault
		case u < p.PanicRate+p.DelayRate:
			out[i-1] = DelayFault
		case u < p.PanicRate+p.DelayRate+p.CancelRate:
			out[i-1] = CancelFault
		default:
			out[i-1] = None
		}
	}
	return out
}

// TestDeterministicPerSeed pins the reproducibility contract: the fault
// sequence of a site is a pure function of (seed, site, hit index).
func TestDeterministicPerSeed(t *testing.T) {
	p := Plan{Seed: 42, PanicRate: 0.2, DelayRate: 0.3, CancelRate: 0.1}
	a := drawSequence(p, PeelRound, 200)
	b := drawSequence(p, PeelRound, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs across replays: %v vs %v", i+1, a[i], b[i])
		}
	}
	// Different seeds and different sites must not share a sequence.
	c := drawSequence(Plan{Seed: 43, PanicRate: 0.2, DelayRate: 0.3, CancelRate: 0.1}, PeelRound, 200)
	d := drawSequence(p, BatchChunk, 200)
	same := func(x []Kind) bool {
		for i := range a {
			if a[i] != x[i] {
				return false
			}
		}
		return true
	}
	if same(c) || same(d) {
		t.Fatal("distinct seeds/sites replay an identical fault sequence")
	}
	// With these rates all kinds must appear in 200 draws.
	counts := map[Kind]int{}
	for _, k := range a {
		counts[k]++
	}
	for _, k := range []Kind{None, PanicFault, DelayFault, CancelFault} {
		if counts[k] == 0 {
			t.Fatalf("kind %v never drawn in 200 hits: %v", k, counts)
		}
	}
}

// TestInjectedPanic arms a panic-only plan and demands Here panic with
// an identifiable *Injected value carrying the site and hit index.
func TestInjectedPanic(t *testing.T) {
	Enable(Plan{Seed: 1, PanicRate: 1})
	defer Disable()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed panic-only plan did not panic")
		}
		if !IsInjected(r) {
			t.Fatalf("panic value %v is not an *Injected", r)
		}
		inj := r.(*Injected)
		if inj.Site != PoolAcquire || inj.Hit != 1 {
			t.Fatalf("injected panic misidentifies its origin: %+v", inj)
		}
	}()
	Here(PoolAcquire)
}

// TestDelayAndCancelAndSiteFilter covers the remaining kinds plus the
// Sites allowlist: delays sleep, cancels invoke the hook, and unarmed
// sites stay inert.
func TestDelayAndCancelAndSiteFilter(t *testing.T) {
	var canceled atomic.Int32
	Enable(Plan{
		Seed:       7,
		CancelRate: 1,
		OnCancel:   func() { canceled.Add(1) },
		Sites:      []Site{IncrSplice},
	})
	defer Disable()
	Here(PoolAcquire) // filtered out: must not cancel
	if canceled.Load() != 0 {
		t.Fatal("filtered site fired")
	}
	Here(IncrSplice)
	if canceled.Load() != 1 {
		t.Fatal("armed cancel site did not invoke the hook")
	}

	Enable(Plan{Seed: 7, DelayRate: 1, Delay: 20 * time.Millisecond})
	start := time.Now()
	Here(BatchChunk)
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay fault slept only %v", d)
	}
}

// TestHitsCountsAndDisable pins the coverage counters and Disable.
func TestHitsCountsAndDisable(t *testing.T) {
	Enable(Plan{Seed: 3}) // all rates zero: pure counting
	for i := 0; i < 5; i++ {
		Here(PeelRound)
	}
	Here(BatchChunk)
	h := Hits()
	if h[PeelRound] != 5 || h[BatchChunk] != 1 || h[PoolAcquire] != 0 {
		t.Fatalf("unexpected hit counts: %v", h)
	}
	Disable()
	Here(PeelRound) // must not panic on a nil state
	if h := Hits(); h[PeelRound] != 0 {
		t.Fatalf("Hits after Disable = %v, want zeroes", h)
	}
}

// TestConcurrentHere exercises the armed path under -race: concurrent
// hits against Enable/Disable churn must stay race-free.
func TestConcurrentHere(t *testing.T) {
	Enable(Plan{Seed: 11, DelayRate: 0.1, Delay: time.Microsecond})
	defer Disable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Here(BatchChunk)
			}
		}()
	}
	for i := 0; i < 10; i++ {
		Enable(Plan{Seed: uint64(i), DelayRate: 0.1, Delay: time.Microsecond})
	}
	wg.Wait()
}
