//go:build faultinject

// Chaos suite for the engine pool: with the fault-injection sites armed,
// a seeded storm of panics, delays and cancellations must never produce
// anything but the typed error contract — every failure is an
// ErrEnginePanic or ErrCanceled wrap, every success is bit-identical to
// the reference, no goroutine leaks, and capacity provably returns to
// full once the storm passes. Run with:
//
//	go test -race -tags faultinject -run TestChaos ./internal/core/
//
// KHCORE_CHAOS_SEED selects the campaign seed (CI runs a small matrix);
// a failure reproduces from the seed it reports.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/leakcheck"
)

// chaosSeed reads the campaign seed from KHCORE_CHAOS_SEED, defaulting
// to 1 so a bare local run is still deterministic.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	v := os.Getenv("KHCORE_CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("KHCORE_CHAOS_SEED=%q: %v", v, err)
	}
	return seed
}

// TestChaosEnginePoolPanics storms the pool with injected panics and
// delays at every registered site. Workers=2 per engine makes the h-BFS
// helpers real goroutines, so BatchChunk panics must cross the
// capture/rethrow seam before the pool's recover sees them.
func TestChaosEnginePoolPanics(t *testing.T) {
	leakcheck.Check(t)
	// Force the interval fan-out so the concurrent path is stormed even on
	// a single-core runner, where the GOMAXPROCS gate would otherwise
	// route every run onto the serial peel.
	forceParallel(t)
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (set KHCORE_CHAOS_SEED to reproduce)", seed)
	g := gen.BarabasiAlbert(250, 3, 11)
	want, err := Decompose(g, Options{H: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewEnginePool(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	faultinject.Enable(faultinject.Plan{
		Seed:      seed,
		PanicRate: 0.005,
		DelayRate: 0.02,
		Delay:     20 * time.Microsecond,
	})
	defer faultinject.Disable()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res Result
			for i := 0; i < 12; i++ {
				err := pool.DecomposeInto(context.Background(), &res, Options{H: 2})
				switch {
				case err == nil:
					for v, c := range want.Core {
						if res.Core[v] != c {
							errs <- fmt.Errorf("successful run diverged at vertex %d: %d != %d", v, res.Core[v], c)
							return
						}
					}
				case errors.Is(err, ErrEnginePanic):
					var pe *EnginePanicError
					if !errors.As(err, &pe) || !faultinject.IsInjected(pe.Value) {
						errs <- fmt.Errorf("panic error without an injected payload: %v", err)
						return
					}
				default:
					errs <- fmt.Errorf("untyped chaos error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Coverage: the storm must have exercised every registered site the
	// decomposition path can reach; the incremental-maintenance sites are
	// only reachable through a Maintainer and are covered by
	// TestChaosIncrementalMaintenance. (Hits resets on Disable, so read
	// first.)
	hits := faultinject.Hits()
	faultinject.Disable()
	for site, n := range hits {
		if site == faultinject.IncrRegion || site == faultinject.IncrSplice {
			continue
		}
		if n == 0 {
			t.Errorf("site %s never fired during the campaign", site)
		}
	}

	// Capacity provably returns to full, and a post-recovery run on a
	// rebuilt fleet is bit-identical to the untouched reference.
	waitFullCapacity(t, pool)
	for i := 0; i < pool.Size()+1; i++ {
		var res Result
		if err := pool.DecomposeInto(context.Background(), &res, Options{H: 2}); err != nil {
			t.Fatalf("post-recovery run %d: %v", i, err)
		}
		for v, c := range want.Core {
			if res.Core[v] != c {
				t.Fatalf("post-recovery run %d diverged at vertex %d: %d != %d", i, v, res.Core[v], c)
			}
		}
	}
}

// TestChaosEnginePoolCancellation wires the CancelFault hook to cancel
// the contexts of in-flight runs: every failure must then be a typed
// ErrCanceled or ErrEnginePanic wrap, never a hang or a corrupted
// success.
func TestChaosEnginePoolCancellation(t *testing.T) {
	leakcheck.Check(t)
	seed := chaosSeed(t)
	g := gen.BarabasiAlbert(250, 3, 13)
	want, err := Decompose(g, Options{H: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewEnginePool(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Live in-flight cancel funcs; the hook fires them all, so a cancel
	// drawn on any goroutine's site lands on every active request.
	var mu sync.Mutex
	cancels := map[int]context.CancelFunc{}
	next := 0
	track := func(cancel context.CancelFunc) (id int) {
		mu.Lock()
		defer mu.Unlock()
		id = next
		next++
		cancels[id] = cancel
		return id
	}
	untrack := func(id int) {
		mu.Lock()
		defer mu.Unlock()
		delete(cancels, id)
	}

	faultinject.Enable(faultinject.Plan{
		Seed:       seed,
		PanicRate:  0.002,
		CancelRate: 0.01,
		OnCancel: func() {
			mu.Lock()
			defer mu.Unlock()
			for _, cancel := range cancels {
				cancel()
			}
		},
	})
	defer faultinject.Disable()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res Result
			for i := 0; i < 12; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				id := track(cancel)
				err := pool.DecomposeInto(ctx, &res, Options{H: 2})
				untrack(id)
				cancel()
				switch {
				case err == nil:
					for v, c := range want.Core {
						if res.Core[v] != c {
							errs <- fmt.Errorf("successful run diverged at vertex %d", v)
							return
						}
					}
				case errors.Is(err, ErrCanceled), errors.Is(err, ErrEnginePanic):
				default:
					errs <- fmt.Errorf("untyped chaos error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	faultinject.Disable()
	waitFullCapacity(t, pool)
}

// TestChaosSpectrum storms the multi-run spectrum path, whose partial
// failures must discard cleanly: an injected panic anywhere in the h
// sweep surfaces as one typed error, and a surviving success matches the
// reference level for level.
func TestChaosSpectrum(t *testing.T) {
	leakcheck.Check(t)
	seed := chaosSeed(t)
	g := gen.BarabasiAlbert(200, 3, 17)
	want, err := DecomposeSpectrum(g, 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewEnginePool(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	faultinject.Enable(faultinject.Plan{Seed: seed, PanicRate: 0.003})
	defer faultinject.Disable()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				sp, err := pool.DecomposeSpectrum(context.Background(), 3, Options{})
				if err != nil {
					if !errors.Is(err, ErrEnginePanic) {
						errs <- fmt.Errorf("untyped spectrum error: %v", err)
						return
					}
					continue
				}
				for h := 0; h < want.MaxH; h++ {
					for v, c := range want.Core[h] {
						if sp.Core[h][v] != c {
							errs <- fmt.Errorf("spectrum h=%d diverged at vertex %d", h+1, v)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	faultinject.Disable()
	waitFullCapacity(t, pool)
}
