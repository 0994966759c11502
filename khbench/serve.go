package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	khcore "repro"
)

// Latency limits of the serve-live open loop, timed from when a request
// was due.
const (
	queryLimit  = 500 * time.Millisecond
	mutateLimit = 250 * time.Millisecond
)

// drainGrace bounds how long a phase keeps sending requests that fell
// behind their due time; later ones count as failed.
const drainGrace = 10 * time.Second

var errLate = errors.New("not sent: the backlog outlasted the phase")

// session drives one khserve daemon and keeps the benchmark's own copy of
// the daemon's graph: the start graph plus every edit the daemon applied.
type session struct {
	c      *client
	g0     *khcore.Graph
	edits  []khcore.EdgeEdit // toggle stream the schedules draw from
	next   int               // next unused edit
	tr     *tracer           // nil when untraced
	issued atomic.Int64      // mutations sent
	done   atomic.Int64      // mutations answered

	mu      sync.Mutex
	applied []khcore.EdgeEdit // edits the daemon answered 200, in answer order
	unknown int               // mutations whose effect on the daemon is unknown
}

// sample is the outcome of one scheduled request.
type sample struct {
	kind      reqKind
	aseed     uint64
	due       time.Duration // all offsets are from the phase start
	sentAt    time.Duration
	doneAt    time.Duration
	genLag    time.Duration // how late the generator released the request
	status    int
	rep       reply
	err       error
	epoch     int64 // mutations answered before the request was sent
	stableVer bool  // no mutation was in flight while the request ran
}

func (s *sample) ok() bool { return s.err == nil }

// latency is the time from due to answer.
func (s *sample) latency() time.Duration { return s.doneAt - s.due }

// runPhase sends reqs on their schedule from one generator and at most
// nproc connections. A request due while every connection is busy waits
// in the backlog, and its latency includes that wait.
func runPhase(reqs []request, send func(*sample, request)) []sample {
	samples := make([]sample, len(reqs))
	if len(reqs) == 0 {
		return samples
	}
	t0 := time.Now()
	cutoff := t0.Add(reqs[len(reqs)-1].due + drainGrace)
	queue := make(chan int, len(reqs)) // one slot per send: the generator never blocks
	go func() {
		defer close(queue)
		for i, rq := range reqs {
			if wait := time.Until(t0.Add(rq.due)); wait > 0 {
				time.Sleep(wait)
			}
			samples[i].genLag = time.Since(t0) - rq.due
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sm := &samples[i]
				sm.kind, sm.aseed, sm.due = reqs[i].kind, reqs[i].aseed, reqs[i].due
				sm.sentAt = time.Since(t0)
				if time.Now().After(cutoff) {
					sm.err, sm.doneAt = errLate, sm.sentAt
					continue
				}
				send(sm, reqs[i])
				sm.doneAt = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return samples
}

// send performs one request, records its outcome and, for a mutation the
// daemon applied, the edit.
func (s *session) send(sm *sample, rq request) {
	issued, done := s.issued.Load(), s.done.Load()
	if rq.kind == kindMutate {
		s.issued.Add(1)
	}
	method, path, body := rq.path()
	id := s.tr.begin("serve."+rq.kind.String(), 0, s.tr.newReq())
	sm.status, body, sm.err = s.c.do(context.Background(), method, path, body)
	if sm.err == nil {
		sm.rep, sm.err = parseReply(rq.kind, sm.status, body)
	}
	s.tr.end(id, map[string]any{
		"status": sm.status, "cached": sm.rep.cached, "degraded": sm.rep.degraded,
		"durationMs": sm.rep.durationMS, "regionSize": sm.rep.regionSize,
	})
	if rq.kind != kindMutate {
		sm.epoch = done
		sm.stableVer = issued == done && s.issued.Load() == issued && s.done.Load() == done
		return
	}
	s.mu.Lock()
	switch {
	case sm.err == nil:
		s.applied = append(s.applied, rq.edit)
	case sm.status == http.StatusBadRequest || sm.status == http.StatusTooManyRequests:
		// Rejected before the graph changed.
	default:
		s.unknown++
	}
	s.mu.Unlock()
	s.done.Add(1)
}

// phaseStats summarizes one phase of the open loop.
type phaseStats struct {
	attempted, failed int64
	query, mutate     []float64             // latency from due, ms, successful requests
	byKind            [kindMutate][]float64 // query latencies per request class
	sloMet            int64
	genLagMax         time.Duration
	backlogGrew       bool
	backlogEnd        time.Duration // mean wait in the backlog over the last third
	cacheHits, cacheQ int64         // cached answers among exact queries
	shed, degraded    int64
	overhead          []float64     // client service time minus durationMs, ms
	engineMS          float64       // engine time of the runs the daemon reported, ms
	wall              time.Duration // from the phase start to its last answer
}

// busyFrac is the share of the phase the daemon's engines spent running
// decompositions, from the durationMs of every uncached answer.
func (ps phaseStats) busyFrac() float64 {
	if ps.wall <= 0 {
		return 0
	}
	return ps.engineMS / ms(ps.wall) / float64(nproc())
}

// summarize computes a phase's statistics and checks that answers given on
// the same graph version agree.
func summarize(r *run, samples []sample) phaseStats {
	var ps phaseStats
	exact := map[int64]string{}
	approx := map[[2]int64]string{}
	for i := range samples {
		sm := &samples[i]
		ps.attempted++
		ps.genLagMax = max(ps.genLagMax, sm.genLag)
		ps.wall = max(ps.wall, sm.doneAt)
		if sm.status == http.StatusTooManyRequests {
			ps.shed++
		}
		if !sm.ok() {
			ps.failed++
			continue
		}
		lat := sm.latency()
		limit := queryLimit
		if sm.kind == kindMutate {
			limit = mutateLimit
			ps.mutate = append(ps.mutate, ms(lat))
		} else {
			ps.query = append(ps.query, ms(lat))
			ps.byKind[sm.kind] = append(ps.byKind[sm.kind], ms(lat))
		}
		if lat <= limit {
			ps.sloMet++
		}
		if sm.kind == kindCore || sm.kind == kindDecompose {
			ps.cacheQ++
			if sm.rep.cached {
				ps.cacheHits++
			}
			if sm.rep.degraded {
				ps.degraded++
			}
		}
		if (sm.kind == kindDecompose || sm.kind == kindApprox) && !sm.rep.cached && sm.rep.durationMS >= 0 {
			ps.overhead = append(ps.overhead, ms(sm.doneAt-sm.sentAt)-float64(sm.rep.durationMS))
			ps.engineMS += float64(sm.rep.durationMS)
		}
		if !sm.stableVer {
			continue
		}
		switch {
		case sm.kind == kindDecompose && !sm.rep.degraded:
			agree(r, exact, sm.epoch, fmt.Sprint(sm.rep.coreSizes), "exact /decompose")
		case sm.kind == kindApprox:
			agree(r, approx, [2]int64{sm.epoch, int64(sm.aseed)}, string(sm.rep.canon), "approx /decompose")
		}
	}
	third := len(samples) / 3
	if third > 0 {
		first := meanWait(samples[:third])
		ps.backlogEnd = meanWait(samples[len(samples)-third:])
		// A backlog that grows at a rate the loop cannot keep up with
		// is small at the start and several times larger at the end; a
		// steady queue, however long, keeps its size.
		ps.backlogGrew = ps.backlogEnd > 2*first && ps.backlogEnd-first > 50*time.Millisecond
	}
	return ps
}

// agree checks that every answer recorded under one key is the same.
func agree[K comparable](r *run, seen map[K]string, key K, answer, what string) {
	if prev, ok := seen[key]; ok && prev != answer {
		r.mismatchf("%s answers on one graph version differ (%v)", what, key)
		return
	}
	seen[key] = answer
}

// meanWait is the mean time requests waited between due and sent.
func meanWait(samples []sample) time.Duration {
	var total time.Duration
	for _, sm := range samples {
		total += sm.sentAt - sm.due
	}
	return total / time.Duration(len(samples))
}

// recordPhase reports a phase's numbers on the report line under the given
// suffix (".peak" for the peak rate).
func recordPhase(r *run, ps phaseStats, suffix string) {
	r.attempted += ps.attempted
	r.failed += ps.failed
	r.note("serve.attempted"+suffix, "count", float64(ps.attempted))
	r.note("serve.failed"+suffix, "count", float64(ps.failed))
	r.note("slo_frac"+suffix, "fraction", share(ps.sloMet, ps.attempted))
	r.note("serve.busy_frac"+suffix, "fraction", ps.busyFrac())
	r.note("serve.generator_lag_ms.max"+suffix, "ms", ms(ps.genLagMax))
	r.note("serve.backlog_end_ms"+suffix, "ms", ms(ps.backlogEnd))
	if ps.backlogGrew {
		// Beyond capacity: the latency below is not a steady state.
		r.note("serve.beyond_capacity"+suffix, "flag", 1)
		fmt.Fprintf(os.Stderr, "khbench: rate%s is beyond capacity: the backlog grew to %v\n", suffix, ps.backlogEnd)
	} else {
		r.note("serve.beyond_capacity"+suffix, "flag", 0)
	}
	tails := map[string][]float64{"query_ms": ps.query, "mutate_ms": ps.mutate}
	for k, xs := range ps.byKind {
		tails["query_ms."+reqKind(k).String()] = xs
	}
	for name, xs := range tails {
		r.note(name+suffix+".samples", "count", float64(len(xs)))
		// A class with too few samples for its p90 stays off the report.
		_ = recordTail(r.note, name+suffix, xs)
	}
}

// newSession binds a client to a running daemon serving g0, with the
// toggle stream its schedules draw mutations from.
func newSession(base string, g0 *khcore.Graph, edits []khcore.EdgeEdit) *session {
	return &session{c: newClient(base), g0: g0, edits: edits}
}

// phase schedules and runs one open-loop phase.
func (s *session) phase(r *run, rate float64, dur time.Duration, phaseID uint64) ([]sample, error) {
	reqs, err := schedule(rate, dur, r.cfg.seed, phaseID, s.edits, &s.next)
	if err != nil {
		return nil, err
	}
	return runPhase(reqs, s.send), nil
}

// warm sends one exact and one approximate /decompose so the daemon's
// latency estimates and caches are past their first request.
func (s *session) warm() error {
	for _, path := range []string{"/decompose?h=3", "/decompose?h=3&mode=approx&seed=1"} {
		status, body, err := s.c.do(context.Background(), "GET", path, nil)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", path, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", path, status, body)
		}
	}
	return nil
}

// finalGate compares the daemon's answers after the load with in-process
// runs on the benchmark's own copy of the final edge set: exact cores at
// h=2 (the incrementally maintained h) and h=3, and an approximate run
// that must also repeat byte for byte.
func (s *session) finalGate(r *run) error {
	s.mu.Lock()
	unknown, applied := s.unknown, slices.Clone(s.applied)
	s.mu.Unlock()
	if unknown > 0 {
		r.mismatchf("%d mutations ended with an unknown effect; the final graph cannot be checked", unknown)
		return nil
	}
	g, err := applyEdits(s.g0, applied)
	if err != nil {
		r.mismatchf("applied edits do not replay on the benchmark's edge set: %v", err)
		return nil
	}
	eng := khcore.NewEngine(g, nproc())
	defer eng.Close()
	var res khcore.Result
	for _, h := range []int{2, 3} {
		rep, err := s.c.getDecompose(h, 0)
		if err != nil {
			return fmt.Errorf("final /decompose h=%d: %w", h, err)
		}
		if err := eng.DecomposeInto(&res, khcore.Options{H: h}); err != nil {
			return err
		}
		if !slices.Equal(rep.core, res.Core) {
			r.mismatchf("khserve h=%d cores after the load differ from an in-process h-LB+UB run", h)
		}
	}
	first, err := s.c.getDecompose(3, 1)
	if err != nil {
		return fmt.Errorf("final approx /decompose: %w", err)
	}
	again, err := s.c.getDecompose(3, 1)
	if err != nil {
		return fmt.Errorf("final approx /decompose: %w", err)
	}
	if !bytes.Equal(first.canon, again.canon) {
		r.mismatchf("approx responses for one seed on one graph version are not byte-identical")
	}
	if err := eng.DecomposeInto(&res, khcore.Options{H: 3, Approx: khcore.ApproxOptions{Enabled: true, Seed: 1}}); err != nil {
		return err
	}
	if !slices.Equal(first.core, res.Core) {
		r.mismatchf("khserve approx cores differ from an in-process approx run with the same seed")
	}
	return nil
}

// serveInput generates the serve-live graph, writes it as an edge list and
// reads it back the way khserve does.
func serveInput(r *run) (string, *khcore.Graph, error) {
	file := r.artifact("graph.txt")
	if err := writeEdgeList(file, cavemanEdges(r.cfg.sz, r.cfg.seed)); err != nil {
		return "", nil, err
	}
	g, err := readEdgeList(file)
	return file, g, err
}

// editBudget is how many toggles the schedules of a run may draw.
func editBudget(sz sizes, d time.Duration) int {
	return int(sz.peak*d.Seconds()*float64(serveDeck[kindMutate])/100*2) + 4*toggleWindow
}
