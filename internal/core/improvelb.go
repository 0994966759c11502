package core

// improveLB implements Algorithm 6 for one partition: given the partition's
// vertex set as the solver's current alive mask, it (1) takes the h-degree
// of every partition vertex inside the induced subgraph — truncated just
// above kmax, the largest level this partition can settle, since any
// count that reaches the cap already places the vertex beyond every
// decision the partition makes — (2) derives the LB3 bound of Property 3,
// and (3) "cleans" the partition by cascading removal of vertices whose
// (optimistically decremented) h-degree falls below kmin, since such
// vertices cannot belong to any core of this partition.
//
// Step (1) counts only near the partition's boundary. A vertex v with
// b.ubMin[v] ≥ kmin has every vertex within distance h inside V[kmin], so
// its h-ball in the induced subgraph is its h-ball in G and the phase-1
// count b.degH[v] is exact there; only vertices within distance h of an
// excluded vertex pay an h-BFS. On a concentrated upper-bound spectrum,
// where V[kmin] is nearly all of V for every partition, that turns one
// full sweep per partition into a sweep of the few boundary vertices.
//
// Truncation bookkeeping: vertices whose count hit the cap are marked in
// s.capped — their deg entry is a lower bound on the true h-degree, which
// the cleaning cascade must not treat as an upper bound. When decrements
// drag a capped entry below kmin, the vertex is re-verified with the
// threshold kernel (HDegreeAtLeast semantics) before it may be evicted:
// eviction only ever acts on exact counts. The LB3 minimum stays sound
// because a truncated minimum can only under-estimate the true minimum,
// and LB3 is a lower bound.
//
// On return the alive mask reflects the cleaned partition; s.deg holds the
// (possibly capped, flagged) h-degrees of step (1); s.lb3 has been raised
// in place. The s.dirty set marks surviving vertices whose degree was
// touched by the cleaning cascade: their s.deg value is no longer
// trustworthy. For every clean survivor s.deg is exact-or-capped even
// after removals — a removed vertex w can only affect v's h-neighborhood
// if some vertex within distance h of v routes through w, which forces w
// itself within distance h of v, i.e. v would have been decremented.
//
//khcore:peel
//khcore:vset-caller-epoch capped alive
func (s *partitionSolver) improveLB(part []int32, kmin, kmax int, b runBounds) {
	s.dirty.Clear()
	if len(part) == 0 {
		return
	}
	// Step 1: h-degrees inside G[V[kmin]], truncated above the partition's
	// top level: the phase-1 count where the h-ball lies inside V[kmin],
	// a count-only sweep of the rest on the solver's traversal. The
	// recount list borrows the cascade stack, which step 3 only needs
	// afterwards.
	capd := kmax + 1 + s.slack
	recount := s.cascade[:0]
	for _, v := range part {
		if int(b.ubMin[v]) >= kmin {
			s.deg[v] = min(b.degH[v], int32(capd))
		} else {
			recount = append(recount, v)
		}
	}
	s.stats.HDegreeComputations += s.hdegCappedBatch(recount, capd)
	for _, v := range part {
		if int(s.deg[v]) >= capd {
			s.capped.Add(int(v))
		} else {
			s.capped.Remove(int(v))
		}
	}

	// Step 2: Property 3 — every partition member's core index is at
	// least the minimum h-degree within the induced subgraph. A capped
	// entry under-estimates its vertex's true h-degree, so the truncated
	// minimum is still a valid lower bound.
	minDeg := s.deg[part[0]]
	for _, v := range part[1:] {
		if s.deg[v] < minDeg {
			minDeg = s.deg[v]
		}
	}
	lb3 := s.lb3
	for _, v := range part {
		if minDeg > lb3[v] {
			lb3[v] = minDeg
		}
	}

	// Step 3: cascade-clean vertices that cannot reach h-degree kmin.
	// Exact decrement-only updates give an upper bound on the true
	// h-degree, so dropping below kmin is a sound eviction test; capped
	// entries are re-verified first. Vertices whose core index lies in a
	// higher interval (core ≥ that interval's kmin > current kmax) can
	// never be evicted: their h-degree inside the partition is at least
	// min(core index, cap) ≥ kmin.
	t := s.t
	s.inQueue.Clear()
	cascade := s.cascade[:0]
	for _, v := range part {
		if s.deg[v] < int32(kmin) {
			cascade = append(cascade, v)
			s.inQueue.Add(int(v))
		}
	}
	ops := 0
	for len(cascade) > 0 {
		if ops++; ops&cancelCheckMask == 0 && s.cancel.stop() {
			break // canceled: the half-cleaned partition is never peeled
		}
		v := cascade[len(cascade)-1]
		cascade = cascade[:len(cascade)-1]
		if !s.alive.Contains(int(v)) {
			continue
		}
		verts, _ := t.Ball(int(v), s.h, s.alive)
		s.alive.Remove(int(v))
		s.dips = s.dips[:0]
		for _, u := range verts {
			s.deg[u]--
			s.stats.Decrements++
			s.dirty.Add(int(u))
			if s.deg[u] < int32(kmin) && !s.inQueue.Contains(int(u)) {
				s.dips = append(s.dips, u)
			}
		}
		// verts aliases the traversal scratch, so the re-verifications run
		// only after the ball has been consumed.
		//khcore:poll-ok bounded by one ball's dips; the enclosing cascade loop polls every pop
		for _, u := range s.dips {
			if s.capped.Contains(int(u)) {
				// The entry was a truncated lower bound; count again, far
				// enough to decide the eviction.
				d := t.HDegreeCapped(int(u), s.h, s.alive, kmin+s.slack)
				s.stats.HDegreeComputations++
				s.deg[u] = int32(d)
				if d >= kmin+s.slack {
					// Still truncated — and still safely above kmin.
				} else {
					s.capped.Remove(int(u))
				}
				if d >= kmin {
					continue // survives the eviction test after all
				}
			}
			cascade = append(cascade, u)
			s.inQueue.Add(int(u))
		}
	}
	s.cascade = cascade[:0]
}
