package core

// runHBZ implements Algorithm 1 (h-BZ): the distance-generalized
// Batagelj–Zaveršnik peeling. Vertices are bucketed by h-degree and
// processed in increasing order; every removal re-computes the h-degree of
// every vertex in the removed vertex's h-neighborhood. The run peels
// inside the sequential solver arena (solver 0), with the batch
// recomputations fanned out over the engine's worker pool.
//
//khcore:peel
//khcore:vset-caller-epoch alive
func (e *Engine) runHBZ() {
	n := e.g.NumVertices()
	if n == 0 {
		return
	}
	s := e.sv[0]
	// Lines 1–3: initial h-degrees (parallel count-only sweep, §4.6) and
	// bucketing.
	e.stats.HDegreeComputations += e.pool.HDegrees(e.allVerts(), e.h, s.alive, s.deg)
	for v := 0; v < n; v++ {
		s.q.insert(v, int(s.deg[v]))
	}

	// Lines 4–11: peel in increasing h-degree order. Every pop pays a full
	// Ball plus a batched recomputation, so the cancellation poll runs on
	// every iteration rather than amortized.
	k := 0
	for s.q.Len() > 0 {
		if e.cancel.stop() {
			return
		}
		v, kv := s.q.PopMin(k)
		if v < 0 {
			break
		}
		if kv > k {
			k = kv
		}
		e.core[v] = int32(k)

		// Collect N_{G[V]}(v, h) before deleting v, then delete. The ball
		// aliases the traversal scratch; it is consumed into rebuf before
		// the batched recomputation below reuses that scratch.
		verts, _ := e.trav().Ball(v, e.h, s.alive)
		s.alive.Remove(v)

		// Re-compute the h-degree of every h-neighbor (batched over the
		// worker pool) and re-bucket. Algorithm 1 recomputes exact values
		// for the whole neighborhood — that is what makes it the baseline.
		s.rebuf = s.rebuf[:0]
		for _, u := range verts {
			if s.q.Contains(int(u)) {
				s.rebuf = append(s.rebuf, u)
			}
		}
		e.stats.HDegreeComputations += e.pool.HDegrees(s.rebuf, e.h, s.alive, s.deg)
		for _, u := range s.rebuf {
			nk := int(s.deg[u])
			if nk < k {
				nk = k
			}
			s.q.move(int(u), nk)
		}
	}
}
