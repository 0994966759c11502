package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	khcore "repro"
)

// sizes fixes the input sizes and request rates of every workload. The full
// sizes keep a decompose run near 150 ms on a 2-core host, so a 30 s run
// has well over 100 samples for its p90. The serve-live caveman graph has
// equal blocks, so seeds change its edges but not its shape, and is small
// enough (an exact h=3 run near 200 ms, an approximate one near 40 ms with
// one worker) that a run still collects several hundred queries.
//
// The rates were set from the engines' busy share (serve.busy_frac and
// pool.busy_frac of a traced run) on a 2-vCPU Intel Xeon: 45/s keeps the
// daemon's engines about 20% busy. The peak rate, 100/s, kept the backlog
// steady in five of seven traced runs at 41-55% busy; at 115/s (50%) and
// 130/s (52%) it grew. A busier peak cannot be held there, because the at
// most nproc connections also carry the mutations and the cached reads.
// Capacity follows the load of the host's other guests: the beyond-capacity
// flag of each phase says whether its latencies are a steady state.
type sizes struct {
	roadSide   int     // RoadGrid is roadSide × roadSide
	baVertices int     // BarabasiAlbert vertex count, 4 edges per vertex
	caveBlocks int     // caveman blocks on the ring
	caveMin    int     // smallest block
	caveMax    int     // largest block
	caveDense  float64 // intra-block edge probability
	nominal    float64 // serve-live nominal arrival rate, requests/s
	peak       float64 // serve-live peak arrival rate, requests/s
}

var fullSizes = sizes{
	roadSide: 180, baVertices: 12000,
	caveBlocks: 40, caveMin: 40, caveMax: 40, caveDense: 0.72,
	nominal: 45, peak: 100,
}

// smokeSizes are small enough that a one-second run of any workload has
// the samples its percentiles need.
var smokeSizes = sizes{
	roadSide: 12, baVertices: 60,
	caveBlocks: 8, caveMin: 8, caveMax: 12, caveDense: 0.7,
	nominal: 250, peak: 400,
}

// decomposeSpec is one batch-decomposition workload.
type decomposeSpec struct {
	h     int
	graph func(seed uint64) *khcore.Graph
}

func roadSpec(sz sizes) decomposeSpec {
	return decomposeSpec{h: 3, graph: func(seed uint64) *khcore.Graph {
		return khcore.RoadGrid(sz.roadSide, sz.roadSide, 0.1, 0.05, seed)
	}}
}

func skewedSpec(sz sizes) decomposeSpec {
	return decomposeSpec{h: 2, graph: func(seed uint64) *khcore.Graph {
		return khcore.BarabasiAlbert(sz.baVertices, 4, seed)
	}}
}

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// Streams split one seed into independent generators.
const (
	streamCaveman uint64 = iota + 1
	streamToggles
	streamSchedule
)

// cavemanEdges generates a ring of dense blocks: each block is a random
// graph of the given density, and consecutive blocks are joined by two
// bridge edges. Edges are listed block by block, bridges last.
func cavemanEdges(sz sizes, seed uint64) [][2]int {
	rng := newRand(seed, streamCaveman)
	starts := make([]int, sz.caveBlocks+1)
	for b := 0; b < sz.caveBlocks; b++ {
		starts[b+1] = starts[b] + sz.caveMin + rng.IntN(sz.caveMax-sz.caveMin+1)
	}
	var edges [][2]int
	for b := 0; b < sz.caveBlocks; b++ {
		for u := starts[b]; u < starts[b+1]; u++ {
			for v := u + 1; v < starts[b+1]; v++ {
				if rng.Float64() < sz.caveDense {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
	}
	for b := 0; b < sz.caveBlocks; b++ {
		next := (b + 1) % sz.caveBlocks
		for i := 0; i < 2; i++ {
			u := starts[b] + rng.IntN(starts[b+1]-starts[b])
			v := starts[next] + rng.IntN(starts[next+1]-starts[next])
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// writeEdgeList writes edges in the SNAP format khserve reads.
func writeEdgeList(path string, edges [][2]int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range edges {
		fmt.Fprintf(w, "%d %d\n", e[0], e[1])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readEdgeList loads a graph the way khserve does, so the benchmark's copy
// numbers vertices exactly as the daemon does.
func readEdgeList(path string) (*khcore.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := khcore.ReadEdgeList(f)
	return g, err
}

// graphEdges lists the edges of g with u < v.
func graphEdges(g *khcore.Graph) [][2]int {
	edges := make([][2]int, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < int(v) {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	return edges
}

// toggleWindow is how many consecutive edits of a toggle stream touch
// pairwise distinct vertex pairs. Edits that are in flight together can
// then land in any order and every one of them stays valid.
const toggleWindow = 64

// toggleStream returns count single-edge edits on g. Each edit toggles a
// pair at distance at most two in g, so repairs stay local: it deletes the
// edge when the pair is joined after the earlier edits and inserts it
// otherwise, so every edit is valid when the stream is applied in order.
func toggleStream(g *khcore.Graph, count int, seed uint64) []khcore.EdgeEdit {
	rng := newRand(seed, streamToggles)
	flipped := map[[2]int]bool{}
	var recent [][2]int
	edits := make([]khcore.EdgeEdit, 0, count)
	n := g.NumVertices()
	for len(edits) < count {
		u := rng.IntN(n)
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		mid := int(nb[rng.IntN(len(nb))])
		nb2 := g.Neighbors(mid)
		w := int(nb2[rng.IntN(len(nb2))])
		if w == u {
			continue
		}
		key := [2]int{min(u, w), max(u, w)}
		if inRecent(recent, key) {
			continue
		}
		op := khcore.EditInsert
		if g.HasEdge(u, w) != flipped[key] {
			op = khcore.EditDelete
		}
		flipped[key] = !flipped[key]
		edits = append(edits, khcore.EdgeEdit{U: key[0], V: key[1], Op: op})
		recent = append(recent, key)
		if len(recent) > toggleWindow {
			recent = recent[1:]
		}
	}
	return edits
}

func inRecent(recent [][2]int, key [2]int) bool {
	for _, k := range recent {
		if k == key {
			return true
		}
	}
	return false
}

// applyEdits returns g with the edits applied in order, built from scratch
// with a Builder; it is the benchmark's own copy of the final edge set.
func applyEdits(g *khcore.Graph, edits []khcore.EdgeEdit) (*khcore.Graph, error) {
	set := make(map[[2]int]bool, g.NumEdges())
	for _, e := range graphEdges(g) {
		set[e] = true
	}
	for _, e := range edits {
		key := [2]int{min(e.U, e.V), max(e.U, e.V)}
		switch {
		case e.Op == khcore.EditInsert && !set[key]:
			set[key] = true
		case e.Op == khcore.EditDelete && set[key]:
			delete(set, key)
		default:
			return nil, fmt.Errorf("invalid edit %v on the benchmark's edge set", e)
		}
	}
	b := khcore.NewBuilder(g.NumVertices())
	for e := range set {
		b.AddEdge(e[0], e[1])
	}
	return b.Build(), nil
}

// reqKind is the class of one scheduled serve request.
type reqKind int

const (
	kindCore      reqKind = iota // GET /core?h=2&k=…, a cache hit
	kindDecompose                // GET /decompose?h=3, exact
	kindApprox                   // GET /decompose?h=3&mode=approx
	kindMutate                   // POST /mutate, one toggle
)

func (k reqKind) String() string {
	return [...]string{"core", "decompose", "approx", "mutate"}[k]
}

// serveDeck is the request mix: how many of every 100 consecutive requests
// belong to each class. Mutations are frequent enough for their tail
// percentile; exact /decompose is rare because every mutation turns its
// next run into a long cache miss. Dealing classes from shuffled decks
// instead of drawing each one independently fixes the count of every
// class in a run, so the few slow exact runs cannot vary from seed to seed
// and move the query tail with them.
var serveDeck = [...]int{kindCore: 55, kindDecompose: 1, kindApprox: 20, kindMutate: 24}

// newDeck returns the next 100 request classes in shuffled order.
func newDeck(rng *rand.Rand) []reqKind {
	var deck []reqKind
	for k, n := range serveDeck {
		for i := 0; i < n; i++ {
			deck = append(deck, reqKind(k))
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// approxSeeds is how many distinct sampling seeds approx requests use, so
// that requests on one graph version repeat seeds and can be compared.
const approxSeeds = 4

// request is one scheduled serve request.
type request struct {
	due   time.Duration // offset from the start of its phase
	kind  reqKind
	k     int    // /core threshold
	aseed uint64 // mode=approx sampling seed
	edit  khcore.EdgeEdit
}

// schedule draws Poisson arrivals at rate for dur, with classes from
// serveDeck and mutations taken in order from edits (advancing *next).
func schedule(rate float64, dur time.Duration, seed uint64, phase uint64, edits []khcore.EdgeEdit, next *int) ([]request, error) {
	rng := newRand(seed, streamSchedule<<8|phase)
	var reqs []request
	var deck []reqKind
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return reqs, nil
		}
		if len(deck) == 0 {
			deck = newDeck(rng)
		}
		r := request{due: time.Duration(t * float64(time.Second)), kind: deck[0]}
		deck = deck[1:]
		switch r.kind {
		case kindCore:
			r.k = 1 + rng.IntN(40)
		case kindApprox:
			r.aseed = 1 + rng.Uint64N(approxSeeds)
		case kindMutate:
			if *next >= len(edits) {
				return nil, fmt.Errorf("schedule needs more than %d toggle edits", len(edits))
			}
			r.edit = edits[*next]
			*next++
		}
		reqs = append(reqs, r)
	}
}
