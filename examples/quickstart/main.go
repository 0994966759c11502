// Quickstart: build a graph, run the distance-generalized core
// decomposition with each algorithm, and inspect the cores — including the
// paper's Figure 1 example, where the classic decomposition sees a single
// core but the (k,2)-decomposition separates three structural layers.
package main

import (
	"fmt"
	"log"

	khcore "repro"
)

func main() {
	// The paper's Figure 1 graph (vertex i = paper vertex i+1).
	g := khcore.PaperGraph()
	fmt.Printf("paper example: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	// Classic core decomposition (h = 1): every vertex lands in core 2.
	classic, err := khcore.Decompose(g, khcore.Options{H: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(k,1)-cores (classic):", classic.Core)

	// Distance-2 decomposition: three layers appear (paper Example 1).
	res, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: khcore.HLBUB})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(k,2)-cores          :", res.Core)
	fmt.Printf("max core index Ĉ2 = %d, distinct cores = %d\n\n", res.MaxCoreIndex(), res.DistinctCores())

	// The three algorithms agree; they differ in how much work they do.
	for _, alg := range []khcore.Algorithm{khcore.HBZ, khcore.HLB, khcore.HLBUB} {
		r, err := khcore.Decompose(g, khcore.Options{H: 2, Algorithm: alg, AllowBaseline: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s h-BFS visits=%5d  h-degree computations=%3d\n",
			alg, r.Stats.Visits, r.Stats.HDegreeComputations)
	}

	// Per-vertex bounds: LB1 ≤ LB2 ≤ core ≤ UB ≤ deg^h.
	lb1, lb2 := khcore.LowerBounds(g, 2, 0)
	ub := khcore.UpperBounds(g, 2, 0)
	fmt.Println("\nvertex  LB1 LB2 core UB")
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Printf("v%-6d %3d %3d %4d %2d\n", v+1, lb1[v], lb2[v], res.Core[v], ub[v])
	}

	// Every result can be independently verified.
	if err := khcore.Validate(g, 2, res.Core); err != nil {
		log.Fatal("validation failed: ", err)
	}
	fmt.Println("\ndecomposition independently validated ✓")

	// Serving workloads: a long-lived Engine answers repeated queries from
	// one reusable scratch arena — zero steady-state allocations.
	eng := khcore.NewEngine(g, 1)
	defer eng.Close()
	var out khcore.Result
	fmt.Println("\nengine sweep over h:")
	for h := 1; h <= 3; h++ {
		if err := eng.DecomposeInto(&out, khcore.Options{H: h, Algorithm: khcore.HLBUB}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  h=%d: max core %d\n", h, out.MaxCoreIndex())
	}
}
