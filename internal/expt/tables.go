package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
)

// Table1Row mirrors a row of the paper's Table 1 (dataset characteristics),
// with both the analog's measured statistics and the paper's originals.
type Table1Row struct {
	Dataset        string
	V, E           int
	AvgDeg         float64
	MaxDeg         int
	DiamLB         int // double-sweep lower bound (exact on trees)
	PaperV, PaperE int
	Scale          float64
}

// Table1 measures every registry dataset (Table 1).
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	names := cfg.pick(datasets.Names())
	rows := make([]Table1Row, 0, len(names))
	for _, name := range names {
		// Registry metadata (the paper's original |V|/|E| and the scale
		// factor) only exists for registry names; a SNAP file passed via
		// -dataset measures at full scale with no paper row to mirror.
		var d datasets.Dataset
		if reg, err := datasets.Get(name); err == nil {
			d = reg
		} else {
			d = datasets.Dataset{Name: name, Scale: 1}
		}
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		// Sweep from inside the largest component: grid dropout and
		// sparse ER can leave vertex 0 isolated.
		sweepStart := 0
		if lc := g.LargestComponent(); len(lc) > 0 {
			sweepStart = lc[0]
		}
		rows = append(rows, Table1Row{
			Dataset: name,
			V:       g.NumVertices(),
			E:       g.NumEdges(),
			AvgDeg:  g.AvgDegree(),
			MaxDeg:  g.MaxDegree(),
			DiamLB:  g.EstimateDiameter(sweepStart),
			PaperV:  d.PaperV,
			PaperE:  d.PaperE,
			Scale:   d.Scale,
		})
	}
	return rows, nil
}

// RenderTable1 renders Table 1.
func RenderTable1(rows []Table1Row) *Table {
	t := &Table{
		ID:     "table1",
		Title:  "dataset characteristics (synthetic analogs; paper sizes for reference)",
		Header: []string{"dataset", "|V|", "|E|", "avg deg", "max deg", "diam≥", "paper |V|", "paper |E|", "scale"},
		Notes:  []string{"offline substitution: deterministic generators per topology class (see the internal/datasets package doc); diam is a double-sweep lower bound"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprint(r.V), fmt.Sprint(r.E), fmt.Sprintf("%.2f", r.AvgDeg),
			fmt.Sprint(r.MaxDeg), fmt.Sprint(r.DiamLB),
			fmt.Sprint(r.PaperV), fmt.Sprint(r.PaperE), fmt.Sprintf("1/%.0f", r.Scale),
		})
	}
	return t
}

// Table2Row is one (dataset, h) cell of Table 2: maximum core index and
// number of distinct cores.
type Table2Row struct {
	Dataset  string
	H        int
	MaxCore  int
	Distinct int
}

// table2Datasets mirrors the paper's Table 2 selection.
var table2Datasets = []string{"coli", "cele", "jazz", "FBco", "caHe", "caAs"}

// Table2 characterizes the (k,h)-cores for h = 1..5 (Table 2).
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, name := range cfg.pick(table2Datasets) {
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		for h := 1; h <= cfg.maxH(5); h++ {
			res, err := cfg.decompose(g, h, core.HLBUB)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{Dataset: name, H: h, MaxCore: res.MaxCoreIndex(), Distinct: res.DistinctCores()})
		}
	}
	return rows, nil
}

// RenderTable2 renders Table 2 in the paper's "max/distinct" cell format.
func RenderTable2(rows []Table2Row) *Table {
	t := &Table{
		ID:     "table2",
		Title:  "maximum core index / number of distinct cores",
		Header: []string{"dataset", "h", "max core", "distinct cores"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Dataset, fmt.Sprint(r.H), fmt.Sprint(r.MaxCore), fmt.Sprint(r.Distinct)})
	}
	return t
}

// Table3Row is one (dataset, algorithm, h) cell of Table 3: runtime and
// h-BFS visit count.
type Table3Row struct {
	Dataset   string
	Algorithm core.Algorithm
	H         int
	Runtime   time.Duration
	Visits    int64
	HDegComps int64
}

var table3Datasets = []string{"FBco", "caHe", "caAs", "amzn", "rnPA"}

// Table3 compares h-BZ, h-LB and h-LB+UB on runtime and visit counts
// (Table 3). The baseline h-BZ dominates the cost; cap its datasets with
// cfg.MaxVertices when running interactively.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table3Row
	for _, name := range cfg.pick(table3Datasets) {
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		for h := 2; h <= cfg.maxH(4); h++ {
			for _, alg := range []core.Algorithm{core.HBZ, core.HLB, core.HLBUB} {
				res, err := cfg.decompose(g, h, alg)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Table3Row{
					Dataset: name, Algorithm: alg, H: h,
					Runtime: res.Stats.Duration, Visits: res.Stats.Visits,
					HDegComps: res.Stats.HDegreeComputations,
				})
			}
		}
	}
	return rows, nil
}

// RenderTable3 renders Table 3.
func RenderTable3(rows []Table3Row) *Table {
	t := &Table{
		ID:     "table3",
		Title:  "runtime and h-BFS visits per algorithm",
		Header: []string{"dataset", "h", "algorithm", "runtime", "visits", "h-deg computations"},
		Notes:  []string{"paper shape: h-LB and h-LB+UB cut visits by ≥1 order of magnitude vs h-BZ; h-LB wins on road networks, h-LB+UB on dense graphs at h ≥ 3"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprint(r.H), r.Algorithm.String(),
			fdur(r.Runtime), fmt.Sprint(r.Visits), fmt.Sprint(r.HDegComps),
		})
	}
	return t
}

// Table4Row is one (dataset, h) row of Table 4: bound tightness.
type Table4Row struct {
	Dataset string
	H       int
	// RelErr and Tight give mean relative error vs the true core index
	// and the fraction of vertices where the bound is exact.
	LB1RelErr, LB2RelErr float64
	LB1Tight, LB2Tight   float64
	HDegRelErr, UBRelErr float64
	HDegTight, UBTight   float64
}

var table4Datasets = []string{"caHe", "caAs", "amzn", "rnPA"}

// Table4 measures the quality of LB1/LB2 (left half) and of the h-degree
// vs Algorithm-5 upper bounds (right half), as in Table 4.
func Table4(cfg Config) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table4Row
	for _, name := range cfg.pick(table4Datasets) {
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		for h := 2; h <= cfg.maxH(4); h++ {
			res, err := cfg.decompose(g, h, core.HLBUB)
			if err != nil {
				return nil, err
			}
			lb1, lb2 := core.LowerBounds(g, h, cfg.Workers)
			ub := core.UpperBounds(g, h, cfg.Workers)
			degH := core.HDegrees(g, h, cfg.Workers)
			row := Table4Row{Dataset: name, H: h}
			n := 0
			for v, c := range res.Core {
				if c == 0 {
					continue // relative error undefined at core 0
				}
				n++
				cf := float64(c)
				row.LB1RelErr += (cf - float64(lb1[v])) / cf
				row.LB2RelErr += (cf - float64(lb2[v])) / cf
				row.HDegRelErr += (float64(degH[v]) - cf) / cf
				row.UBRelErr += (float64(ub[v]) - cf) / cf
				if int(lb1[v]) == c {
					row.LB1Tight++
				}
				if int(lb2[v]) == c {
					row.LB2Tight++
				}
				if int(degH[v]) == c {
					row.HDegTight++
				}
				if int(ub[v]) == c {
					row.UBTight++
				}
			}
			if n > 0 {
				f := float64(n)
				row.LB1RelErr /= f
				row.LB2RelErr /= f
				row.HDegRelErr /= f
				row.UBRelErr /= f
				row.LB1Tight /= f
				row.LB2Tight /= f
				row.HDegTight /= f
				row.UBTight /= f
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable4 renders Table 4.
func RenderTable4(rows []Table4Row) *Table {
	t := &Table{
		ID:     "table4",
		Title:  "bound quality: relative error / fraction tight",
		Header: []string{"dataset", "h", "LB1 err/tight", "LB2 err/tight", "h-deg err/tight", "UB err/tight"},
		Notes:  []string{"paper shape: LB2 tighter than LB1 everywhere; UB dramatically tighter than the raw h-degree"},
	}
	for _, r := range rows {
		cell := func(err, tight float64) string {
			return fmt.Sprintf("%.2f / %.1f%%", err, 100*tight)
		}
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprint(r.H),
			cell(r.LB1RelErr, r.LB1Tight), cell(r.LB2RelErr, r.LB2Tight),
			cell(r.HDegRelErr, r.HDegTight), cell(r.UBRelErr, r.UBTight),
		})
	}
	return t
}

// Table5Row is one (dataset, h) row of Table 5: the runtime effect of each
// bound in isolation.
type Table5Row struct {
	Dataset string
	H       int
	// NoLB is h-BZ; LB1/LB2 are h-LB with each lower bound; HDegUB/UB are
	// h-LB+UB with each upper bound.
	NoLB, LB1, LB2, HDegUB, UB time.Duration
	// Visit counts for the same five variants.
	NoLBVisits, LB1Visits, LB2Visits, HDegUBVisits, UBVisits int64
}

// Table5 reproduces the bound ablation (Table 5).
func Table5(cfg Config) ([]Table5Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table5Row
	for _, name := range cfg.pick(table4Datasets) {
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		for h := 2; h <= cfg.maxH(4); h++ {
			row := Table5Row{Dataset: name, H: h}
			run := func(opts core.Options) (*core.Result, error) {
				opts.H = h
				opts.Workers = cfg.Workers
				opts.AllowBaseline = true // ablation harness: baselines wanted
				return core.Decompose(g, opts)
			}
			r, err := run(core.Options{Algorithm: core.HBZ})
			if err != nil {
				return nil, err
			}
			row.NoLB, row.NoLBVisits = r.Stats.Duration, r.Stats.Visits
			r, err = run(core.Options{Algorithm: core.HLB, LowerBound: core.LB1Bound})
			if err != nil {
				return nil, err
			}
			row.LB1, row.LB1Visits = r.Stats.Duration, r.Stats.Visits
			r, err = run(core.Options{Algorithm: core.HLB, LowerBound: core.LB2Bound})
			if err != nil {
				return nil, err
			}
			row.LB2, row.LB2Visits = r.Stats.Duration, r.Stats.Visits
			r, err = run(core.Options{Algorithm: core.HLBUB, UpperBound: core.HDegreeUB})
			if err != nil {
				return nil, err
			}
			row.HDegUB, row.HDegUBVisits = r.Stats.Duration, r.Stats.Visits
			r, err = run(core.Options{Algorithm: core.HLBUB, UpperBound: core.PowerUB})
			if err != nil {
				return nil, err
			}
			row.UB, row.UBVisits = r.Stats.Duration, r.Stats.Visits
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable5 renders Table 5.
func RenderTable5(rows []Table5Row) *Table {
	t := &Table{
		ID:     "table5",
		Title:  "effect of bounds on runtime (no LB = h-BZ; LB1/LB2 = h-LB variants; h-degree/UB = h-LB+UB variants)",
		Header: []string{"dataset", "h", "no LB", "LB1", "LB2", "h-degree UB", "UB"},
		Notes:  []string{"paper shape: lower bounds buy ~an order of magnitude; the Algorithm-5 UB beats the raw h-degree on harder instances"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprint(r.H),
			fdur(r.NoLB), fdur(r.LB1), fdur(r.LB2), fdur(r.HDegUB), fdur(r.UB),
		})
	}
	return t
}
