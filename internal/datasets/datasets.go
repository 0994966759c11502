// Package datasets provides the synthetic stand-ins for the paper's
// thirteen evaluation graphs (Table 1). The module is offline, so each real
// dataset is replaced by a deterministic generator from the same topology
// class (sparse biological, dense collaboration, heavy-tailed social,
// near-planar road network) at a size small enough for a test harness; the
// Scale field records the reduction factor. The experiments reproduce
// relative behaviour (which algorithm wins, how bounds tighten by graph
// family), which depends on topology class rather than raw size;
// TestTopologyClassSignatures pins each analog's class signature.
package datasets

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Class describes the topology family of a dataset.
type Class string

// Topology classes of the paper's datasets.
const (
	Biological    Class = "biological"
	Collaboration Class = "collaboration"
	Social        Class = "social"
	Road          Class = "road"
	CoPurchase    Class = "co-purchase"
)

// Dataset is a named synthetic analog of one of the paper's graphs.
type Dataset struct {
	// Name is the paper's short dataset name (Table 1).
	Name string
	// Class is the topology family driving the generator choice.
	Class Class
	// PaperV and PaperE are the original |V| and |E| from Table 1.
	PaperV, PaperE int
	// Scale is the approximate linear reduction factor (1 = full size).
	Scale float64
	// Build generates the graph (deterministic per name).
	Build func() *graph.Graph
}

// registry lists the analogs in Table 1 order.
var registry = []Dataset{
	{
		Name: "coli", Class: Biological, PaperV: 328, PaperE: 456, Scale: 1,
		Build: func() *graph.Graph { return gen.ErdosRenyi(328, 456, 0xC011) },
	},
	{
		Name: "cele", Class: Biological, PaperV: 346, PaperE: 1493, Scale: 1,
		Build: func() *graph.Graph { return gen.BarabasiAlbert(346, 4, 0xCE1E) },
	},
	{
		Name: "jazz", Class: Collaboration, PaperV: 198, PaperE: 2742, Scale: 1,
		Build: func() *graph.Graph { return gen.Communities(198, 28, 9, 18, 0.6, 0x3A22) },
	},
	{
		Name: "FBco", Class: Social, PaperV: 4039, PaperE: 88234, Scale: 4,
		Build: func() *graph.Graph { return gen.Communities(1000, 90, 14, 28, 0.6, 0xFBC0) },
	},
	{
		Name: "caHe", Class: Collaboration, PaperV: 11204, PaperE: 117619, Scale: 8,
		Build: func() *graph.Graph { return gen.Communities(1400, 180, 6, 14, 0.4, 0xCA4E) },
	},
	{
		Name: "caAs", Class: Collaboration, PaperV: 17903, PaperE: 196972, Scale: 9,
		Build: func() *graph.Graph { return gen.Communities(2000, 260, 6, 14, 0.4, 0xCAA5) },
	},
	{
		Name: "doub", Class: Social, PaperV: 154908, PaperE: 327162, Scale: 50,
		Build: func() *graph.Graph { return gen.BarabasiAlbert(3000, 2, 0xD00B) },
	},
	{
		Name: "amzn", Class: CoPurchase, PaperV: 334863, PaperE: 925872, Scale: 90,
		Build: func() *graph.Graph { return gen.Communities(3600, 1100, 3, 5, 0.25, 0xA32A) },
	},
	{
		Name: "rnPA", Class: Road, PaperV: 1090920, PaperE: 1541898, Scale: 400,
		Build: func() *graph.Graph { return gen.RoadGrid(52, 52, 0.12, 0.03, 0x52FA) },
	},
	{
		Name: "rnTX", Class: Road, PaperV: 1393383, PaperE: 1921660, Scale: 400,
		Build: func() *graph.Graph { return gen.RoadGrid(60, 58, 0.12, 0.03, 0x527A) },
	},
	{
		Name: "sytb", Class: Social, PaperV: 495957, PaperE: 1936748, Scale: 120,
		Build: func() *graph.Graph { return gen.BarabasiAlbert(4000, 2, 0x5717) },
	},
	{
		Name: "hyves", Class: Social, PaperV: 1402673, PaperE: 2777419, Scale: 300,
		Build: func() *graph.Graph { return gen.BarabasiAlbert(4600, 2, 0x4175) },
	},
	{
		Name: "lj", Class: Social, PaperV: 4847571, PaperE: 68993773, Scale: 480,
		Build: func() *graph.Graph { return gen.BarabasiAlbert(10000, 7, 0x0019) },
	},
}

// Names returns the dataset names in Table 1 order.
func Names() []string {
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.Name
	}
	return names
}

// Get returns the descriptor for a named dataset.
func Get(name string) (Dataset, error) {
	for _, d := range registry {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("%w %q (known: %v)", ErrUnknownDataset, name, Names())
}

// Load builds the named dataset's graph. A name containing a path
// separator (or a non-registry name naming an existing file) is treated
// as a SNAP edge-list path and read with LoadFile, so benchmarks and
// experiments accept real downloaded graphs alongside the synthetic
// registry. Registry names never contain separators and always win over
// a same-named file.
func Load(name string) (*graph.Graph, error) {
	if strings.ContainsAny(name, `/\`) {
		return LoadFile(name)
	}
	d, err := Get(name)
	if err != nil {
		if info, statErr := os.Stat(name); statErr == nil && info.Mode().IsRegular() {
			return LoadFile(name)
		}
		return nil, err
	}
	return d.Build(), nil
}

// LoadFile reads a SNAP-style whitespace edge list ('#'/'%' comments
// allowed) from path, compacting arbitrary vertex ids to 0..N-1.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	defer f.Close()
	g, _, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s: %w", path, err)
	}
	return g, nil
}

// All returns every descriptor in Table 1 order.
func All() []Dataset {
	out := make([]Dataset, len(registry))
	copy(out, registry)
	return out
}

// Small returns the datasets cheap enough for exhaustive per-test use
// (the three full-scale graphs of Table 1).
func Small() []Dataset {
	var out []Dataset
	for _, d := range registry {
		if d.Scale == 1 {
			out = append(out, d)
		}
	}
	return out
}

// ByClass returns the datasets of a topology class, sorted by name.
func ByClass(c Class) []Dataset {
	var out []Dataset
	for _, d := range registry {
		if d.Class == c {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
