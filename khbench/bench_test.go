package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	khcore "repro"
	"repro/internal/hbfs"
)

func TestCavemanEdgesFollowTheSeed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64) []byte {
		path := filepath.Join(dir, name)
		if err := writeEdgeList(path, cavemanEdges(fullSizes, seed)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, again, other := write("a", 7), write("again", 7), write("other", 8)
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave different edge lists")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds gave the same edge list")
	}
	sz := fullSizes
	want := float64(sz.caveBlocks*sz.caveMin*(sz.caveMin-1)/2) * sz.caveDense
	if n := float64(bytes.Count(a, []byte("\n"))); n < 0.9*want || n > 1.1*want {
		t.Errorf("caveman graph has %v edges, want about %v", n, want)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was not refused")
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 90)
	if err != nil || p90 != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p90, err)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 100 samples (5 beyond) was not refused")
	}
	if m, err := median([]float64{3, 1, 2}); err != nil || m != 2 {
		t.Errorf("median = %v, %v; want 2", m, err)
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples was not refused")
	}
}

func TestParseReply(t *testing.T) {
	cases := []struct {
		name   string
		kind   reqKind
		status int
		body   string
		ok     bool
	}{
		{"core hit", kindCore, 200, `{"h":2,"k":3,"size":2,"members":[1,4],"cached":true}`, true},
		{"core size mismatch", kindCore, 200, `{"h":2,"k":3,"size":3,"members":[1,4]}`, false},
		{"exact", kindDecompose, 200, `{"h":3,"algorithm":"h-LB+UB","coreSizes":[5,4],"durationMs":310}`, true},
		{"exact with approx block", kindDecompose, 200, `{"h":3,"coreSizes":[5],"approx":{"errorBound":3}}`, false},
		{"degraded exact", kindDecompose, 200, `{"h":3,"coreSizes":[5],"degraded":true,"approx":{"errorBound":3}}`, true},
		{"approx", kindApprox, 200, `{"h":3,"coreSizes":[5],"durationMs":60,"approx":{"seed":2,"errorBound":3,"estimateMs":40,"peelMs":20}}`, true},
		{"approx without block", kindApprox, 200, `{"h":3,"coreSizes":[5]}`, false},
		{"mutate", kindMutate, 200, `{"applied":1,"localized":true,"regionSize":96,"graphVersion":2}`, true},
		{"mutate nothing applied", kindMutate, 200, `{"applied":0,"graphVersion":2}`, false},
		{"shed", kindCore, 429, `{"error":"khserve: 4 queries already in flight","code":"overloaded"}`, false},
		{"malformed", kindCore, 200, `{"size":`, false},
	}
	for _, c := range cases {
		rep, err := parseReply(c.kind, c.status, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.name == "mutate" && rep.regionSize != 96 {
			t.Errorf("mutate: regionSize = %d, want 96", rep.regionSize)
		}
		if c.name == "exact" && rep.durationMS != 310 {
			t.Errorf("exact: durationMs = %d, want 310", rep.durationMS)
		}
	}
	a, _ := parseReply(kindApprox, 200, []byte(`{"h":3,"coreSizes":[5],"durationMs":60,"approx":{"seed":2,"estimateMs":40,"peelMs":20}}`))
	b, _ := parseReply(kindApprox, 200, []byte(`{"approx":{"peelMs":9,"seed":2,"estimateMs":1},"durationMs":11,"coreSizes":[5],"h":3}`))
	if !bytes.Equal(a.canon, b.canon) || strings.Contains(string(a.canon), "Ms") {
		t.Errorf("canonical bodies differ or keep timings: %s vs %s", a.canon, b.canon)
	}
}

func TestToggleStreamStaysValid(t *testing.T) {
	g := khcore.FromEdges(0, cavemanEdges(smokeSizes, 3))
	edits := toggleStream(g, 2000, 3)
	final, err := applyEdits(g, edits)
	if err != nil {
		t.Fatalf("stream does not apply in order: %v", err)
	}
	if final.NumVertices() != g.NumVertices() {
		t.Errorf("stream changed the vertex count: %d -> %d", g.NumVertices(), final.NumVertices())
	}
	for i, e := range edits {
		if e.U == e.V {
			t.Fatalf("edit %d is a self-loop", i)
		}
		for _, f := range edits[max(0, i-toggleWindow+1):i] {
			if f.U == e.U && f.V == e.V {
				t.Fatalf("edit %d repeats a pair within the window", i)
			}
		}
	}
	// Edits in flight together may land in either order.
	swapped := slices.Clone(edits)
	for i := 0; i+1 < len(swapped); i += 2 {
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	}
	if _, err := applyEdits(g, swapped); err != nil {
		t.Errorf("stream with neighbouring edits swapped does not apply: %v", err)
	}
	if again := toggleStream(g, 2000, 3); !slices.Equal(again, edits) {
		t.Error("the same seed gave a different toggle stream")
	}
}

func TestSmokeRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds khserve and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "khserve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/khserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building khserve: %v\n%s", err, out)
	}
	// Long enough for every p90 to have its samples under the race detector.
	cfg := config{seed: 5, seconds: 4 * time.Second, khserve: bin, out: dir, sz: smokeSizes}
	if err := runSmoke(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLayerTargetsMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range bench.PerLayer {
		listed[m.Name] = true
		if layerTargets[m.Name] == "" {
			t.Errorf("per-layer metric %s has no target", m.Name)
		}
	}
	for name := range layerTargets {
		if !listed[name] {
			t.Errorf("target of %s, which BENCHMARK.json does not list", name)
		}
	}
}

func TestLeakedHelpersCountsUnclosedPools(t *testing.T) {
	g := khcore.RoadGrid(40, 40, 0.1, 0.05, 1)
	verts := make([]int32, g.NumVertices()) // enough for a parallel batch
	for v := range verts {
		verts[v] = int32(v)
	}
	out := make([]int32, len(verts))
	var keep []*hbfs.Pool
	run := func(closePool bool) func() {
		return func() {
			p := hbfs.NewPool(g, 3) // two helpers, started on first use
			p.HDegrees(verts, 2, nil, out)
			if closePool {
				p.Close()
			}
			keep = append(keep, p)
		}
	}
	if n := leakedHelpers(run(false)); n != 2 {
		t.Errorf("an unclosed 3-worker pool leaked %d helpers, want 2", n)
	}
	if n := leakedHelpers(run(true)); n != 0 {
		t.Errorf("a closed pool leaked %d helpers, want 0", n)
	}
	for _, p := range keep {
		p.Close()
	}
}
