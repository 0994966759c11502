package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Req    int64          `json:"req"`
	Name   string         `json:"name"`
	Start  time.Duration  `json:"startNs"`
	End    time.Duration  `json:"endNs"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq returns a fresh request id.
func (tr *tracer) newReq() int64 {
	if tr == nil {
		return 0
	}
	return tr.reqs.Add(1)
}

// begin opens a span and returns its id.
func (tr *tracer) begin(name string, parent, req int64) int64 {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int64(len(tr.spans)) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id and attaches attrs.
func (tr *tracer) end(id int64, attrs map[string]any) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id-1].End = now
	tr.spans[id-1].Attrs = attrs
}

// timed runs fn inside a root span of its own request and returns the
// span's duration.
func (tr *tracer) timed(name string, fn func()) time.Duration {
	id := tr.begin(name, 0, tr.newReq())
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.end(id, nil)
	return d
}

// named returns the closed spans called name.
func (tr *tracer) named(name string) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the durations of the spans called name, in ms.
func (tr *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range tr.named(name) {
		out = append(out, ms(s.End-s.Start))
	}
	return out
}

// layerTime is the per-name summary written with the spans: total time,
// and self time, which leaves out the part covered by child spans.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

func (tr *tracer) summary() map[string]layerTime {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range tr.spans {
		if s.End == 0 {
			continue
		}
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += ms(s.End - s.Start)
		lt.SelfMS += ms(s.End - s.Start - covered(children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	spans = slices.Clone(spans)
	slices.SortFunc(spans, func(a, b span) int { return int(a.Start - b.Start) })
	var total, lo, hi time.Duration
	for i, s := range spans {
		if i == 0 || s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		hi = max(hi, s.End)
	}
	return total + hi - lo
}

// write saves the spans with the host header, the per-name summary and
// the end-to-end metric each per-layer metric should move.
func (tr *tracer) write(path string, host hostHeader) error {
	sum := tr.summary()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(map[string]any{"host": host, "layers": sum, "targets": layerTargets, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
