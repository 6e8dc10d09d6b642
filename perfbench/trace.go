package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans live in memory and are written
// out when the run ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	gcCycles   uint64        // GC cycles that completed inside the span
	allocBytes uint64        // heap bytes allocated inside the span (all goroutines)
}

// tracer records spans and the layer counts read at the same
// boundaries. A nil *tracer is the untraced run: every method is a
// no-op, so traced and untraced runs share one code path.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span; the returned func closes it. Every span is a
// call the benchmark makes directly, so none has a parent.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	rt0 := readRuntime()
	start := time.Since(t.origin)
	return func() {
		end := time.Since(t.origin)
		rt1 := readRuntime()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans = append(t.spans, span{
			name: name, start: start, end: end,
			gcCycles:   rt1.gcCycles - rt0.gcCycles,
			allocBytes: rt1.allocBytes - rt0.allocBytes,
		})
	}
}

// add accumulates a layer count or a layer's busy seconds.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += v
}

// spanMetrics turns the spans into per-layer metrics: "<span>_s" for
// every span's duration, "<span>.gc_cycles" for the sequential spans
// named in gcSpans, plus honey.alloc_mb over the honey spans.
func (t *tracer) spanMetrics() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts)+2*len(t.spans))
	for k, v := range t.counts {
		out[k] = v
	}
	for _, s := range t.spans {
		out[s.name+"_s"] += (s.end - s.start).Seconds()
		if gcSpans[s.name] {
			out[s.name+".gc_cycles"] += float64(s.gcCycles)
		}
		if s.name == "honey.run_probe" || s.name == "honey.run_honey" {
			out["honey.alloc_mb"] += float64(s.allocBytes) / mib
		}
	}
	return out
}

// write prints the spans in start order with their duration, GC
// cycles and allocation.
func (t *tracer) write(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	fmt.Fprintf(w, "  %-26s %10s %10s %6s %10s\n", "span", "start_s", "dur_s", "gc", "alloc_MB")
	for _, s := range spans {
		fmt.Fprintf(w, "  %-26s %10.4f %10.4f %6d %10.1f\n",
			s.name, s.start.Seconds(), (s.end - s.start).Seconds(), s.gcCycles, float64(s.allocBytes)/mib)
	}
}
