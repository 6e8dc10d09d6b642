package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench runs one workload at one seed for a time budget.
type bench struct {
	w      workload
	seed   int64
	dir    string
	budget time.Duration
}

// sample is one iteration: set-up, then one run of the workload.
type sample struct {
	setup, wall, cpu float64 // seconds
	peakRSS, alloc   float64 // MiB
	gcCycles         uint64
	gcCPU, schedP99  float64 // seconds
	steal            float64 // seconds stolen from the machine's CPUs during the run
	out              outcome
}

// setupOnly times one set-up of the workload on a collected heap and
// tears it down. Set-ups are timed apart from iterations, whose own
// set-up follows a return of the heap to the OS.
func (b *bench) setupOnly() (float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := b.w.setup(b.seed, b.dir, nil)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), inst.close()
}

// iterate sets the workload up and runs it once, traced when tr is
// non-nil. The heap is collected and the peak-RSS mark reset first, so
// every iteration starts from the same state.
func (b *bench) iterate(tr *tracer) (sample, error) {
	if err := settle(); err != nil {
		return sample{}, err
	}
	start := time.Now()
	inst, err := b.w.setup(b.seed, b.dir, tr)
	setup := time.Since(start)
	if err != nil {
		return sample{}, err
	}
	rt0 := readRuntime()
	steal0 := stealSeconds()
	cpu0, err := cpuSeconds()
	if err != nil {
		return sample{}, errors.Join(err, inst.close())
	}
	start = time.Now()
	out := inst.run(tr)
	wall := time.Since(start)
	cpu1, err := cpuSeconds()
	rt1 := readRuntime()
	steal := stealSeconds() - steal0
	if err != nil {
		return sample{}, errors.Join(err, inst.close())
	}
	peak, err := peakRSSMiB()
	if err := errors.Join(err, inst.close()); err != nil {
		return sample{}, err
	}
	return sample{
		setup: setup.Seconds(), wall: wall.Seconds(), cpu: cpu1 - cpu0,
		peakRSS: peak, alloc: float64(rt1.allocBytes-rt0.allocBytes) / mib,
		gcCycles: rt1.gcCycles - rt0.gcCycles, gcCPU: rt1.gcCPU - rt0.gcCPU,
		schedP99: schedP99(rt0, rt1), steal: steal, out: out,
	}, nil
}

// plain is the untraced run: iterations until the budget is spent,
// each preceded by setupsPerIter timed set-ups; every end-to-end metric
// is the median over iterations (set-ups for setup_s).
func (b *bench) plain() (result, error) {
	var setups []float64
	var samples []sample
	start := time.Now()
	for len(samples) < minPlainIters || time.Since(start) < b.budget {
		for i := 0; i < setupsPerIter; i++ {
			s, err := b.setupOnly()
			if err != nil {
				return result{}, err
			}
			setups = append(setups, s)
		}
		s, err := b.iterate(nil)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s)
	}

	res := result{defs: endToEnd, values: make(map[string]float64)}
	col := func(f func(s sample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	res.values["setup_s"] = median(setups)
	res.values["run_s"] = col(func(s sample) float64 { return s.wall })
	res.values["cpu_s"] = col(func(s sample) float64 { return s.cpu })
	res.values["emails_per_s"] = col(func(s sample) float64 { return float64(s.out.emails) / s.wall })
	res.values["peak_rss_mb"] = col(func(s sample) float64 { return s.peakRSS })
	res.values["alloc_mb"] = col(func(s sample) float64 { return s.alloc })

	res.notes = append(res.notes, fmt.Sprintf("%d set-ups, %d iterations; per iteration:", len(setups), len(samples)),
		fmt.Sprintf("  %4s %10s %10s %10s %10s %6s %8s %8s", "iter", "run_s", "cpu_s", "rss_MB", "alloc_MB", "gc", "emails", "steal_s"))
	for i, s := range samples {
		res.notes = append(res.notes, fmt.Sprintf("  %4d %10.4f %10.4f %10.1f %10.1f %6d %8d %8.2f",
			i, s.wall, s.cpu, s.peakRSS, s.alloc, s.gcCycles, s.out.emails, s.steal))
		res.tally(s.out)
	}
	res.notes = append(res.notes, fmt.Sprintf("  median gc_cycles %.0f, steal_s %.2f (gc_cycles and alloc_mb are fixed per seed: a shift in timings without one in them, or with steal, is the machine, not the program)",
		col(func(s sample) float64 { return float64(s.gcCycles) }), col(func(s sample) float64 { return s.steal })))
	return res, nil
}

// traced alternates untraced and traced iterations until the budget is
// spent (at least one of each), then runs the workload's extras once.
// Per-layer metrics are medians over the traced iterations, merged with
// the extras; trace.overhead_frac compares the two kinds' median wall
// times.
func (b *bench) traced() (result, error) {
	res := result{defs: perLayer, values: make(map[string]float64)}
	var plainWalls, tracedWalls []float64
	var layers []map[string]float64
	var last *tracer
	start := time.Now()
	for len(layers) == 0 || time.Since(start) < b.budget {
		p, err := b.iterate(nil)
		if err != nil {
			return result{}, err
		}
		plainWalls = append(plainWalls, p.wall)
		res.tally(p.out)

		last = newTracer()
		s, err := b.iterate(last)
		if err != nil {
			return result{}, err
		}
		tracedWalls = append(tracedWalls, s.wall)
		res.tally(s.out)
		m := last.spanMetrics()
		m["runtime.gc_cycles"] = float64(s.gcCycles)
		m["runtime.gc_cpu_s"] = s.gcCPU
		m["runtime.sched_latency_p99_ms"] = s.schedP99 * 1000
		layers = append(layers, m)
	}
	keys := make(map[string]bool)
	for _, m := range layers {
		for k := range m {
			keys[k] = true
		}
	}
	for k := range keys {
		xs := make([]float64, len(layers))
		for i, m := range layers {
			xs[i] = m[k]
		}
		res.values[k] = median(xs)
	}

	extras := newTracer()
	var o outcome
	err := b.w.extras(b.seed, extras)
	o.check(err == nil, "per-layer extras: %v", err)
	res.tally(o)
	for k, v := range extras.spanMetrics() {
		res.values[k] = v
	}
	res.values["trace.overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1

	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.name] = true
	}
	var unknown []string
	for k := range res.values {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return result{}, fmt.Errorf("traced run produced metrics missing from the per-layer list: %s", strings.Join(unknown, ", "))
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%d untraced and %d traced iterations; spans of the last traced iteration:\n", len(plainWalls), len(tracedWalls))
	last.write(&sb)
	sb.WriteString("spans of the per-layer extras:\n")
	extras.write(&sb)
	res.notes = append(res.notes, strings.TrimRight(sb.String(), "\n"))
	return res, nil
}

// tally adds one run's checks to the result.
func (r *result) tally(o outcome) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, f)
		}
	}
}
