// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed for a given time, checks the workload's
// outputs, and prints every metric by name with its unit: the
// end-to-end metrics untraced (-trace 0), or the per-layer metrics from
// a traced run (-trace 1). The last line of standard output is one JSON
// object; a human-readable table goes to standard error.
//
// Usage (from the repository root, through perfbench/run.sh which
// builds it):
//
//	perfbench -workload collect-disk|collect-mem -seed N -seconds S -trace 0|1 [-workdir DIR]
//
// Exit status: 0 when every check passed, 1 when a check or operation
// failed (the result is still printed), 2 on a usage or set-up error
// (nothing is printed on standard output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics the untraced run reports; BENCHMARK.json
// lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"emails_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// gcSpans are the spans that never overlap another span, so the GC
// cycles inside them are theirs; each reports "<span>.gc_cycles".
var gcSpans = map[string]bool{
	"core.new_study": true, "core.run": true,
	"ecosys.generate": true, "probe.scan": true, "whois.cluster": true,
	"honey.run_probe": true, "honey.run_honey": true,
	"vault.surrender": true, "vault.compact": true, "vault.close": true,
	"vault.open": true, "vault.readback": true,
	"experiments.materialize": true,
}

// perLayer are the metrics the traced run reports, on every workload; a
// layer a workload does not call reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.new_study_s", "s"}, {"core.run_s", "s"}, {"core.emails", "count"}, {"core.vault_records", "count"},
		{"par.rand_calls", "count"}, {"par.rand_s", "s"}, {"par.rand_alloc_mb", "MB"},
		{"spamgen.new_s", "s"}, {"spamgen.materialize_s", "s"}, {"spamgen.emails", "count"},
		{"spamfilter.classify_s", "s"}, {"spamfilter.emails", "count"}, {"spamfilter.survivor_frac", "frac"},
		{"sanitize.redact_s", "s"}, {"sanitize.texts", "count"},
		{"extract.text_s", "s"}, {"extract.attachments", "count"},
		{"vault.puts", "count"}, {"vault.put_s", "s"}, {"vault.put_mb", "MB"}, {"vault.put_errors", "count"},
		{"vault.surrender_s", "s"}, {"vault.compact_s", "s"}, {"vault.close_s", "s"},
		{"vault.open_s", "s"}, {"vault.readback_s", "s"}, {"vault.readback_errors", "count"},
		{"ecosys.generate_s", "s"}, {"ecosys.domains", "count"},
		{"probe.scan_s", "s"}, {"probe.domains", "count"},
		{"whois.cluster_s", "s"}, {"whois.clusters", "count"},
		{"honey.run_probe_s", "s"}, {"honey.run_honey_s", "s"}, {"honey.emails", "count"}, {"honey.alloc_mb", "MB"},
		{"experiments.materialize_s", "s"},
	}
	for _, d := range suiteDrivers {
		defs = append(defs, metricDef{"experiments." + d.name + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiments.checks", "count"}, metricDef{"experiments.checks_failed", "count"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_cpu_s", "s"},
		metricDef{"runtime.sched_latency_p99_ms", "ms"},
	)
	names := make([]string, 0, len(gcSpans))
	for s := range gcSpans {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		defs = append(defs, metricDef{s + ".gc_cycles", "count"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "frac"})
}()

// An untraced run makes at least minPlainIters iterations, whatever
// -seconds says, so its medians have several samples, and times
// setupsPerIter set-ups before each, spread over the run like the
// iterations are.
const (
	minPlainIters = 3
	setupsPerIter = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: collect-disk or collect-mem")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".", "directory for the run's vault and spill files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload collect-disk|collect-mem, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	b := bench{w: w, seed: *seed, dir: dir, budget: time.Duration(*secs) * time.Second}
	var res result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.plain()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	fmt.Fprintf(stderr, "perfbench: workload %s seed %d, GOMAXPROCS %d, %s\n", *name, *seed, runtime.GOMAXPROCS(0), runtime.Version())
	res.writeTable(stderr)
	line, err := json.Marshal(res.jsonLine())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// result is one run's report.
type result struct {
	defs              []metricDef
	values            map[string]float64
	attempted, failed int
	failures          []string
	notes             []string // extra stderr lines: iteration counts, steadiness, spans
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) jsonLine() jsonResult {
	m := make(map[string]jsonMetric, len(r.defs))
	for _, d := range r.defs {
		m[d.name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
	}
	return jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func (r *result) writeTable(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-36s %16.6g %s  (%d of %d checks and operations failed)\n",
		"fail_frac", float64(r.failed)/float64(r.attempted), "frac", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}
