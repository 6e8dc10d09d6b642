// Command benchjson parses `go test -bench -benchmem` output on stdin
// into a machine-diffable JSON snapshot on stdout. `make bench` uses it
// to produce the committed benchmark baselines (BENCH_<n>.json), so a
// later change can be compared line-by-line against the numbers the
// optimization PR recorded.
//
// The standard benchmark metrics are kept as named fields (iterations,
// ns/op, B/op, allocs/op); custom b.ReportMetric columns — e.g. the
// throughput bench's emails/sec and peak_MB — land in a "metrics" map
// keyed by unit. Header lines (goos/goarch/cpu/pkg) become metadata on
// the enclosing object.
//
// With -compare the command stops being a filter and becomes the
// regression gate:
//
//	benchjson -compare old.json new.json [-threshold 20] [-metric both]
//
// Benchmarks are matched by (pkg, base name), the base name being the
// name without go test's -N GOMAXPROCS suffix, so a baseline recorded on
// a 2-CPU machine gates a run on a 4-CPU one; two entries sharing a
// base name in one snapshot (the same benchmark at two -cpu values) are
// ambiguous and a usage error. Any benchmark whose ns/op or allocs/op
// grew by more than the threshold percentage prints a REGRESSION line
// and makes the exit status 1. -metric restricts the judged metrics to
// "ns", "allocs", or "both" — CI compares allocs only, since alloc
// counts are deterministic while wall-clock on a shared runner is not.
// Any other -metric value names a custom unit from the metrics map
// (e.g. -metric emails/sec): only benchmarks reporting that unit are
// judged, and units containing "/sec" are throughput — a regression is
// the value FALLING by more than the threshold, not rising. A custom
// unit present in neither snapshot is a usage error.
//
// -require flips the gate's direction: instead of rejecting slowdowns
// anywhere, it asserts specific speedups somewhere:
//
//	benchjson -compare -require 'BenchmarkTable2Sanitizer=5' old.json new.json
//
// Each comma-separated name=factor entry names one benchmark (matched
// by base name, ignoring pkg and the -N GOMAXPROCS suffix) that must
// have improved by at least factor× in BOTH ns/op and allocs/op from
// old to new. A name:unit=factor entry instead asserts the ratio on
// that single unit — standard (ns/op, B/op, allocs/op) or custom
// (peak_MB, emails/sec). The ratio is direction-aware: old/new for
// lower-is-better units, new/old for "/sec" throughput units. Factors
// below 1 make a hold-the-line ratchet: peak_MB=0.75 tolerates peak
// memory growing to at most 1/0.75 ≈ 1.33× the baseline. With -require
// set, the blanket regression sweep is skipped: the intended use is
// ratcheting one committed baseline against the next
// (BENCH_<n>.json -> BENCH_<n+1>.json), where unrelated benchmarks
// legitimately moved.
//
// Exit status, both modes: 0 clean, 1 regressions or shortfalls found,
// 2 usage or load errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one result line, e.g.
//
//	BenchmarkSanitizeRedact-8  90210  12900 ns/op  2152 B/op  31 allocs/op
type Benchmark struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric columns keyed by unit, e.g.
	// {"emails/sec": 150000, "peak_MB": 25.5}.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// metricValue returns the benchmark's value for unit — a standard
// column or a custom metrics-map entry. ok is false when the benchmark
// never reported that unit.
func (b Benchmark) metricValue(unit string) (float64, bool) {
	switch unit {
	case "ns/op":
		return b.NsPerOp, true
	case "B/op":
		return float64(b.BytesPerOp), true
	case "allocs/op":
		return float64(b.AllocsPerOp), true
	}
	v, ok := b.Metrics[unit]
	return v, ok
}

// higherIsBetter reports whether unit is a throughput-style metric
// where a larger value is an improvement. Rates (emails/sec, MB/s are
// "/s" but go test prints SetBytes as MB/s — treat both) go up when
// the code gets faster; everything else (ns/op, peak_MB, ...) is a
// cost that goes down.
func higherIsBetter(unit string) bool {
	return strings.Contains(unit, "/sec") || strings.HasSuffix(unit, "/s")
}

// Snapshot is the whole parsed run.
type Snapshot struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	compare := fs.Bool("compare", false, "compare two snapshot files (old.json new.json) instead of parsing stdin")
	threshold := fs.Float64("threshold", 20, "regression threshold in percent for -compare")
	metric := fs.String("metric", "both", "metrics judged by -compare: ns, allocs or both")
	require := fs.String("require", "", "comma-separated name=factor improvement assertions for -compare (replaces the regression sweep)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		// ns/allocs/both are the built-in modes; anything else is a
		// custom unit, validated against the snapshots after loading.
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchjson: -compare wants exactly two snapshot files: old.json new.json")
			return 2
		}
		if *require != "" {
			reqs, err := parseRequire(*require)
			if err != nil {
				fmt.Fprintln(stderr, "benchjson:", err)
				return 2
			}
			return runRequire(fs.Arg(0), fs.Arg(1), reqs, stdout, stderr)
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *threshold, *metric, stdout, stderr)
	}
	if *require != "" {
		fmt.Fprintln(stderr, "benchjson: -require is only meaningful with -compare")
		return 2
	}

	snap, err := parse(bufio.NewScanner(stdin))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 2
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	return 0
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// benchKey identifies a benchmark across snapshots: its package and its
// base name.
type benchKey struct {
	pkg, name string
}

// baseName strips the -N GOMAXPROCS suffix go test appends to a
// benchmark name when GOMAXPROCS is not 1.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// indexByBase keys a snapshot's benchmarks by (pkg, base name). Two
// entries sharing a key make the comparison ambiguous: an error, as in
// findByBaseName.
func indexByBase(snap *Snapshot, path string) (map[benchKey]Benchmark, error) {
	idx := make(map[benchKey]Benchmark, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		k := benchKey{b.Pkg, baseName(b.Name)}
		if prev, dup := idx[k]; dup {
			return nil, fmt.Errorf("%s: %s %s and %s share base name %s", path, b.Pkg, prev.Name, b.Name, k.name)
		}
		idx[k] = b
	}
	return idx, nil
}

// runCompare judges new against old and reports regressions beyond the
// threshold percentage. Benchmarks only in the new run are noted but
// never fail the gate — additions are not regressions. Benchmarks in
// the baseline but absent from the new run are reported as REMOVED and
// DO fail the gate: deleting a hot-path benchmark would otherwise be
// the easiest way to dodge a regression, so a removal must be made
// deliberate by regenerating the committed baseline.
func runCompare(oldPath, newPath string, threshold float64, metric string, stdout, stderr io.Writer) int {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}

	custom := metric != "ns" && metric != "allocs" && metric != "both"
	if custom && !hasMetric(oldSnap, metric) && !hasMetric(newSnap, metric) {
		fmt.Fprintf(stderr, "benchjson: metric %q not reported by any benchmark in either snapshot (want ns, allocs, both, or a custom unit)\n", metric)
		return 2
	}

	olds, err := indexByBase(oldSnap, oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	if _, err := indexByBase(newSnap, newPath); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}

	regressions, compared := 0, 0
	seen := make(map[benchKey]bool)
	for _, nb := range newSnap.Benchmarks {
		k := benchKey{nb.Pkg, baseName(nb.Name)}
		seen[k] = true
		ob, ok := olds[k]
		if !ok {
			fmt.Fprintf(stdout, "new        %s %s (no baseline entry)\n", nb.Pkg, nb.Name)
			continue
		}
		if custom {
			ov, oOK := ob.metricValue(metric)
			if !oOK {
				continue // baseline never recorded this unit here
			}
			nv, nOK := nb.metricValue(metric)
			compared++
			switch {
			case !nOK:
				// A unit the baseline had but the new run dropped is a
				// regression for the same reason REMOVED is: silently
				// un-reporting a gated metric must not pass the gate.
				regressions++
				fmt.Fprintf(stdout, "REGRESSION %s %s %s %.1f -> (not reported)\n", nb.Pkg, nb.Name, metric, ov)
			case regressedUnit(metric, ov, nv, threshold):
				regressions++
				fmt.Fprintf(stdout, "REGRESSION %s %s %s %.1f -> %.1f (%s, threshold %.0f%%)\n",
					nb.Pkg, nb.Name, metric, ov, nv, pctChange(ov, nv), threshold)
			}
			continue
		}
		compared++
		if metric == "ns" || metric == "both" {
			if regressed(ob.NsPerOp, nb.NsPerOp, threshold) {
				regressions++
				fmt.Fprintf(stdout, "REGRESSION %s %s ns/op %.1f -> %.1f (%s, threshold %.0f%%)\n",
					nb.Pkg, nb.Name, ob.NsPerOp, nb.NsPerOp, pctChange(ob.NsPerOp, nb.NsPerOp), threshold)
			}
		}
		if metric == "allocs" || metric == "both" {
			if regressed(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp), threshold) {
				regressions++
				fmt.Fprintf(stdout, "REGRESSION %s %s allocs/op %d -> %d (%s, threshold %.0f%%)\n",
					nb.Pkg, nb.Name, ob.AllocsPerOp, nb.AllocsPerOp, pctChange(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp)), threshold)
			}
		}
	}
	removed := 0
	for _, ob := range oldSnap.Benchmarks {
		if !seen[benchKey{ob.Pkg, baseName(ob.Name)}] {
			removed++
			fmt.Fprintf(stdout, "REMOVED    %s %s (in baseline, not in new run)\n", ob.Pkg, ob.Name)
		}
	}

	fmt.Fprintf(stderr, "benchjson: compared %d benchmark(s), %d regression(s) beyond %.0f%% (%s), %d removed\n",
		compared, regressions, threshold, metric, removed)
	if regressions > 0 || removed > 0 {
		return 1
	}
	return 0
}

// requirement is one -require entry: the named benchmark must have
// improved by at least factor× from the old snapshot to the new one.
// An empty unit means the default pair (ns/op AND allocs/op); a set
// unit judges that single metric, direction-aware.
type requirement struct {
	name   string
	unit   string
	factor float64
}

func parseRequire(s string) ([]requirement, error) {
	var reqs []requirement
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, factorStr, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -require entry %q (want name=factor or name:unit=factor)", entry)
		}
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil || factor <= 0 {
			return nil, fmt.Errorf("bad -require factor in %q (want a positive number)", entry)
		}
		req := requirement{name: name, factor: factor}
		if base, unit, hasUnit := strings.Cut(name, ":"); hasUnit {
			if base == "" || unit == "" {
				return nil, fmt.Errorf("bad -require entry %q (want name:unit=factor)", entry)
			}
			req.name, req.unit = base, unit
		}
		reqs = append(reqs, req)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("empty -require list")
	}
	return reqs, nil
}

// findByBaseName locates the single benchmark whose name, stripped of
// the -N GOMAXPROCS suffix, equals name. Ambiguity is an error: a
// requirement that silently picked one of several matches could pass
// on the wrong benchmark.
func findByBaseName(snap *Snapshot, name string) (Benchmark, error) {
	var found []Benchmark
	for _, b := range snap.Benchmarks {
		if baseName(b.Name) == name || b.Name == name {
			found = append(found, b)
		}
	}
	switch len(found) {
	case 0:
		return Benchmark{}, fmt.Errorf("benchmark %q not found", name)
	case 1:
		return found[0], nil
	default:
		return Benchmark{}, fmt.Errorf("benchmark %q matches %d entries", name, len(found))
	}
}

// runRequire asserts the -require improvements between two snapshots.
// Each requirement must hold in BOTH ns/op and allocs/op: a speedup
// bought by allocating more (or the reverse) does not satisfy the
// ratchet.
func runRequire(oldPath, newPath string, reqs []requirement, stdout, stderr io.Writer) int {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}

	shortfalls := 0
	for _, req := range reqs {
		ob, oerr := findByBaseName(oldSnap, req.name)
		nb, nerr := findByBaseName(newSnap, req.name)
		if oerr != nil || nerr != nil {
			shortfalls++
			for _, e := range []error{oerr, nerr} {
				if e != nil {
					fmt.Fprintf(stdout, "SHORTFALL  %s: %v\n", req.name, e)
				}
			}
			continue
		}
		if req.unit != "" {
			ov, oOK := ob.metricValue(req.unit)
			nv, nOK := nb.metricValue(req.unit)
			if !oOK || !nOK {
				shortfalls++
				fmt.Fprintf(stdout, "SHORTFALL  %s %s %s (metric not reported in %s)\n",
					nb.Pkg, nb.Name, req.unit, missingSide(oOK, nOK))
				continue
			}
			// Direction-aware ratio: new/old for throughput units,
			// old/new for cost units — either way ≥1 means "better".
			ratio, ok := improvement(ov, nv)
			if higherIsBetter(req.unit) {
				ratio, ok = improvement(nv, ov)
			}
			verdict := "IMPROVED  "
			if !ok || ratio < req.factor {
				verdict = "SHORTFALL "
				shortfalls++
			}
			fmt.Fprintf(stdout, "%s %s %s %s %.1f -> %.1f (%s, need %.2fx)\n",
				verdict, nb.Pkg, nb.Name, req.unit, ov, nv, ratioStr(ratio, ok), req.factor)
			continue
		}
		for _, m := range []struct {
			unit     string
			old, cur float64
		}{
			{"ns/op", ob.NsPerOp, nb.NsPerOp},
			{"allocs/op", float64(ob.AllocsPerOp), float64(nb.AllocsPerOp)},
		} {
			ratio, ok := improvement(m.old, m.cur)
			verdict := "IMPROVED  "
			if !ok || ratio < req.factor {
				verdict = "SHORTFALL "
				shortfalls++
			}
			fmt.Fprintf(stdout, "%s %s %s %s %.1f -> %.1f (%s, need %.1fx)\n",
				verdict, nb.Pkg, nb.Name, m.unit, m.old, m.cur, ratioStr(ratio, ok), req.factor)
		}
	}
	fmt.Fprintf(stderr, "benchjson: %d requirement(s), %d shortfall(s)\n", len(reqs), shortfalls)
	if shortfalls > 0 {
		return 1
	}
	return 0
}

// improvement returns old/cur — how many times better the new value is.
// cur == 0 with old > 0 is an unbounded improvement (+Inf, satisfies
// any factor); old == 0 cannot improve by any factor and reports
// not-ok.
func improvement(old, cur float64) (float64, bool) {
	if old == 0 {
		return 0, false
	}
	if cur == 0 {
		return math.Inf(1), true
	}
	return old / cur, true
}

func missingSide(oldOK, newOK bool) string {
	switch {
	case !oldOK && !newOK:
		return "either snapshot"
	case !oldOK:
		return "baseline"
	default:
		return "new run"
	}
}

func ratioStr(ratio float64, ok bool) string {
	if !ok {
		return "was 0"
	}
	if math.IsInf(ratio, 1) {
		return "now 0"
	}
	return fmt.Sprintf("%.1fx", ratio)
}

// regressed: cur exceeds old by more than threshold percent. A metric
// that was zero and became nonzero is always a regression — there is no
// percentage of zero.
func regressed(old, cur, threshold float64) bool {
	if old == 0 {
		return cur > 0
	}
	return cur > old*(1+threshold/100)
}

// regressedUnit is the direction-aware form of regressed: for
// throughput units a regression is the value falling below the
// baseline by more than threshold percent.
func regressedUnit(unit string, old, cur, threshold float64) bool {
	if higherIsBetter(unit) {
		if old == 0 {
			return false // no baseline rate to fall from
		}
		return cur < old*(1-threshold/100)
	}
	return regressed(old, cur, threshold)
}

// hasMetric reports whether any benchmark in the snapshot carries the
// custom unit.
func hasMetric(snap *Snapshot, unit string) bool {
	for _, b := range snap.Benchmarks {
		if _, ok := b.Metrics[unit]; ok {
			return true
		}
	}
	return false
}

func pctChange(old, cur float64) string {
	if old == 0 {
		return "was 0"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-old)/old)
}

func parse(sc *bufio.Scanner) (*Snapshot, error) {
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	snap := &Snapshot{}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
			if ok {
				b.Pkg = pkg
				snap.Benchmarks = append(snap.Benchmarks, b)
			}
		}
	}
	return snap, sc.Err()
}

// parseBench parses one result line. ok is false for non-result lines
// that merely start with "Benchmark" (e.g. a bare name printed before a
// sub-benchmark block).
func parseBench(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false, nil // bare announcement line
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // e.g. "BenchmarkFoo --- FAIL"
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			b.NsPerOp, err = strconv.ParseFloat(val, 64)
		case "B/op":
			b.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
		default:
			// Custom b.ReportMetric column. A non-numeric token here is
			// not a (value, unit) pair at all (e.g. trailing prose), so
			// skip rather than fail.
			f, ferr := strconv.ParseFloat(val, 64)
			if ferr != nil {
				continue
			}
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = f
			continue
		}
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad %s value %q", unit, val)
		}
	}
	return b, true, nil
}
