package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSanitizeRedact-8   	   90210	     12900 ns/op	    2152 B/op	      31 allocs/op
BenchmarkEcosystemGenerateParallel/workers=2         	       1	  68445407 ns/op	 8930928 B/op	   69508 allocs/op
BenchmarkDamerauLevenshtein 	 2000000	       600 ns/op
BenchmarkBroken --- FAIL
PASS
ok  	repro	8.525s
pkg: repro/internal/lint
BenchmarkRepolintLoad 	       5	 200000000 ns/op	 1000000 B/op	    9000 allocs/op
`

func TestParse(t *testing.T) {
	snap, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.GOARCH != "amd64" || !strings.Contains(snap.CPU, "Xeon") {
		t.Errorf("bad metadata: %+v", snap)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4: %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	b := snap.Benchmarks[0]
	if b.Pkg != "repro" || b.Name != "BenchmarkSanitizeRedact-8" ||
		b.Iterations != 90210 || b.NsPerOp != 12900 || b.BytesPerOp != 2152 || b.AllocsPerOp != 31 {
		t.Errorf("bad first benchmark: %+v", b)
	}
	if b := snap.Benchmarks[1]; b.Name != "BenchmarkEcosystemGenerateParallel/workers=2" || b.AllocsPerOp != 69508 {
		t.Errorf("bad sub-benchmark: %+v", b)
	}
	if b := snap.Benchmarks[2]; b.NsPerOp != 600 || b.BytesPerOp != 0 {
		t.Errorf("bad benchmark without -benchmem columns: %+v", b)
	}
	if b := snap.Benchmarks[3]; b.Pkg != "repro/internal/lint" || b.Iterations != 5 {
		t.Errorf("pkg header not tracked across packages: %+v", b)
	}
}

func TestParseCustomMetrics(t *testing.T) {
	const line = "pkg: repro\nBenchmarkStudyThroughput-8 	       3	 402000000 ns/op	       150321 emails/sec	        25.5 peak_MB	 61132122 B/op	  294775 allocs/op\n"
	snap, err := parse(bufio.NewScanner(strings.NewReader(line)))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.NsPerOp != 402000000 || b.BytesPerOp != 61132122 || b.AllocsPerOp != 294775 {
		t.Errorf("standard columns mangled by custom units: %+v", b)
	}
	if b.Metrics["emails/sec"] != 150321 || b.Metrics["peak_MB"] != 25.5 {
		t.Errorf("custom metrics not captured: %+v", b.Metrics)
	}
	// Round-trip: the metrics map must survive JSON encode/decode.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0].Metrics["peak_MB"] != 25.5 {
		t.Errorf("metrics lost in round-trip: %s", data)
	}
}

func TestParseEmpty(t *testing.T) {
	snap, err := parse(bufio.NewScanner(strings.NewReader("no benchmarks here\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 0 {
		t.Errorf("got %d benchmarks, want 0", len(snap.Benchmarks))
	}
}

// --- -compare regression gate ---

func writeSnap(t *testing.T, dir, name string, benches ...Benchmark) string {
	t.Helper()
	data, err := json.Marshal(Snapshot{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(pkg, name string, ns float64, allocs int64) Benchmark {
	return Benchmark{Pkg: pkg, Name: name, Iterations: 100, NsPerOp: ns, BytesPerOp: 8, AllocsPerOp: allocs}
}

func runArgs(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(""), &out, &errb)
	return code, out.String(), errb.String()
}

func TestCompareWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro/internal/sanitize", "BenchmarkRedact-8", 1000, 10))
	cur := writeSnap(t, dir, "new.json", bench("repro/internal/sanitize", "BenchmarkRedact-8", 1100, 10)) // +10%
	code, _, errOut := runArgs(t, "-compare", old, cur)
	if code != 0 {
		t.Fatalf("within threshold: exit %d\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "compared 1 benchmark(s), 0 regression(s)") {
		t.Fatalf("summary missing:\n%s", errOut)
	}
}

func TestCompareNsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro/internal/sanitize", "BenchmarkRedact-8", 1000, 10))
	cur := writeSnap(t, dir, "new.json", bench("repro/internal/sanitize", "BenchmarkRedact-8", 1500, 10)) // +50%
	code, out, _ := runArgs(t, "-compare", old, cur)
	if code != 1 {
		t.Fatalf("regression: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "ns/op 1000.0 -> 1500.0") {
		t.Fatalf("missing regression line:\n%s", out)
	}
}

func TestCompareAllocsOnlyIgnoresNsNoise(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro/internal/typogen", "BenchmarkGen-8", 1000, 10))
	cur := writeSnap(t, dir, "new.json", bench("repro/internal/typogen", "BenchmarkGen-8", 9000, 10)) // 9x slower, same allocs
	if code, out, _ := runArgs(t, "-compare", "-metric", "allocs", old, cur); code != 0 {
		t.Fatalf("allocs-only must ignore wall-clock noise: exit %d\n%s", code, out)
	}
	if code, _, _ := runArgs(t, "-compare", "-metric", "both", old, cur); code != 1 {
		t.Fatal("metric=both must catch the ns regression")
	}
}

func TestCompareAllocsFromZeroRegresses(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro/internal/par", "BenchmarkMap-8", 100, 0))
	cur := writeSnap(t, dir, "new.json", bench("repro/internal/par", "BenchmarkMap-8", 100, 3))
	code, out, _ := runArgs(t, "-compare", "-metric", "allocs", old, cur)
	if code != 1 {
		t.Fatalf("0 -> 3 allocs must regress: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "allocs/op 0 -> 3 (was 0") {
		t.Fatalf("missing was-0 annotation:\n%s", out)
	}
}

func TestCompareThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro/internal/stats", "BenchmarkShares-8", 1000, 10))
	cur := writeSnap(t, dir, "new.json", bench("repro/internal/stats", "BenchmarkShares-8", 1300, 10)) // +30%
	if code, _, _ := runArgs(t, "-compare", "-threshold", "50", old, cur); code != 0 {
		t.Fatal("+30% within a 50% threshold must pass")
	}
	if code, _, _ := runArgs(t, "-compare", "-threshold", "20", old, cur); code != 1 {
		t.Fatal("+30% beyond a 20% threshold must fail")
	}
}

func TestCompareNewIsANote(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro/internal/a", "BenchmarkStays-8", 100, 1))
	cur := writeSnap(t, dir, "new.json",
		bench("repro/internal/a", "BenchmarkStays-8", 100, 1),
		bench("repro/internal/b", "BenchmarkFresh-8", 100, 1))
	code, out, _ := runArgs(t, "-compare", old, cur)
	if code != 0 {
		t.Fatalf("additions are not regressions: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "new        repro/internal/b BenchmarkFresh-8") {
		t.Fatalf("missing new-benchmark note:\n%s", out)
	}
}

func TestCompareRemovedFailsGate(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro/internal/a", "BenchmarkGone-8", 100, 1))
	cur := writeSnap(t, dir, "new.json", bench("repro/internal/b", "BenchmarkFresh-8", 100, 1))
	code, out, errOut := runArgs(t, "-compare", old, cur)
	if code != 1 {
		t.Fatalf("a removed benchmark must fail the gate: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "REMOVED    repro/internal/a BenchmarkGone-8") {
		t.Fatalf("missing REMOVED note:\n%s", out)
	}
	if !strings.Contains(errOut, "1 removed") {
		t.Fatalf("summary must count removals:\n%s", errOut)
	}
}

func benchMetrics(pkg, name string, ns float64, metrics map[string]float64) Benchmark {
	b := bench(pkg, name, ns, 10)
	b.Metrics = metrics
	return b
}

func TestCompareCustomMetricThroughput(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"emails/sec": 100000}))
	// Throughput FELL 40%: for a /sec unit that is the regression.
	cur := writeSnap(t, dir, "new.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"emails/sec": 60000}))
	code, out, _ := runArgs(t, "-compare", "-metric", "emails/sec", old, cur)
	if code != 1 {
		t.Fatalf("throughput drop must regress: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION repro BenchmarkStudyThroughput-8 emails/sec 100000.0 -> 60000.0") {
		t.Fatalf("missing regression line:\n%s", out)
	}
	// The reverse direction — throughput RISING 40% — is an improvement.
	if code, out, _ := runArgs(t, "-compare", "-metric", "emails/sec", cur, old); code != 0 {
		t.Fatalf("throughput rise must pass: exit %d\n%s", code, out)
	}
}

func TestCompareCustomMetricLowerIsBetter(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"peak_MB": 10}))
	cur := writeSnap(t, dir, "new.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"peak_MB": 15})) // +50%
	if code, out, _ := runArgs(t, "-compare", "-metric", "peak_MB", old, cur); code != 1 {
		t.Fatalf("peak_MB +50%% must regress: exit %d\n%s", code, out)
	}
	if code, _, _ := runArgs(t, "-compare", "-metric", "peak_MB", "-threshold", "60", old, cur); code != 0 {
		t.Fatal("+50% within a 60% threshold must pass")
	}
}

func TestCompareCustomMetricDroppedRegresses(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"peak_MB": 10}))
	cur := writeSnap(t, dir, "new.json", bench("repro", "BenchmarkStudyThroughput-8", 1000, 10))
	code, out, _ := runArgs(t, "-compare", "-metric", "peak_MB", old, cur)
	if code != 1 {
		t.Fatalf("un-reporting a gated metric must fail: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "peak_MB 10.0 -> (not reported)") {
		t.Fatalf("missing not-reported line:\n%s", out)
	}
}

func TestCompareCustomMetricUnknownEverywhere(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro", "BenchmarkA-8", 1000, 10))
	cur := writeSnap(t, dir, "new.json", bench("repro", "BenchmarkA-8", 1000, 10))
	code, _, errOut := runArgs(t, "-compare", "-metric", "bogus_unit", old, cur)
	if code != 2 {
		t.Fatalf("a unit no benchmark reports must be a usage error: exit %d\n%s", code, errOut)
	}
	if !strings.Contains(errOut, `metric "bogus_unit" not reported`) {
		t.Fatalf("missing diagnostic:\n%s", errOut)
	}
}

// --- -require improvement assertions ---

func TestRequireMet(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		bench("repro", "BenchmarkTable2Sanitizer-8", 17000000, 31372),
		bench("repro", "BenchmarkUnrelated-8", 100, 1))
	cur := writeSnap(t, dir, "new.json",
		bench("repro", "BenchmarkTable2Sanitizer-8", 3000000, 2737),
		bench("repro", "BenchmarkUnrelated-8", 900, 9)) // 9x worse, but not required
	code, out, errOut := runArgs(t, "-compare", "-require", "BenchmarkTable2Sanitizer=5", old, cur)
	if code != 0 {
		t.Fatalf("5.7x and 11.5x must satisfy =5: exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "IMPROVED   repro BenchmarkTable2Sanitizer-8 ns/op") ||
		!strings.Contains(out, "IMPROVED   repro BenchmarkTable2Sanitizer-8 allocs/op") {
		t.Fatalf("missing IMPROVED lines:\n%s", out)
	}
	if !strings.Contains(errOut, "1 requirement(s), 0 shortfall(s)") {
		t.Fatalf("summary missing:\n%s", errOut)
	}
}

func TestRequireBothMetricsMustImprove(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro", "BenchmarkTable3SpamFilter-8", 350000000, 566069))
	// ns improved 10x, allocs only 2x: a speedup bought without the
	// allocation win must not satisfy the ratchet.
	cur := writeSnap(t, dir, "new.json", bench("repro", "BenchmarkTable3SpamFilter-8", 35000000, 283034))
	code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkTable3SpamFilter=5", old, cur)
	if code != 1 {
		t.Fatalf("allocs at 2x must fail =5: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "IMPROVED   repro BenchmarkTable3SpamFilter-8 ns/op") ||
		!strings.Contains(out, "SHORTFALL  repro BenchmarkTable3SpamFilter-8 allocs/op") {
		t.Fatalf("want ns IMPROVED and allocs SHORTFALL:\n%s", out)
	}
}

func TestRequireMultipleEntries(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		bench("repro", "BenchmarkA-8", 1000, 100),
		bench("repro", "BenchmarkB-8", 1000, 100))
	cur := writeSnap(t, dir, "new.json",
		bench("repro", "BenchmarkA-8", 100, 10),
		bench("repro", "BenchmarkB-8", 400, 40)) // only 2.5x
	code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkA=5,BenchmarkB=5", old, cur)
	if code != 1 {
		t.Fatalf("B at 2.5x must fail: exit %d\n%s", code, out)
	}
	if code, _, _ := runArgs(t, "-compare", "-require", "BenchmarkA=5,BenchmarkB=2", old, cur); code != 0 {
		t.Fatal("B at 2.5x satisfies =2")
	}
}

func TestRequireMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro", "BenchmarkA-8", 1000, 100))
	cur := writeSnap(t, dir, "new.json", bench("repro", "BenchmarkA-8", 100, 10))
	code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkGone=5", old, cur)
	if code != 1 {
		t.Fatalf("missing benchmark must fail the gate: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, `SHORTFALL  BenchmarkGone: benchmark "BenchmarkGone" not found`) {
		t.Fatalf("missing not-found shortfall:\n%s", out)
	}
}

func TestRequireSkipsRegressionSweep(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		bench("repro", "BenchmarkA-8", 1000, 100),
		bench("repro", "BenchmarkRemoved-8", 50, 5))
	cur := writeSnap(t, dir, "new.json", bench("repro", "BenchmarkA-8", 100, 10))
	// The sweep would flag BenchmarkRemoved; -require must not.
	code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkA=5", old, cur)
	if code != 0 {
		t.Fatalf("-require must ignore unrelated removals: exit %d\n%s", code, out)
	}
	if strings.Contains(out, "REMOVED") {
		t.Fatalf("sweep output leaked into require mode:\n%s", out)
	}
}

func TestRequireUnitRatchet(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"peak_MB": 10, "emails/sec": 100000}))

	// peak_MB=0.75 is a hold-the-line ratchet: old/new ≥ 0.75, i.e. the
	// peak may grow to at most 10/0.75 ≈ 13.3 MB.
	ok13 := writeSnap(t, dir, "ok13.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"peak_MB": 13, "emails/sec": 100000}))
	if code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkStudyThroughput:peak_MB=0.75", old, ok13); code != 0 {
		t.Fatalf("13MB within the 0.75 ratchet of 10MB must pass: exit %d\n%s", code, out)
	}
	bad20 := writeSnap(t, dir, "bad20.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"peak_MB": 20, "emails/sec": 100000}))
	code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkStudyThroughput:peak_MB=0.75", old, bad20)
	if code != 1 {
		t.Fatalf("20MB (0.5x) must fail the 0.75 ratchet: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "SHORTFALL  repro BenchmarkStudyThroughput-8 peak_MB 10.0 -> 20.0 (0.5x, need 0.75x)") {
		t.Fatalf("missing unit shortfall line:\n%s", out)
	}

	// A /sec unit inverts the ratio: throughput doubling is 2.0x.
	fast := writeSnap(t, dir, "fast.json",
		benchMetrics("repro", "BenchmarkStudyThroughput-8", 1000, map[string]float64{"peak_MB": 10, "emails/sec": 200000}))
	if code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkStudyThroughput:emails/sec=2", old, fast); code != 0 {
		t.Fatalf("2x throughput must satisfy =2: exit %d\n%s", code, out)
	}
	if code, _, _ := runArgs(t, "-compare", "-require", "BenchmarkStudyThroughput:emails/sec=2", fast, old); code != 1 {
		t.Fatal("halved throughput must fail =2")
	}
}

func TestRequireUnitMissingMetric(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", bench("repro", "BenchmarkA-8", 1000, 10))
	cur := writeSnap(t, dir, "new.json", bench("repro", "BenchmarkA-8", 1000, 10))
	code, out, _ := runArgs(t, "-compare", "-require", "BenchmarkA:peak_MB=1", old, cur)
	if code != 1 {
		t.Fatalf("requiring an unreported unit must fail: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "metric not reported in either snapshot") {
		t.Fatalf("missing diagnostic:\n%s", out)
	}
}

func TestRequireUsageErrors(t *testing.T) {
	if code, _, _ := runArgs(t, "-require", "BenchmarkA=5"); code != 2 {
		t.Fatal("-require without -compare must be a usage error")
	}
	if code, _, _ := runArgs(t, "-compare", "-require", "BenchmarkA", "a.json", "b.json"); code != 2 {
		t.Fatal("entry without =factor must be a usage error")
	}
	if code, _, _ := runArgs(t, "-compare", "-require", "BenchmarkA=-3", "a.json", "b.json"); code != 2 {
		t.Fatal("negative factor must be a usage error")
	}
	if code, _, _ := runArgs(t, "-compare", "-require", " , ", "a.json", "b.json"); code != 2 {
		t.Fatal("empty require list must be a usage error")
	}
}

func TestCompareUsageErrors(t *testing.T) {
	if code, _, _ := runArgs(t, "-compare", "only-one.json"); code != 2 {
		t.Fatal("one file must be a usage error")
	}
	if code, _, _ := runArgs(t, "-compare", "-metric", "bogus", "a.json", "b.json"); code != 2 {
		t.Fatal("bad metric must be a usage error")
	}
	if code, _, _ := runArgs(t, "-compare", "nope1.json", "nope2.json"); code != 2 {
		t.Fatal("unreadable files must exit 2")
	}
}

// TestCompareMatchesAcrossCPUCounts pins that -compare pairs entries by
// base name: a baseline recorded at GOMAXPROCS=2 gates a run recorded at
// GOMAXPROCS=4 entry by entry, and a benchmark missing from the new run
// still fails the gate.
func TestCompareMatchesAcrossCPUCounts(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json",
		bench("repro", "BenchmarkStudyThroughput-2", 1000, 10),
		bench("repro/internal/lint", "BenchmarkRepolintTypestate/warm-2", 1000, 10))
	cur := writeSnap(t, dir, "new.json",
		bench("repro", "BenchmarkStudyThroughput-4", 1000, 11),
		bench("repro/internal/lint", "BenchmarkRepolintTypestate/warm-4", 1000, 10))
	code, out, errOut := runArgs(t, "-compare", "-metric", "allocs", old, cur)
	if code != 0 || !strings.Contains(errOut, "compared 2 benchmark(s), 0 regression(s)") {
		t.Fatalf("-2 baseline vs -4 run: exit %d\n%s%s", code, out, errOut)
	}
	regressed := writeSnap(t, dir, "regressed.json",
		bench("repro", "BenchmarkStudyThroughput-4", 1000, 50),
		bench("repro/internal/lint", "BenchmarkRepolintTypestate/warm-4", 1000, 10))
	code, out, _ = runArgs(t, "-compare", "-metric", "allocs", old, regressed)
	if code != 1 || !strings.Contains(out, "REGRESSION repro BenchmarkStudyThroughput-4 allocs/op 10 -> 50") {
		t.Fatalf("a regression across CPU counts must fail the gate: exit %d\n%s", code, out)
	}
	removed := writeSnap(t, dir, "removed.json", bench("repro", "BenchmarkStudyThroughput-4", 1000, 10))
	code, out, _ = runArgs(t, "-compare", "-metric", "allocs", old, removed)
	if code != 1 || !strings.Contains(out, "REMOVED    repro/internal/lint BenchmarkRepolintTypestate/warm-2") {
		t.Fatalf("a removed benchmark must still fail the gate: exit %d\n%s", code, out)
	}
}

// TestCompareAmbiguousBaseName pins that one snapshot holding the same
// benchmark at two CPU counts is a usage error, not a silent pick.
func TestCompareAmbiguousBaseName(t *testing.T) {
	dir := t.TempDir()
	one := writeSnap(t, dir, "one.json", bench("repro", "BenchmarkX-2", 1000, 10))
	two := writeSnap(t, dir, "two.json",
		bench("repro", "BenchmarkX", 1000, 10),
		bench("repro", "BenchmarkX-2", 1000, 10))
	for _, args := range [][]string{{one, two}, {two, one}} {
		code, _, errOut := runArgs(t, append([]string{"-compare"}, args...)...)
		if code != 2 || !strings.Contains(errOut, "share base name BenchmarkX") {
			t.Fatalf("ambiguous base name %v: exit %d, want 2\n%s", args, code, errOut)
		}
	}
}
