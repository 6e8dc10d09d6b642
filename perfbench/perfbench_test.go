package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the catalogue
// must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, the
// workloads and metrics the command runs and prints, and METRICS.md's
// targets in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool, len(bf.Workloads))
	for _, w := range bf.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a command workload", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("command workload %q is not in BENCHMARK.json", name)
		}
	}
	same := func(kind string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)

	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if !bytes.Contains(doc, []byte("`"+d.name+"`")) {
			t.Errorf("METRICS.md does not document %s", d.name)
		}
	}
}

// nonOutageDays counts the collection days outside the outages,
// independently of the replay's own unit enumeration.
func nonOutageDays(cfg core.Config) int {
	n := cfg.Days
	for _, o := range cfg.Outages {
		lo, hi := max(o[0], 0), min(o[1], cfg.Days)
		if hi > lo {
			n -= hi - lo
		}
	}
	return n
}

// TestTracedCountsReconcile runs each workload's traced iteration and
// extras twice at each of two seeds and checks that the counts
// reconcile with the program's own: par claims with the collection's
// units, the replay's classified emails with Result.EmailsProcessed, and
// vault puts with Result.VaultRecords. Every count repeats exactly at
// one seed.
func TestTracedCountsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full collection eight times per workload")
	}
	for name, passes := range map[string]int{"collect-disk": 2, "collect-mem": 1} {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{3, 1234567} {
				var runs [2]map[string]float64
				for i := range runs {
					runs[i] = tracedCounts(t, name, seed)
				}
				got := runs[0]
				cfg := collectionConfig(seed)
				want := float64(passes * nonOutageDays(cfg) * len(core.AllStudyDomains()))
				if got["par.rand_calls"] != want {
					t.Errorf("seed %d: par.rand_calls = %v, want units x passes = %v", seed, got["par.rand_calls"], want)
				}
				if got["spamfilter.emails"] != got["core.emails"] || got["spamgen.emails"] == 0 {
					t.Errorf("seed %d: replay classified %v emails (%v spam samples), run processed %v",
						seed, got["spamfilter.emails"], got["spamgen.emails"], got["core.emails"])
				}
				if got["vault.puts"] != got["core.vault_records"] || got["vault.puts"] == 0 {
					t.Errorf("seed %d: vault.puts = %v, core.vault_records = %v", seed, got["vault.puts"], got["core.vault_records"])
				}
				if name == "collect-mem" && (got["honey.emails"] == 0 || got["experiments.checks"] == 0) {
					t.Errorf("seed %d: extras traced %v honey emails and %v shape checks", seed, got["honey.emails"], got["experiments.checks"])
				}
				for k, v := range runs[1] {
					if got[k] != v {
						t.Errorf("seed %d: count %s = %v then %v", seed, k, got[k], v)
					}
				}
			}
		})
	}
}

// TestVictimPipelineReconciles checks that honey.emails is the
// campaign's EmailsSent and that the pipeline's counts repeat exactly at
// one seed, at two seeds.
func TestVictimPipelineReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("generates four default-scale ecosystems")
	}
	for _, seed := range []int64{3, 1234567} {
		var runs [2]map[string]float64
		for i := range runs {
			tr := newTracer()
			o := victimPipeline(seed, tr)
			if o.failed > 0 {
				t.Fatalf("seed %d: %s", seed, strings.Join(o.failures, "; "))
			}
			runs[i] = tr.spanMetrics()
			if got := runs[i]["honey.emails"]; got != float64(o.emails) || got == 0 {
				t.Errorf("seed %d: honey.emails = %v, campaign sent %d", seed, got, o.emails)
			}
		}
		for _, k := range []string{"ecosys.domains", "probe.domains", "whois.clusters", "honey.emails"} {
			if runs[0][k] != runs[1][k] {
				t.Errorf("seed %d: count %s = %v then %v", seed, k, runs[0][k], runs[1][k])
			}
		}
	}
}

// tracedCounts runs one traced iteration and the extras, checks that
// nothing failed, and returns every count.
func tracedCounts(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	w := workloads[name]
	tr := newTracer()
	inst, err := w.setup(seed, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	out := inst.run(tr)
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	if err := w.extras(seed, tr); err != nil {
		t.Fatal(err)
	}
	if out.failed > 0 {
		t.Fatalf("%d of %d checks failed: %s", out.failed, out.attempted, strings.Join(out.failures, "; "))
	}
	counts := make(map[string]float64)
	traced := tr.spanMetrics()
	for _, d := range perLayer {
		if d.unit == "count" && !strings.HasSuffix(d.name, "gc_cycles") {
			counts[d.name] = traced[d.name]
		}
	}
	return counts
}

// failing is a workload whose run fails one of its two checks.
type failing struct{}

func (failing) run(*tracer) outcome {
	var o outcome
	o.check(true, "fine")
	o.check(false, "broken on purpose")
	o.emails = 1
	return o
}

func (failing) close() error { return nil }

// TestExitStatus pins the command's contract: a failed check still
// prints the result, marked incorrect, and exits 1; a usage error
// prints nothing on standard output and exits 2.
func TestExitStatus(t *testing.T) {
	workloads["failing"] = workload{
		setup:  func(int64, string, *tracer) (instance, error) { return failing{}, nil },
		extras: func(int64, *tracer) error { return nil },
	}
	defer delete(workloads, "failing")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "failing", "-seconds", "1", "-workdir", t.TempDir()}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var res jsonResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if res.Correct || res.Failed == 0 || res.Attempted != 2*res.Failed {
		t.Errorf("result = %+v, want incorrect with half the checks failed", res)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("result lacks %s", d.name)
		}
	}

	stdout.Reset()
	if code := run([]string{"-workload", "nonesuch"}, &stdout, &stderr); code != 2 || stdout.Len() > 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want 2 and nothing", code, stdout.String())
	}
}
