package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ecosys"
	"repro/internal/experiments"
	"repro/internal/honey"
	"repro/internal/par"
	"repro/internal/probe"
	"repro/internal/vault"
	"repro/internal/whois"
)

// collectSpillBudget is below the streaming run's pending-queue peak at
// every seed, so both passes spill (about 80 spill events per pass over
// the 225 days); any budget of 256 KiB or more never spills.
const collectSpillBudget = 64 << 10

// surrenderDomains are the study domains collect-disk surrenders after
// its run (Section 4.1's trademark commitment): two receiver typos and
// one disposable-mail typo, all of which collect records at every seed.
var surrenderDomains = []string{"ohtlook.com", "hovmail.com", "yopail.com"}

// outcome is what one run of a workload did: its work unit and its
// correctness checks.
type outcome struct {
	emails    int
	attempted int
	failed    int
	failures  []string
}

// check records one check or operation; ok=false counts as a failure.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up workload, ready for one run.
type instance interface {
	run(tr *tracer) outcome
	close() error
}

// workload names one benchmark workload. setup builds the inputs of one
// run from the seed; extras runs once per traced run, after the timed
// iterations, and records the per-layer numbers that need calls the
// workload's own path does not make.
type workload struct {
	setup  func(seed int64, dir string, tr *tracer) (instance, error)
	extras func(seed int64, tr *tracer) error
}

var workloads = map[string]workload{
	"collect-disk": {setup: setupCollect, extras: collectExtras},
	"collect-mem":  {setup: setupCollectMem, extras: collectMemExtras},
}

// collectionConfig is the paper's collection at the given seed.
func collectionConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// ---- experiments: the drivers of experiments.Suite, which cmd/study
// runs through Suite.All.

type suiteDriver struct {
	name string
	run  func(*experiments.Suite) (*experiments.Experiment, error)
}

// suiteDrivers are Suite.All's drivers in its order, with the names
// their spans and metrics use.
var suiteDrivers = []suiteDriver{
	{"table1", (*experiments.Suite).Table1}, {"table2", (*experiments.Suite).Table2},
	{"table3", (*experiments.Suite).Table3}, {"figure3", (*experiments.Suite).Figure3},
	{"figure4", (*experiments.Suite).Figure4}, {"figure5", (*experiments.Suite).Figure5},
	{"figure6", (*experiments.Suite).Figure6}, {"figure7", (*experiments.Suite).Figure7},
	{"table4", (*experiments.Suite).Table4}, {"figure8", (*experiments.Suite).Figure8},
	{"figure9", (*experiments.Suite).Figure9}, {"regression", (*experiments.Suite).Regression},
	{"economics", (*experiments.Suite).Economics}, {"table5", (*experiments.Suite).Table5},
	{"table6", (*experiments.Suite).Table6},
}

// suiteExtras runs experiments.NewSuite(seed) as Suite.All does, split
// at its two stages: the shared substrate (collection run and
// ecosystem) under one span, then the fifteen drivers, concurrently on
// par's pool as All runs them, each under its own span. A driver error
// fails the run. A failed shape check does not: whether the paper's
// shape holds at a seed is a property of the seed (the default seed
// passes every check, others fail some), so failed checks are reported
// as experiments.checks_failed. It returns the suite's study for the
// replay.
func suiteExtras(seed int64, tr *tracer) (*core.Study, error) {
	suite := experiments.NewSuite(seed)
	end := tr.begin("experiments.materialize")
	st, _, err := suite.Collection()
	if err == nil {
		_, err = suite.Ecosystem()
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	//repolint:allow purepar the span reads the clock around each driver; timings go to the tracer, never into the driver's result
	exps, err := par.MapErr(seed, suiteDrivers, func(_ int, d suiteDriver, _ *rand.Rand) (*experiments.Experiment, error) {
		defer tr.begin("experiments." + d.name)()
		return d.run(suite)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	checks, failed := 0, 0
	for _, e := range exps {
		for _, c := range e.Checks {
			checks++
			if !c.OK {
				failed++
			}
		}
	}
	tr.add("experiments.checks", float64(checks))
	tr.add("experiments.checks_failed", float64(failed))
	return st, nil
}

// newStudy builds a study under the core.new_study span and, when
// traced, puts the timing decorator in front of its vault.
func newStudy(cfg core.Config, tr *tracer) (*core.Study, *timedStore, error) {
	end := tr.begin("core.new_study")
	st, err := core.NewStudy(cfg)
	end()
	if err != nil {
		return nil, nil, fmt.Errorf("core.NewStudy: %w", err)
	}
	var store *timedStore
	if tr != nil {
		store = &timedStore{Store: st.Vault}
		st.Vault = store
	}
	return st, store, nil
}

// runStudy runs the collection under the core.run span and records its
// counts.
func runStudy(st *core.Study, store *timedStore, tr *tracer) (*core.Result, error) {
	end := tr.begin("core.run")
	res, err := st.Run()
	end()
	if err != nil {
		return nil, fmt.Errorf("core.Study.Run: %w", err)
	}
	tr.add("core.emails", float64(res.EmailsProcessed))
	tr.add("core.vault_records", float64(res.VaultRecords))
	if store != nil {
		store.report(tr)
	}
	return res, nil
}

// ---- collect-disk: streaming two-pass run that spills, on-disk vault,
// then the operator's vault lifecycle.

type collectRun struct {
	cfg   core.Config
	dir   string
	st    *core.Study
	log   *vault.LogVault
	store *timedStore
}

func setupCollect(seed int64, dir string, tr *tracer) (instance, error) {
	work, err := os.MkdirTemp(dir, "collect-")
	if err != nil {
		return nil, fmt.Errorf("collect-disk set-up: %w", err)
	}
	cfg := collectionConfig(seed)
	cfg.Streaming = true
	cfg.SpillDir = filepath.Join(work, "spill")
	cfg.SpillBudgetBytes = collectSpillBudget
	cfg.VaultDir = filepath.Join(work, "vault")
	st, store, err := newStudy(cfg, tr)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(work))
	}
	base := st.Vault
	if store != nil {
		base = store.Store
	}
	lv, ok := base.(*vault.LogVault)
	if !ok {
		return nil, errors.Join(fmt.Errorf("collect-disk: vault is %T, want *vault.LogVault", base),
			base.Close(), os.RemoveAll(work))
	}
	return &collectRun{cfg: cfg, dir: work, st: st, log: lv, store: store}, nil
}

func (r *collectRun) run(tr *tracer) outcome {
	var o outcome
	res, err := runStudy(r.st, r.store, tr)
	o.check(err == nil, "%v", err)
	if err != nil {
		return o
	}
	o.emails = res.EmailsProcessed

	end := tr.begin("vault.surrender")
	destroyed := 0
	for _, d := range surrenderDomains {
		n, err := r.st.Surrender(d, nil)
		o.check(err == nil, "surrender %s: %v", d, err)
		destroyed += n
	}
	end()

	end = tr.begin("vault.compact")
	err = r.log.Compact()
	end()
	o.check(err == nil, "vault compact: %v", err)

	end = tr.begin("vault.close")
	err = r.log.Close()
	end()
	o.check(err == nil, "vault close: %v", err)

	end = tr.begin("vault.open")
	reopened, err := vault.OpenLog(vault.DeriveKey(r.cfg.VaultPassphrase), r.cfg.VaultDir, vault.LogOptions{})
	end()
	o.check(err == nil, "vault reopen: %v", err)
	if err != nil {
		return o
	}
	defer reopened.Close()

	gone := make(map[string]bool, len(surrenderDomains))
	for _, d := range surrenderDomains {
		gone[d] = true
	}
	readBack(tr, reopened, gone, &o)
	live := reopened.Len()
	o.check(live == res.VaultRecords-destroyed,
		"vault holds %d records after surrender, want %d stored - %d surrendered", live, res.VaultRecords, destroyed)
	o.check(destroyed > 0, "surrender destroyed no records")
	return o
}

// close releases the study's vault (Close is idempotent, so a run that
// already closed it is fine) and removes the run's directory.
func (r *collectRun) close() error {
	return errors.Join(r.log.Close(), os.RemoveAll(r.dir))
}

// readBack decrypts every record v lists, under the vault.readback
// span; a record that fails to decrypt, is empty, or belongs to a domain
// in gone fails its check.
func readBack(tr *tracer, v vault.Store, gone map[string]bool, o *outcome) {
	end := tr.begin("vault.readback")
	defer end()
	readErrs := 0
	for _, rec := range v.Meta() {
		pt, got, err := v.Get(rec.ID)
		ok := err == nil && len(pt) > 0 && got != nil && !gone[got.Domain]
		if !ok {
			readErrs++
		}
		o.check(ok, "vault record %d: decrypt failed or belongs to a surrendered domain", rec.ID)
	}
	tr.add("vault.readback_errors", float64(readErrs))
}

// collectExtras replays the per-layer entry points over the
// collection's inputs, with par.Rand once per streaming pass.
func collectExtras(seed int64, tr *tracer) error {
	st, err := core.NewStudy(collectionConfig(seed))
	if err != nil {
		return fmt.Errorf("core.NewStudy: %w", err)
	}
	replayLayers(tr, st, 2)
	return st.Vault.Close()
}

// ---- collect-mem: the materialized one-pass collection with the
// in-memory vault, as experiments.Suite builds it for cmd/study, then a
// read-back of every stored record.

type collectMemRun struct {
	st    *core.Study
	store *timedStore
}

func setupCollectMem(seed int64, _ string, tr *tracer) (instance, error) {
	st, store, err := newStudy(collectionConfig(seed), tr)
	if err != nil {
		return nil, err
	}
	return &collectMemRun{st: st, store: store}, nil
}

func (r *collectMemRun) run(tr *tracer) outcome {
	var o outcome
	res, err := runStudy(r.st, r.store, tr)
	o.check(err == nil, "%v", err)
	if err != nil {
		return o
	}
	o.emails = res.EmailsProcessed
	readBack(tr, r.st.Vault, nil, &o)
	live := r.st.Vault.Len()
	o.check(live == res.VaultRecords && live > 0, "vault holds %d records, run stored %d", live, res.VaultRecords)
	return o
}

func (r *collectMemRun) close() error { return r.st.Vault.Close() }

// collectMemExtras runs, once, what the materialized collection is part
// of in cmd/study: experiments.NewSuite(seed) split into its stages, the
// per-layer replay over the suite's collection (one pass: the
// materialized run generates each unit once), and the Section 5/7
// pipeline over the suite's ecosystem seed.
func collectMemExtras(seed int64, tr *tracer) error {
	st, err := suiteExtras(seed, tr)
	if err != nil {
		return err
	}
	replayLayers(tr, st, 1)
	// experiments.Suite generates its ecosystem at Seed+1000.
	if o := victimPipeline(seed+1000, tr); o.failed > 0 {
		return fmt.Errorf("ecosystem pipeline: %s", strings.Join(o.failures, "; "))
	}
	return nil
}

// ---- the Section 5 scan and the Section 7 honey campaign, as
// cmd/ecoscan and cmd/honeyprobe run them, without a beacon listener.

// honeySentAt is the campaign's simulated send time (Table 6's).
var honeySentAt = time.Date(2017, 6, 15, 9, 0, 0, 0, time.UTC)

// victimPipeline generates the default-scale ecosystem at seed, scans
// its ctypos, clusters its WHOIS records and runs the honey campaign
// over its typosquatting domains, each call under its own span. Its
// work unit is the campaign's EmailsSent.
func victimPipeline(seed int64, tr *tracer) outcome {
	var o outcome
	cfg := ecosys.DefaultConfig()
	cfg.Seed = seed
	end := tr.begin("ecosys.generate")
	eco := ecosys.Generate(cfg)
	end()
	tr.add("ecosys.domains", float64(len(eco.Domains)))

	end = tr.begin("probe.scan")
	ctypos := eco.Ctypos()
	names := make([]string, 0, len(ctypos))
	for _, d := range ctypos {
		names = append(names, d.Name)
	}
	table := probe.Table4(probe.ScanParallel(context.Background(), names, &probe.EcoNet{Eco: eco}, runtime.GOMAXPROCS(0)))
	end()
	tr.add("probe.domains", float64(len(names)))
	rows := 0
	for _, n := range table {
		rows += n
	}
	o.check(rows == len(names), "Table 4 rows sum to %d, want %d ctypos", rows, len(names))

	end = tr.begin("whois.cluster")
	clusters := whois.Cluster(eco.WhoisRecords(), 4)
	end()
	tr.add("whois.clusters", float64(len(clusters)))

	beacon := honey.NewBeacon(nil)
	camp := &honey.Campaign{Eco: eco, Beacon: beacon, Shell: honey.NewShellAccount(beacon),
		Key: "perfbench-key", From: "j.tailor@study.example"}
	squat := eco.TyposquattingDomains()
	domains := make([]string, 0, len(squat))
	for _, d := range squat {
		domains = append(domains, d.Name)
	}
	end = tr.begin("honey.run_probe")
	_, outcomes := camp.RunProbe(domains)
	end()
	accepting := honey.Accepting(outcomes)
	mx := camp.Table6(accepting)
	o.check(len(accepting) > 0 && len(mx) > 0, "%d accepting domains over %d MX hosts", len(accepting), len(mx))

	end = tr.begin("honey.run_honey")
	rep := camp.RunHoney(accepting, honeySentAt, par.Rand(seed, 1))
	end()
	tr.add("honey.emails", float64(rep.EmailsSent))
	o.check(rep.EmailsSent == 4*len(accepting),
		"honey sent %d emails, want 4 designs x %d accepting domains", rep.EmailsSent, len(accepting))
	o.emails = rep.EmailsSent
	return o
}
