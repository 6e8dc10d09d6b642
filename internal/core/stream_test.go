package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/simclock"
	"repro/internal/spamfilter"
)

// runConfig renders one study run's resultString under the given knobs.
func runConfig(t *testing.T, cfg Config, workers int) string {
	t.Helper()
	return runDomains(t, cfg, workers, nil)
}

// runDomains is runConfig over the given study domains (nil keeps the
// full registration).
func runDomains(t *testing.T, cfg Config, workers int, domains []StudyDomain) string {
	t.Helper()
	par.SetWorkers(workers)
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if domains != nil {
		s.Domains = domains
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return resultString(res)
}

// TestStreamingSeedEquivalence is the streaming substrate's contract:
// the chunked two-pass run is byte-identical to the materialized run for
// any worker count, chunk size, and spill budget.
func TestStreamingSeedEquivalence(t *testing.T) {
	defer par.SetWorkers(0)
	for _, seed := range []int64{3, 20160604} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Days = 60

		ref := runConfig(t, cfg, 1)

		cases := []struct {
			name      string
			workers   int
			chunkDays int
			spill     bool
			budget    int64
		}{
			{name: "w1-chunk8", workers: 1, chunkDays: 8},
			{name: "w8-chunk1", workers: 8, chunkDays: 1},
			{name: "w2-chunk64", workers: 2, chunkDays: 64},
			{name: "w8-chunk8-spill", workers: 8, chunkDays: 8, spill: true, budget: 1 << 14},
		}
		for _, tc := range cases {
			scfg := cfg
			scfg.Streaming = true
			scfg.StreamChunkDays = tc.chunkDays
			if tc.spill {
				scfg.SpillDir = t.TempDir()
				scfg.SpillBudgetBytes = tc.budget
			}
			if got := runConfig(t, scfg, tc.workers); got != ref {
				t.Fatalf("seed %d %s: streaming result differs from materialized run", seed, tc.name)
			}
			if tc.spill {
				left, _ := filepath.Glob(filepath.Join(scfg.SpillDir, "*.spill"))
				if len(left) != 0 {
					t.Fatalf("seed %d %s: spill segments left behind: %v", seed, tc.name, left)
				}
			}
		}
	}
	t.Run("sparse-typo", sparseTypoEquivalence)
}

// sparseTypoEquivalence pins pass two's typo-only regeneration at the
// shapes that stress it: one-day chunks, chunks in which no unit
// schedules typo traffic (so pass two seeds nothing in them), and
// outages straddling chunk boundaries. Each must match the materialized
// run byte for byte.
func sparseTypoEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 504
	cfg.Days = 48
	// Chunk boundaries at multiples of 4 and 8 fall inside both gaps.
	cfg.Outages = [][2]int{{6, 10}, {22, 27}}

	// The SMTP-trap domains see a few typo emails a month, so most of
	// their units, and whole one- and two-day chunks, carry none.
	var traps []StudyDomain
	for _, d := range AllStudyDomains() {
		if d.Kind == KindSMTPTrap {
			traps = append(traps, d)
		}
	}
	for _, domains := range [][]StudyDomain{nil, traps[:8]} {
		ref := runDomains(t, cfg, 1, domains)
		if domains != nil {
			s, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Domains = domains
			quiet, busy := typoChunks(s, 2)
			if quiet == 0 || busy == 0 {
				t.Fatalf("%d domains: %d two-day chunks without typo traffic, %d with; want both",
					len(domains), quiet, busy)
			}
		}
		for _, tc := range []struct {
			workers, chunkDays int
			spill              bool
		}{
			{workers: 1, chunkDays: 1},
			{workers: 8, chunkDays: 1},
			{workers: 2, chunkDays: 2},
			{workers: 2, chunkDays: 4, spill: true},
			{workers: 8, chunkDays: 8},
		} {
			scfg := cfg
			scfg.Streaming = true
			scfg.StreamChunkDays = tc.chunkDays
			if tc.spill {
				scfg.SpillDir = t.TempDir()
				scfg.SpillBudgetBytes = 1 << 12
			}
			if got := runDomains(t, scfg, tc.workers, domains); got != ref {
				t.Fatalf("%d domains, workers=%d chunk=%d spill=%v: streaming result differs from materialized run",
					len(domains), tc.workers, tc.chunkDays, tc.spill)
			}
		}
	}
}

// typoChunks counts the chunkDays-sized chunks whose units schedule no
// typo traffic (quiet) and those with some (busy), from a full
// generation of every unit. Chunks made only of outage days are skipped.
func typoChunks(s *Study, chunkDays int) (quiet, busy int) {
	var units []genUnit
	for day := 0; day < s.Cfg.Days; day++ {
		if !s.inOutage(day) {
			for di := range s.Domains {
				units = append(units, genUnit{day: day, di: di})
			}
		}
	}
	typo := par.Map(par.SubSeed(s.Cfg.Seed, streamGenUnits), units,
		func(_ int, u genUnit, rng *rand.Rand) bool {
			return len(s.generateUnit(u, rng, simclock.CollectionStart).sched) > 0
		})
	chunkTypo := map[int]bool{}
	for k, u := range units {
		chunkTypo[u.day/chunkDays] = chunkTypo[u.day/chunkDays] || typo[k]
	}
	for _, has := range chunkTypo {
		if has {
			busy++
		} else {
			quiet++
		}
	}
	return quiet, busy
}

// TestStreamingLogVaultEquivalence runs streaming mode against the
// log-structured vault backend and checks the study output is identical
// to the in-memory-vault materialized run — the backends and run modes
// compose without observable difference.
func TestStreamingLogVaultEquivalence(t *testing.T) {
	defer par.SetWorkers(0)
	cfg := DefaultConfig()
	cfg.Seed = 77
	cfg.Days = 45
	ref := runConfig(t, cfg, 1)

	scfg := cfg
	scfg.Streaming = true
	scfg.VaultDir = t.TempDir()
	scfg.VaultSegmentBytes = 1 << 14 // force rotation
	if got := runConfig(t, scfg, 4); got != ref {
		t.Fatal("streaming+logvault result differs from materialized run")
	}
}

func pendTestEmail(day int, body string) *spamfilter.Email {
	msg := mailmsg.New()
	msg.AddHeader("From", "a@b.example")
	msg.Body = body
	return &spamfilter.Email{
		Msg: msg, ServerDomain: "d.example", RcptAddr: "x@d.example",
		SenderAddr: "a@b.example",
		Received:   time.Date(2016, 6, 4+day, 12, 0, 0, 0, time.UTC),
	}
}

// TestPendQueueSpillRoundTrip drives the spill queue past its budget and
// checks drain order, metadata fidelity, and on-disk hygiene.
func TestPendQueueSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q, err := newPendQueue(dir, "t", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()

	const perDay = 10
	for day := 0; day < 4; day++ {
		for i := 0; i < perDay; i++ {
			pe := pendEmail{
				e:           pendTestEmail(day, fmt.Sprintf("body day=%d i=%d padding padding padding", day, i)),
				di:          day*perDay + i,
				contaminant: i%3 == 0,
			}
			if err := q.add(day, pe); err != nil {
				t.Fatal(err)
			}
		}
	}
	if q.spills == 0 {
		t.Fatal("budget never triggered a spill")
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.spill"))
	if len(segs) == 0 {
		t.Fatal("no spill segments on disk")
	}
	// Spilled bytes must be ciphertext: the bodies are absent from disk.
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if containsSub(raw, []byte("padding")) {
			t.Fatalf("plaintext body found in spill segment %s", seg)
		}
	}

	for day := 0; day < 4; day++ {
		got, err := q.take(day)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != perDay {
			t.Fatalf("day %d: got %d emails, want %d", day, len(got), perDay)
		}
		for i, pe := range got {
			wantBody := fmt.Sprintf("body day=%d i=%d padding padding padding", day, i)
			if pe.e.Msg.Body != wantBody {
				t.Fatalf("day %d slot %d: body %q, want %q (append order lost)", day, i, pe.e.Msg.Body, wantBody)
			}
			if pe.di != day*perDay+i || pe.contaminant != (i%3 == 0) {
				t.Fatalf("day %d slot %d: metadata lost: di=%d contaminant=%v", day, i, pe.di, pe.contaminant)
			}
			if !pe.e.Received.Equal(pendTestEmail(day, "").Received) {
				t.Fatalf("day %d slot %d: Received mutated", day, i)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.spill")); len(left) != 0 {
		t.Fatalf("spill segments left after drain: %v", left)
	}
	if q.mem != 0 || q.spilled != 0 {
		t.Fatalf("queue accounting nonzero after drain: mem=%d spilled=%d", q.mem, q.spilled)
	}
}

// TestPendQueueDrop checks outage-day drops delete spill segments unread.
func TestPendQueueDrop(t *testing.T) {
	dir := t.TempDir()
	q, err := newPendQueue(dir, "t", 1) // spill on every add
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	for i := 0; i < 5; i++ {
		if err := q.add(2, pendEmail{e: pendTestEmail(2, "to be dropped")}); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.spill")); len(segs) == 0 {
		t.Fatal("expected a spill segment before drop")
	}
	q.drop(2)
	if left, _ := filepath.Glob(filepath.Join(dir, "*.spill")); len(left) != 0 {
		t.Fatalf("drop left segments: %v", left)
	}
	got, err := q.take(2)
	if err != nil || len(got) != 0 {
		t.Fatalf("take after drop: got %d emails, err %v", len(got), err)
	}
}

func containsSub(b, sub []byte) bool {
	for i := 0; i+len(sub) <= len(b); i++ {
		match := true
		for j := range sub {
			if b[i+j] != sub[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
