package core

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/par"
	"repro/internal/simclock"
	"repro/internal/spamfilter"
)

// timeFromUnixNano restores a Received timestamp from its spill wire
// form; instants survive the round trip exactly.
func timeFromUnixNano(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// streamSink receives the chunked run's two ordered event streams:
// onUnit fires once per generated unit in global unit order (the exact
// order Run's sequential merge appends in), onDay fires once per
// non-outage day in day order with that day's traffic already stably
// sorted by Received — which is the same order the materialized path's
// single global stable sort visits them in, because every email lands
// within its day and days are disjoint.
type streamSink struct {
	onUnit func(u genUnit, out *unitResult) error
	onDay  func(day int, emails []pendEmail) error
}

// streamChunks drives one pass over the collection: generate
// StreamChunkDays-sized chunks of units on the par pool (par.MapAt keeps
// each unit on the same PRNG sub-stream as the unchunked par.Map), merge
// them in unit order, and drain every day that can no longer receive
// traffic (units only schedule into their own day or later, so a day is
// final once generation has moved past it). The pending queue bounds the
// working set; with a spill dir it stays bounded even when episodes
// trail their cause by many days.
//
// With typoOnly set, a chunk regenerates only the units that ledger
// flags as having scheduled typo traffic in pass one, and only their typo half
// (generateTypo); par.MapSparse keeps each on its own sub-stream, and
// onUnit fires for those units alone. Units left out are never seeded.
func (s *Study) streamChunks(q *pendQueue, typoOnly *unitLedger, sink streamSink) error {
	start := simclock.CollectionStart
	chunkDays := s.Cfg.StreamChunkDays
	if chunkDays <= 0 {
		chunkDays = 8
	}
	seed := par.SubSeed(s.Cfg.Seed, streamGenUnits)
	base, drained := 0, 0
	chunk := make([]genUnit, 0, chunkDays*len(s.Domains))
	var keys []int
	var sparse []genUnit
	flush := func(upTo int) error {
		if len(chunk) > 0 {
			units := chunk
			var outs []unitResult
			if typoOnly == nil {
				outs = par.MapAt(seed, base, chunk,
					func(_ int, u genUnit, rng *rand.Rand) unitResult {
						return s.generateUnit(u, rng, start)
					})
			} else {
				keys, sparse = keys[:0], sparse[:0]
				for k, u := range chunk {
					if typoOnly.hasTypo(base + k) {
						keys = append(keys, base+k)
						sparse = append(sparse, u)
					}
				}
				units = sparse
				outs = par.MapSparse(seed, keys, sparse,
					func(_ int, u genUnit, rng *rand.Rand) unitResult {
						return s.generateTypo(u, rng, start)
					})
			}
			for k := range units {
				if err := sink.onUnit(units[k], &outs[k]); err != nil {
					return err
				}
			}
			base += len(chunk)
			chunk = chunk[:0]
		}
		for ; drained < upTo; drained++ {
			if s.inOutage(drained) {
				// The infrastructure was down: whatever landed is lost.
				q.drop(drained)
				continue
			}
			emails, err := q.take(drained)
			if err != nil {
				return err
			}
			sort.SliceStable(emails, func(i, j int) bool {
				return emails[i].e.Received.Before(emails[j].e.Received)
			})
			if err := sink.onDay(drained, emails); err != nil {
				return err
			}
		}
		return nil
	}
	next := chunkDays
	for day := 0; day < s.Cfg.Days; day++ {
		if !s.inOutage(day) {
			for di := range s.Domains {
				chunk = append(chunk, genUnit{day: day, di: di})
			}
		}
		if day+1 >= next {
			if err := flush(day + 1); err != nil {
				return err
			}
			next = day + 1 + chunkDays
		}
	}
	return flush(s.Cfg.Days)
}

// calSurvivor is a calibration sample that cleared layers 1–4 in pass
// one; its Layer 5 fate is decided once the corpus-wide frequency tables
// are complete, just like Classify's second sweep.
type calSurvivor struct {
	isTrap                bool
	rcpt, sender, content spamfilter.FreqKey
}

// domainTally defers one domain's integer classification counts.
type domainTally struct {
	spam, filtered, spamEscaped, receiver, reflection, smtpTypo, smtpFreqFiltered int
}

// streamTally defers every integer classification contribution of the
// streaming run. The materialized path performs all float volume
// allocations before any classification +1, so each accumulator sees
// "volume adds, then N unit increments"; the streaming run reproduces
// that exact per-accumulator sequence by counting during replay and
// applying repeated += 1 at the end (never += N — float addition does
// not distribute).
type streamTally struct {
	domains map[string]*domainTally
	series  map[*simclock.DaySeries][]int
	days    int
}

func newStreamTally(days int) *streamTally {
	return &streamTally{
		domains: map[string]*domainTally{},
		series:  map[*simclock.DaySeries][]int{},
		days:    days,
	}
}

func (t *streamTally) domain(name string) *domainTally {
	dt := t.domains[name]
	if dt == nil {
		dt = &domainTally{}
		t.domains[name] = dt
	}
	return dt
}

// hit counts one deferred Add(when, 1), replicating DaySeries.Add's
// silent out-of-window drop.
func (t *streamTally) hit(ds *simclock.DaySeries, when time.Time) {
	if when.Before(ds.Start) {
		return
	}
	d := int(when.Sub(ds.Start) / (24 * time.Hour))
	if d >= t.days {
		return
	}
	bins := t.series[ds]
	if bins == nil {
		bins = make([]int, t.days)
		t.series[ds] = bins
	}
	bins[d]++
}

// apply folds the deferred counts into the result as unit increments.
func (t *streamTally) apply(res *Result) {
	addN := func(x *float64, n int) {
		for i := 0; i < n; i++ {
			*x++
		}
	}
	names := make([]string, 0, len(t.domains))
	for n := range t.domains {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		dt, st := t.domains[n], res.PerDomain[n]
		addN(&st.SpamYearly, dt.spam)
		addN(&st.FilteredYearly, dt.filtered)
		addN(&st.SpamEscapedYearly, dt.spamEscaped)
		addN(&st.ReceiverYearly, dt.receiver)
		addN(&st.ReflectionYearly, dt.reflection)
		addN(&st.SMTPTypoYearly, dt.smtpTypo)
		addN(&st.SMTPFreqFilteredYearly, dt.smtpFreqFiltered)
	}
	for ds, bins := range t.series {
		for d, n := range bins {
			addN(&ds.Counts[d], n)
		}
	}
}

// runStreaming is Run's chunked two-pass equivalent: byte-identical
// output with a working set bounded by the chunk size, the pending
// queue's spill budget and the (small) corpus-wide frequency tables,
// instead of the whole materialized collection.
//
// Layer 5 of the funnel is corpus-wide, so one pass cannot classify:
// pass one streams generation to harvest the calibration tallies, the
// Layer 5 frequency tables and each unit's ledger entry (volume and typo
// flag); the aggregate volumes are then allocated in unit order, and
// pass two regenerates the identical typo traffic of only the flagged
// units (typoHalf is a pure function of the unit and its PRNG
// sub-stream) and replays the funnel day by day against a fresh
// classifier with the harvested tables — exactly the decomposition
// Classify performs in one sweep.
func (s *Study) runStreaming() (*Result, error) {
	ourDomains := s.ourDomainSet()
	start := simclock.CollectionStart
	res := s.newResult(start)

	// ---- Pass 1: calibration + Layer 5 frequency harvest.
	q1, err := newPendQueue(s.Cfg.SpillDir, "pass1", s.Cfg.SpillBudgetBytes)
	if err != nil {
		return nil, err
	}
	defer q1.close()

	calCls := spamfilter.NewClassifier(spamfilter.Config{
		OurDomains:       ourDomains,
		RcptThreshold:    2,
		SenderThreshold:  1,
		ContentThreshold: 1,
	})
	cal := map[bool]*spamCalib{false: {}, true: {}}
	calFreq := spamfilter.NewFreqTables()
	var calSurv []calSurvivor
	cls1 := spamfilter.NewClassifier(spamfilter.Config{OurDomains: ourDomains})
	mainFreq := spamfilter.NewFreqTables()
	emailsSeen := 0
	ledger := newUnitLedger(s.unitCount())
	unit := 0

	err = s.streamChunks(q1, nil, streamSink{
		onUnit: func(u genUnit, out *unitResult) error {
			if err := ledger.record(unit, out); err != nil {
				return err
			}
			unit++
			d := &s.Domains[u.di]
			isTrap := d.Kind == KindSMTPTrap
			// Calibration samples arrive nondecreasing in Received
			// (day-major at a fixed hour), so classifying them here in
			// unit order matches calCls.Classify's stable sort exactly.
			for _, e := range out.samples {
				r := calCls.ClassifyOne(e)
				c := cal[isTrap]
				c.total++
				switch {
				case r.Verdict.IsSpamVerdict():
					c.spamV++
				case r.Verdict == spamfilter.VerdictReflection:
					c.filtered++
				default:
					rcpt, snd, ct := spamfilter.FreqKeys(e)
					calFreq.AddKeys(rcpt, snd, ct)
					calSurv = append(calSurv, calSurvivor{isTrap: isTrap, rcpt: rcpt, sender: snd, content: ct})
				}
			}
			emailsSeen += len(out.samples)
			for _, se := range out.sched {
				if err := q1.add(se.day, pendEmail{e: se.e, di: u.di, contaminant: se.contaminant}); err != nil {
					return err
				}
			}
			res.SMTPPersistence = append(res.SMTPPersistence, out.persistence...)
			res.SMTPEpisodeSizes = append(res.SMTPEpisodeSizes, out.episodeSizes...)
			return nil
		},
		onDay: func(day int, emails []pendEmail) error {
			for i := range emails {
				if r := cls1.ClassifyOne(emails[i].e); r.Verdict.IsTrueTypo() {
					mainFreq.Add(emails[i].e)
				}
			}
			emailsSeen += len(emails)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	// Resolve the deferred calibration Layer 5 now the corpus-wide
	// frequencies are complete, then release the calibration state —
	// pass two only needs the fraction tallies and mainFreq.
	for _, sv := range calSurv {
		c := cal[sv.isTrap]
		if calCls.KeysExceed(calFreq, sv.rcpt, sv.sender, sv.content) {
			c.filtered++
		} else {
			c.escaped++
		}
	}
	calSurv, calFreq = nil, nil
	s.allocateVolumes(res, ledger.volumes, cal)

	// ---- Pass 2: replay the funnel over the regenerated typo traffic.
	q2, err := newPendQueue(s.Cfg.SpillDir, "pass2", s.Cfg.SpillBudgetBytes)
	if err != nil {
		return nil, err
	}
	defer q2.close()

	cls2 := spamfilter.NewClassifier(spamfilter.Config{OurDomains: ourDomains})
	tally := newStreamTally(s.Cfg.Days)

	err = s.streamChunks(q2, ledger, streamSink{
		onUnit: func(u genUnit, out *unitResult) error {
			for _, se := range out.sched {
				if err := q2.add(se.day, pendEmail{e: se.e, di: u.di, contaminant: se.contaminant}); err != nil {
					return err
				}
			}
			return nil
		},
		onDay: func(day int, emails []pendEmail) error {
			for i := range emails {
				pe := &emails[i]
				d := &s.Domains[pe.di]
				r := cls2.ClassifyOne(pe.e)
				cls2.ApplyLayer5(&r, mainFreq)
				if pe.contaminant {
					dt := tally.domain(d.Name)
					if r.Verdict.IsTrueTypo() {
						dt.spamEscaped++
						if d.Kind == KindSMTPTrap {
							tally.hit(res.SMTPTrueDaily, r.Email.Received)
						} else {
							tally.hit(res.ReceiverTrueDaily, r.Email.Received)
						}
					} else {
						dt.spam++
					}
					continue
				}
				s.recordTypoStreamed(res, tally, r, d)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	tally.apply(res)
	res.EmailsProcessed = emailsSeen
	s.annualize(res)
	return res, nil
}

// recordTypoStreamed mirrors recordTypoResult with the integer counts
// deferred into the tally; the sanitizer/vault path runs inline because
// vault record IDs depend on Put order, which the day-by-day replay
// already visits in the materialized loop's exact sequence.
func (s *Study) recordTypoStreamed(res *Result, t *streamTally, r spamfilter.Result, d *StudyDomain) {
	dt := t.domain(d.Name)
	when := r.Email.Received
	isTrapSeries := d.Kind == KindSMTPTrap

	switch r.Verdict {
	case spamfilter.VerdictReceiverTypo:
		dt.receiver++
		if isTrapSeries {
			t.hit(res.SMTPTrueDaily, when)
		} else {
			t.hit(res.ReceiverTrueDaily, when)
		}
		s.recordSensitive(res, r.Email, d)
	case spamfilter.VerdictSMTPTypo:
		dt.smtpTypo++
		t.hit(res.SMTPTrueDaily, when)
	case spamfilter.VerdictReflection:
		dt.reflection++
		dt.filtered++
		if isTrapSeries {
			t.hit(res.SMTPFilteredDaily, when)
		} else {
			t.hit(res.ReceiverFilteredDaily, when)
		}
	case spamfilter.VerdictFrequency:
		dt.filtered++
		if r.FreqOf == spamfilter.VerdictSMTPTypo {
			dt.smtpFreqFiltered++
			t.hit(res.SMTPFilteredDaily, when)
		} else if isTrapSeries {
			t.hit(res.SMTPFilteredDaily, when)
		} else {
			t.hit(res.ReceiverFilteredDaily, when)
		}
	default:
		dt.spam++
		if isTrapSeries {
			t.hit(res.SMTPSpamDaily, when)
		} else {
			t.hit(res.ReceiverSpamDaily, when)
		}
	}
}
