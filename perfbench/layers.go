package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/alexa"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/sanitize"
	"repro/internal/simclock"
	"repro/internal/spamfilter"
	"repro/internal/spamgen"
	"repro/internal/users"
)

// replayUnits is core's sub-stream index for its per-(day, domain) unit
// claims, so the replay seeds exactly the generators the run seeds.
const replayUnits = 1

// unitClaim is one (non-outage day, study domain) generation unit.
type unitClaim struct {
	day int
	d   core.StudyDomain
}

// unitClaims lists the collection's units in core's order: day-major
// over the non-outage days, then every study domain.
func unitClaims(st *core.Study) []unitClaim {
	out := make([]unitClaim, 0, st.Cfg.Days*len(st.Domains))
	for day := 0; day < st.Cfg.Days; day++ {
		if inOutage(st.Cfg, day) {
			continue
		}
		for _, d := range st.Domains {
			out = append(out, unitClaim{day: day, d: d})
		}
	}
	return out
}

func inOutage(cfg core.Config, day int) bool {
	for _, o := range cfg.Outages {
		if day >= o[0] && day < o[1] {
			return true
		}
	}
	return false
}

// replayLayers times the public entry points of the layers a collection
// run calls internally, over the run's own inputs: it regenerates, from
// the study's seed, universe and user model, the emails Study.Run
// generates, and feeds them to the layers one call at a time.
//
//   - par: par.Rand over every unit claim, once per pass.
//   - spamgen: per unit, spamgen.New from the unit's stream, then
//     Materialize of the unit's DayVolume (at the domain's
//     attractiveness) sampled one in SpamSampleDivisor, as core does.
//   - spamfilter: Classifier.ClassifyOne over those spam samples, then
//     over the unit's typo-candidate traffic (receiver typos, scams,
//     reflection notifications, SMTP-typo episodes), in landing-day
//     order, with mail landing on outage days or past the window
//     dropped, as core does.
//   - extract, sanitize: for every receiver-typo verdict on that
//     traffic, extract.Text over each attachment, then Sanitizer.Redact
//     over the body and the extracted text, as core's recordSensitive
//     does.
//
// The replay mirrors core's generateUnit draw for draw. Its email count
// equals Result.EmailsProcessed; perfbench_test.go checks that, so a
// change to core's generator that the replay does not follow shows.
func replayLayers(tr *tracer, st *core.Study, passes int) {
	units := unitClaims(st)
	unitSeed := par.SubSeed(st.Cfg.Seed, replayUnits)

	rt0 := readRuntime()
	start := time.Now()
	for p := 0; p < passes; p++ {
		for i := range units {
			par.Rand(unitSeed, i)
		}
	}
	tr.add("par.rand_s", time.Since(start).Seconds())
	tr.add("par.rand_calls", float64(passes*len(units)))
	tr.add("par.rand_alloc_mb", float64(readRuntime().allocBytes-rt0.allocBytes)/mib)

	ours := make(map[string]bool, len(st.Domains))
	for _, d := range st.Domains {
		ours[d.Name] = true
	}
	spamCls := spamfilter.NewClassifier(spamfilter.Config{
		OurDomains: ours, RcptThreshold: 2, SenderThreshold: 1, ContentThreshold: 1,
	})
	f := &funnelReplay{
		tr:  tr,
		cls: spamfilter.NewClassifier(spamfilter.Config{OurDomains: ours}),
		san: sanitize.New("salt-on-removable-storage"),
	}
	pending := make([][]typoMail, st.Cfg.Days)
	for i, u := range units {
		rng := par.Rand(unitSeed, i)
		when := simclock.CollectionStart.Add(time.Duration(u.day)*24*time.Hour + 12*time.Hour)
		for _, e := range replaySpam(tr, st, u, rng) {
			e.Received = when
			tm := time.Now()
			r := spamCls.ClassifyOne(e)
			tr.add("spamfilter.classify_s", time.Since(tm).Seconds())
			f.count(r)
		}
		for _, m := range replayTypoTraffic(st, u, rng) {
			pending[m.day] = append(pending[m.day], m)
		}
	}
	for day, mail := range pending {
		if inOutage(st.Cfg, day) {
			continue
		}
		sort.SliceStable(mail, func(a, b int) bool { return mail[a].e.Received.Before(mail[b].e.Received) })
		for _, m := range mail {
			f.classify(m)
		}
	}
	if f.classified > 0 {
		tr.add("spamfilter.survivor_frac", float64(f.survivors)/float64(f.classified))
	}
}

// replaySpam is generateUnit's aggregate-spam step: the unit's spam
// generator, its day volume and the sampled materialization.
func replaySpam(tr *tracer, st *core.Study, u unitClaim, rng *rand.Rand) []*spamfilter.Email {
	isTrap := u.d.Kind == core.KindSMTPTrap
	t := time.Now()
	g := spamgen.New(spamgen.DefaultParams(), rng.Int63())
	tr.add("spamgen.new_s", time.Since(t).Seconds())
	n := sampleCount(rng, g.DayVolume(u.day, attractiveness(st, u.d), isTrap), st.Cfg.SpamSampleDivisor)
	if n == 0 {
		return nil
	}
	t = time.Now()
	samples := g.Materialize(n, u.d.Name, isTrap)
	tr.add("spamgen.materialize_s", time.Since(t).Seconds())
	tr.add("spamgen.emails", float64(len(samples)))
	return samples
}

// attractiveness is core's scaling of a domain's spam draw by its
// target's popularity.
func attractiveness(st *core.Study, d core.StudyDomain) float64 {
	t, ok := st.Universe.Lookup(d.Target)
	if !ok {
		return 0.5
	}
	return 2.2 / math.Pow(float64(t.Rank), 0.30)
}

// sampleCount is core's one-in-divisor sampling with a dithered
// remainder.
func sampleCount(rng *rand.Rand, volume, divisor int) int {
	n := volume / divisor
	if rng.Float64() < float64(volume%divisor)/float64(divisor) {
		n++
	}
	return n
}

// typoMail is one typo-candidate email with its landing day; scams are
// the run's contaminants, which core never stores.
type typoMail struct {
	e    *spamfilter.Email
	day  int
	scam bool
}

// typoRates is core's expected daily arrivals of receiver typos,
// reflection episodes and SMTP-typo episodes for a domain.
func typoRates(st *core.Study, d core.StudyDomain) (recv, refl, smtpEpisodes float64) {
	target, ok := st.Universe.Lookup(d.Target)
	if !ok {
		target = alexa.Domain{Rank: 500, MonthlyVisitors: alexa.Visitors(500)}
	}
	yearly := st.Model.ExpectedYearlyTypoEmails(target, d.Name)
	switch d.Kind {
	case core.KindReceiver:
		recv = yearly / 365
		refl = recv * 0.08
	case core.KindDisposable:
		recv = yearly / 365 * 0.4
		refl = recv * 1.2
	case core.KindSMTPTrap:
		episodesYearly := math.Min(40, math.Max(2, target.MonthlyVisitors*3e-7))
		smtpEpisodes = episodesYearly / 365 * users.SMTPTypoRatePerReceiverTypo * 10
		recv = 700.0 / 365 / 45
	}
	return
}

// replayTypoTraffic is generateUnit's 1:1 typo-candidate traffic, drawn
// from the unit's stream after its spam step. Mail scheduled past the
// collection window is dropped here, as core drops it.
func replayTypoTraffic(st *core.Study, u unitClaim, rng *rand.Rand) []typoMail {
	d := u.d
	trap := d.Kind == core.KindSMTPTrap
	at := func(day, hour int) time.Time {
		return simclock.CollectionStart.Add(time.Duration(day)*24*time.Hour + time.Duration(hour)*time.Hour)
	}
	var out []typoMail
	recvRate, reflRate, smtpRate := typoRates(st, d)
	for n := spamgen.Poisson(rng, recvRate); n > 0; n-- {
		from := corpus.PersonAddr(rng, []string{"gmail.com", "yahoo.com", "aol.com", "corp.example"}[rng.Intn(4)])
		rcpt := users.RandomLocalPart(rng) + "@" + d.Name
		var kinds []sanitize.Kind
		if rng.Float64() < 0.10 {
			all := sanitize.AllKinds()
			kinds = append(kinds, all[rng.Intn(len(all))])
			if d.Kind == core.KindDisposable && rng.Float64() < 0.6 {
				kinds = append(kinds, sanitize.KindUsername, sanitize.KindPassword)
			}
		}
		msg := corpus.TypoEmail(rng, from, rcpt, kinds)
		out = append(out, typoMail{day: u.day, e: &spamfilter.Email{Msg: msg, ServerDomain: d.Name,
			RcptAddr: rcpt, SenderAddr: from, SMTPTypoDomain: trap, Received: at(u.day, 12)}})
	}
	for n := spamgen.Poisson(rng, recvRate*0.27); n > 0; n-- {
		rcpt := users.RandomLocalPart(rng) + "@" + d.Name
		msg := corpus.ScamMessage(rng, rcpt)
		out = append(out, typoMail{day: u.day, scam: true, e: &spamfilter.Email{Msg: msg, ServerDomain: d.Name,
			RcptAddr: rcpt, SenderAddr: mailmsg.Addr(msg.From()), SMTPTypoDomain: trap, Received: at(u.day, 12)}})
	}
	for n := spamgen.Poisson(rng, reflRate); n > 0; n-- {
		ep := users.SampleReflectionEpisode(rng, users.RandomLocalPart(rng)+"@"+d.Name)
		for k := 0; k < ep.Emails; k++ {
			dd := u.day + k*2
			if dd >= st.Cfg.Days {
				break
			}
			msg := corpus.ReflectionMessage(rng, ep.Rcpt)
			out = append(out, typoMail{day: dd, e: &spamfilter.Email{Msg: msg, ServerDomain: d.Name,
				RcptAddr: ep.Rcpt, SenderAddr: mailmsg.Addr(msg.From()), Received: at(dd, 13)}})
		}
	}
	for n := spamgen.Poisson(rng, smtpRate); n > 0; n-- {
		user := fmt.Sprintf("%s@%s", users.RandomLocalPart(rng), d.Target)
		ep := users.SampleSMTPEpisode(rng, user)
		for k := 0; k < ep.Emails; k++ {
			frac := 0.0
			if ep.Emails > 1 {
				frac = float64(k) / float64(ep.Emails-1)
			}
			dd := u.day + int(ep.Persistence*frac)
			if dd >= st.Cfg.Days {
				break
			}
			rcpt := corpus.PersonAddr(rng, "gmail.com")
			msg := corpus.TypoEmail(rng, user, rcpt, nil)
			out = append(out, typoMail{day: dd, e: &spamfilter.Email{Msg: msg, ServerDomain: d.Name,
				RcptAddr: rcpt, SenderAddr: user, SMTPTypoDomain: true, Received: at(dd, 14)}})
		}
	}
	return out
}

// funnelReplay classifies replayed typo-candidate mail one email at a
// time and runs receiver-typo verdicts through extraction and redaction.
type funnelReplay struct {
	tr                    *tracer
	cls                   *spamfilter.Classifier
	san                   *sanitize.Sanitizer
	classified, survivors int
}

// count tallies one verdict.
func (f *funnelReplay) count(r spamfilter.Result) {
	f.tr.add("spamfilter.emails", 1)
	f.classified++
	if r.Verdict.IsTrueTypo() {
		f.survivors++
	}
}

func (f *funnelReplay) classify(m typoMail) {
	t := time.Now()
	r := f.cls.ClassifyOne(m.e)
	f.tr.add("spamfilter.classify_s", time.Since(t).Seconds())
	f.count(r)
	if m.scam || r.Verdict != spamfilter.VerdictReceiverTypo {
		return
	}
	var text strings.Builder
	text.WriteString(m.e.Msg.Body)
	for _, a := range m.e.Msg.Attachments {
		t = time.Now()
		extracted, err := extract.Text(a.Filename, a.Data)
		f.tr.add("extract.text_s", time.Since(t).Seconds())
		f.tr.add("extract.attachments", 1)
		if err == nil { // unknown formats are skipped, as core skips them
			text.WriteString("\n")
			text.WriteString(extracted)
		}
	}
	t = time.Now()
	f.san.Redact(text.String())
	f.tr.add("sanitize.redact_s", time.Since(t).Seconds())
	f.tr.add("sanitize.texts", 1)
}
