package corpus

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/extract"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/sanitize"
)

func TestGenerateEnronDeterministic(t *testing.T) {
	a := GenerateEnron(DefaultEnronOptions())
	b := GenerateEnron(DefaultEnronOptions())
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("doc %d differs across runs", i)
		}
	}
}

func TestGenerateEnronComposition(t *testing.T) {
	opts := DefaultEnronOptions()
	docs := GenerateEnron(opts)
	perKind := map[sanitize.Kind]int{}
	for _, d := range docs {
		for k, v := range d.Truth {
			if v {
				perKind[k]++
			}
		}
	}
	for _, k := range sanitize.AllKinds() {
		want := opts.PerKind
		if k == sanitize.KindSSN {
			want = 13 // the paper only had 13 SSN examples
		}
		if perKind[k] != want {
			t.Errorf("kind %s planted %d, want %d", k, perKind[k], want)
		}
	}
}

// TestTable2Shape: the detectors must reproduce Table 2's pattern on the
// synthetic Enron corpus — near-perfect sensitivity for the structured
// identifiers, high precision for most, and visibly weaker precision for
// the fuzzy ones (password, username, idnumber).
func TestTable2Shape(t *testing.T) {
	docs := GenerateEnron(DefaultEnronOptions())
	labeled := make([]sanitize.LabeledDoc, len(docs))
	for i, d := range docs {
		labeled[i] = d.Labeled()
	}
	scores := sanitize.Evaluate(labeled)
	strong := []sanitize.Kind{
		sanitize.KindCreditCard, sanitize.KindSSN, sanitize.KindEIN,
		sanitize.KindVIN, sanitize.KindZip, sanitize.KindEmail,
		sanitize.KindPhone, sanitize.KindDate,
	}
	for _, k := range strong {
		s := scores[k]
		if s.Sensitivity < 0.9 {
			t.Errorf("%s sensitivity = %.2f, want >= 0.9", k, s.Sensitivity)
		}
		if s.Precision < 0.85 {
			t.Errorf("%s precision = %.2f, want >= 0.85", k, s.Precision)
		}
	}
	for _, k := range []sanitize.Kind{sanitize.KindPassword, sanitize.KindUsername} {
		if s := scores[k]; s.Sensitivity < 0.9 {
			t.Errorf("%s sensitivity = %.2f, want >= 0.9 (paper: 1.00)", k, s.Sensitivity)
		}
	}
}

func TestGenerateDatasets(t *testing.T) {
	for _, ds := range AllDatasets() {
		msgs := Generate(ds)
		if len(msgs) == 0 {
			t.Fatalf("%s empty", ds)
		}
		spam := 0
		for _, lm := range msgs {
			if lm.Msg == nil {
				t.Fatalf("%s has nil message", ds)
			}
			if lm.Spam {
				spam++
			}
		}
		frac := float64(spam) / float64(len(msgs))
		if ds == DatasetUntroubled && frac != 1.0 {
			t.Errorf("Untroubled spam fraction = %.2f, want 1.0", frac)
		}
		if ds != DatasetUntroubled && (frac < 0.2 || frac > 0.8) {
			t.Errorf("%s spam fraction = %.2f, want mixed", ds, frac)
		}
	}
	if Generate(Dataset("nope")) != nil {
		t.Error("unknown dataset should be nil")
	}
}

func TestMessagesParseable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		for _, m := range []*mailmsg.Message{
			HamMessage(rng), SpamMessage(rng, 0.5), ReflectionMessage(rng, "x@gmial.com"),
		} {
			if _, err := mailmsg.Parse(m.Bytes()); err != nil {
				t.Fatalf("generated message unparseable: %v", err)
			}
			if mailmsg.Addr(m.From()) == "" || mailmsg.Addr(m.To()) == "" {
				t.Fatalf("missing addresses: %q -> %q", m.From(), m.To())
			}
		}
	}
}

func TestCampaignSharesBag(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m1 := CampaignMessage(rng, 42, 0)
	m2 := CampaignMessage(rng, 42, 0)
	if m1.Body != m2.Body {
		t.Error("same campaign should share body")
	}
	if m1.To() == m2.To() {
		t.Error("recipients should vary within a campaign")
	}
	m3 := CampaignMessage(rng, 43, 0)
	if m1.Body == m3.Body {
		t.Error("different campaigns should differ")
	}
}

func TestReflectionMessageMarkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := ReflectionMessage(rng, "victim@gmial.com")
	if !m.HasHeader("List-Unsubscribe") {
		t.Error("List-Unsubscribe missing")
	}
	if m.To() != "victim@gmial.com" {
		t.Errorf("To = %q", m.To())
	}
}

func TestPersonAddr(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	addr := PersonAddr(rng, "enron.com")
	if mailmsg.AddrDomain(addr) != "enron.com" {
		t.Errorf("addr = %q", addr)
	}
}

func TestScamMessageSurvivesFunnelRules(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 30; i++ {
		m := ScamMessage(rng, "victim@gmial.com")
		if _, err := mailmsg.Parse(m.Bytes()); err != nil {
			t.Fatalf("scam unparseable: %v", err)
		}
		if m.To() != "victim@gmial.com" {
			t.Fatalf("rcpt = %q", m.To())
		}
		if len(m.Attachments) != 0 {
			t.Fatal("scams must not carry attachments (archive rule)")
		}
		if !m.HasHeader("Message-Id") {
			t.Fatal("missing Message-Id would trip the scorer")
		}
	}
	// Distinct scams must have distinct senders and bodies (one-off).
	a, b := ScamMessage(rng, "x@y.com"), ScamMessage(rng, "x@y.com")
	if a.From() == b.From() {
		t.Error("scam senders repeat")
	}
}

func TestSampleAttachmentDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		a := SampleAttachment(rng)
		if a.Filename == "" || len(a.Data) == 0 {
			t.Fatal("empty attachment")
		}
		counts[a.Ext()]++
	}
	// Figure 7's mix: txt dominates, jpg second, pdf third.
	if !(counts["txt"] > counts["jpg"] && counts["jpg"] > counts["pdf"]) {
		t.Errorf("extension mix off: %v", counts)
	}
	if counts["zip"]+counts["rar"] != 0 {
		t.Error("generator produced forbidden archives as personal attachments")
	}
	// Office docs and images must be extractable (the pipeline consumes them).
	for i := 0; i < 200; i++ {
		a := SampleAttachment(rng)
		switch a.Ext() {
		case "docx", "pdf", "jpg", "png", "txt":
			if _, err := extract.Text(a.Filename, a.Data); err != nil {
				t.Fatalf("%s not extractable: %v", a.Filename, err)
			}
		}
	}
}

func TestTypoEmailSensitivePlanting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := TypoEmail(rng, "a@gmail.com", "b@gmial.com", []sanitize.Kind{sanitize.KindCreditCard, sanitize.KindSSN})
	kinds := map[sanitize.Kind]bool{}
	for _, f := range sanitize.Scan(m.Body) {
		kinds[f.Kind] = true
	}
	if !kinds[sanitize.KindCreditCard] || !kinds[sanitize.KindSSN] {
		t.Errorf("planted kinds not detectable: %v", kinds)
	}
	plain := TypoEmail(rng, "a@gmail.com", "b@gmial.com", nil)
	for _, f := range sanitize.Scan(plain.Body) {
		switch f.Kind {
		case sanitize.KindCreditCard, sanitize.KindSSN, sanitize.KindVIN:
			t.Errorf("unplanted %s appeared: %q", f.Kind, f.Match)
		}
	}
}

// freshCampaignMessage is CampaignMessage's construction before campaign
// templates were memoized: the campaign's content rebuilt from its own
// stream, then the recipient and Message-Id drawn from the caller's rng.
func freshCampaignMessage(rng *rand.Rand, campaignID int, evasion float64) *mailmsg.Message {
	msg := SpamMessage(par.Rand(13, campaignID), evasion)
	to := PersonAddr(rng, pick(rng, []string{"gmail.com", "hotmail.com", "outlook.com", "yahoo.com"}))
	msg.SetHeader("To", to)
	msg.SetHeader("Message-Id", fmt.Sprintf("<c%d-%d@spam.example>", campaignID, rng.Int63()))
	return msg
}

// TestCampaignMessageMatchesFreshBuild pins that memoized campaign
// templates change nothing: for every campaign the collection draws (IDs
// 0-399 at evasion 0.25) and the ones examples/collection draws (0-9 at
// 0.2), CampaignMessage serializes exactly as the per-email rebuild and
// consumes the caller's rng identically. Each returned message is then
// edited the way callers edit it (To, From, attachment bytes), and a
// second round must still match — the edits land on a copy, never on
// the shared template.
func TestCampaignMessageMatchesFreshBuild(t *testing.T) {
	type camp struct {
		id      int
		evasion float64
	}
	var camps []camp
	for id := 0; id < 400; id++ {
		camps = append(camps, camp{id, 0.25})
	}
	for id := 0; id < 10; id++ {
		camps = append(camps, camp{id, 0.2})
	}
	for round := 0; round < 2; round++ {
		got, want := rand.New(rand.NewSource(int64(round))), rand.New(rand.NewSource(int64(round)))
		for _, c := range camps {
			m := CampaignMessage(got, c.id, c.evasion)
			ref := freshCampaignMessage(want, c.id, c.evasion)
			if !bytes.Equal(m.Bytes(), ref.Bytes()) {
				t.Fatalf("round %d campaign %d evasion %v: CampaignMessage differs from the fresh build", round, c.id, c.evasion)
			}
			if got.Int63() != want.Int63() {
				t.Fatalf("round %d campaign %d: caller rng consumed differently", round, c.id)
			}
			m.SetHeader("To", "edited@typo.example")
			m.SetHeader("From", "admin@typo.example")
			for i := range m.Attachments {
				m.Attachments[i].Data[0] ^= 0xFF
			}
		}
	}
}

// TestCampaignMessageConcurrent shares campaign templates across par
// workers the way the collection run does: the workers build the
// templates (an evasion no other test uses) and edit their copies at
// once, and the output still equals the sequential run's. Run it under -race to check that the template cache and the
// copies are free of data races.
func TestCampaignMessageConcurrent(t *testing.T) {
	defer par.SetWorkers(0)
	items := make([]int, 400)
	render := func(workers int) [][]byte {
		par.SetWorkers(workers)
		return par.Map(77, items, func(i, _ int, rng *rand.Rand) []byte {
			m := CampaignMessage(rng, (i*7)%40, 0.3)
			out := m.Bytes()
			m.SetHeader("From", "admin@typo.example")
			for k := range m.Attachments {
				m.Attachments[k].Data[0] ^= 0xFF
			}
			return out
		})
	}
	got := render(8) // first: the workers also race to build the templates
	ref := render(1)
	for i := range ref {
		if !bytes.Equal(got[i], ref[i]) {
			t.Fatalf("item %d: 8-worker message differs from the sequential run", i)
		}
	}
}
