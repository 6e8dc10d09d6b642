package extract

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPlainPassThrough(t *testing.T) {
	for _, name := range []string{"notes.txt", "data.csv", "cal.ics", "feed.xml", "noext"} {
		got, err := Text(name, []byte("hello world"))
		if err != nil || got != "hello world" {
			t.Errorf("Text(%q) = %q, %v", name, got, err)
		}
	}
}

func TestSDOCRoundTrip(t *testing.T) {
	text := "Visa application for John Lavorato\nAmex 371385129301004 Exp 06/03\n"
	doc := BuildSDOC(text)
	got, err := Text("visa.docx", doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Errorf("SDOC round trip = %q", got)
	}
}

// freshSDOC is BuildSDOC with a new flate writer per document: the
// reference the pooled writers must reproduce byte for byte.
func freshSDOC(text string) []byte {
	var body bytes.Buffer
	w, _ := flate.NewWriter(&body, flate.BestSpeed)
	w.Write([]byte(text))
	w.Close()
	out := append([]byte{}, magicSDOC...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(text)))
	return append(out, body.Bytes()...)
}

// sdocTexts are the pool test's documents: empty, short, and one 64 KiB
// text that fills a whole flate block, so a recycled writer has real
// window and match state to carry over if Reset failed to clear it.
func sdocTexts() []string {
	var big strings.Builder
	for i := 0; big.Len() < 64<<10; i++ {
		fmt.Fprintf(&big, "line %d: account %08x, amount %d.%02d\n", i, i*2654435761, i%977, i%100)
	}
	return []string{"", "Amex 371385129301004 Exp 06/03\n", big.String()[:64<<10], "x"}
}

// TestSDOCPooledWriterMatchesFresh pins that recycling flate writers
// does not change a single output byte, whatever document the pooled
// writer packed before, including from concurrent goroutines.
func TestSDOCPooledWriterMatchesFresh(t *testing.T) {
	texts := sdocTexts()
	want := make([][]byte, len(texts))
	for i, text := range texts {
		want[i] = freshSDOC(text)
	}
	check := func(round, i int) error {
		if got := BuildSDOC(texts[i]); !bytes.Equal(got, want[i]) {
			return fmt.Errorf("round %d text %d (%d bytes): pooled SDOC differs from a fresh writer's", round, i, len(texts[i]))
		}
		return nil
	}
	for round := 0; round < 3; round++ {
		for i := range texts {
			if err := check(round, i); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				// Each goroutine visits the texts in its own order, so
				// writers change hands between different documents.
				if err := check(round, (round+g)%len(texts)); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

func TestSDOCCorruption(t *testing.T) {
	doc := BuildSDOC("some text")
	tests := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated header", func(d []byte) []byte { return d[:len(magicSDOC)+3] }},
		{"truncated body", func(d []byte) []byte { return d[:len(d)-3] }},
		{"length mismatch", func(d []byte) []byte {
			c := append([]byte(nil), d...)
			c[len(magicSDOC)+7] += 5
			return c
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Text("x.docx", tc.mut(doc)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDocxWithoutContainerRejected(t *testing.T) {
	if _, err := Text("report.docx", []byte("raw bytes")); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("err = %v, want ErrUnknownFormat", err)
	}
}

func TestSPDFRoundTrip(t *testing.T) {
	pdf := BuildSPDF("Page one text.", "Page two: SSN 078-05-1120.")
	got, err := Text("doc.pdf", pdf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "Page one text.") || !strings.Contains(got, "078-05-1120") {
		t.Errorf("SPDF text = %q", got)
	}
}

func TestSPDFEmpty(t *testing.T) {
	got, err := Text("empty.pdf", BuildSPDF())
	if err != nil || got != "" {
		t.Errorf("empty SPDF = %q, %v", got, err)
	}
}

func TestSPDFCorrupt(t *testing.T) {
	pdf := BuildSPDF("content")
	if _, err := Text("x.pdf", pdf[:len(pdf)-8]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated SPDF err = %v", err)
	}
	bad := append([]byte{}, magicSPDF...)
	bad = append(bad, []byte("obj 99999\nshort\nendobj\n%%EOF\n")...)
	if _, err := Text("x.pdf", bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overrun SPDF err = %v", err)
	}
}

func TestSIMGOCRRoundTrip(t *testing.T) {
	text := "password: hunter2 card 4111"
	img := BuildSIMG(text)
	got, err := Text("scan.png", img)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Errorf("OCR = %q, want %q", got, text)
	}
}

func TestSIMGOCRWithNoise(t *testing.T) {
	// One flipped bit per glyph must still decode: nearest-glyph matching
	// is the point of the OCR stand-in.
	text := "account 12345 at chase"
	img := FlipBits(BuildSIMG(text), len(text))
	got, err := Text("scan.png", img)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Errorf("noisy OCR = %q, want %q", got, text)
	}
}

func TestSIMGTruncated(t *testing.T) {
	img := BuildSIMG("hello")
	if _, err := Text("x.png", img[:len(img)-2]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated SIMG err = %v", err)
	}
	if _, err := Text("x.png", img[:len(magicSIMG)+1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("headerless SIMG err = %v", err)
	}
}

func TestUnknownBinaryRejected(t *testing.T) {
	if _, err := Text("virus.exe", []byte{0x4D, 0x5A, 0x90}); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("err = %v, want ErrUnknownFormat", err)
	}
}

func TestHTMLText(t *testing.T) {
	html := `<html><head><style>.x{color:red}</style>
<script>alert("evil")</script></head>
<body><p>Dear customer,</p><div>Your order <b>#123</b> shipped.</div>
Use code &quot;SAVE&amp;WIN&quot; &lt;today&gt;</body></html>`
	got := HTMLText(html)
	for _, want := range []string{"Dear customer,", "Your order #123 shipped.", `"SAVE&WIN" <today>`} {
		if !strings.Contains(got, want) {
			t.Errorf("HTMLText missing %q in %q", want, got)
		}
	}
	for _, evil := range []string{"alert", "color:red", "<p>", "<b>"} {
		if strings.Contains(got, evil) {
			t.Errorf("HTMLText leaked %q", evil)
		}
	}
}

func TestHTMLViaText(t *testing.T) {
	got, err := Text("newsletter.html", []byte("<p>unsubscribe here</p>"))
	if err != nil || !strings.Contains(got, "unsubscribe here") {
		t.Errorf("Text html = %q, %v", got, err)
	}
}

func TestHTMLUnterminatedTag(t *testing.T) {
	if got := HTMLText("text before <a href="); got != "text before " {
		t.Errorf("unterminated tag = %q", got)
	}
}

func TestHTMLLineBreaks(t *testing.T) {
	got := HTMLText("a<br>b<p>c</p>d")
	if !strings.Contains(got, "a\nb") {
		t.Errorf("br not translated: %q", got)
	}
}

// Property: SDOC and SIMG round-trip arbitrary inputs (SIMG over its
// charset).
func TestSDOCRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := sdocText(BuildSDOC(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSIMGRoundTripProperty(t *testing.T) {
	const charset = "abcdefghijklmnopqrstuvwxyz0123456789 .,@-:/$#"
	f := func(raw []byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		var sb strings.Builder
		for _, b := range raw {
			sb.WriteByte(charset[int(b)%len(charset)])
		}
		s := sb.String()
		got, err := simgText(BuildSIMG(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
