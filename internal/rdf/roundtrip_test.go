package rdf_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"repro/internal/rdf"
	"repro/internal/trim"
)

// FuzzTermLiteralRoundTrip: any literal value the graph accepts survives
// both serializations, N-Triples and XML, and TRIM's XML save and load,
// whose file is WriteXML's; any value it refuses is text XML cannot carry.
// It lives in the external test package so it can reach TRIM.
func FuzzTermLiteralRoundTrip(f *testing.F) {
	f.Add("plain")
	f.Add("with \"quotes\" and \\slashes\\")
	f.Add("tabs\tand\nnewlines\r")
	f.Add("unicode: café ☃")
	f.Add("control \x01, form feed \x0c, NUL \x00, noncharacter \uFFFE")
	f.Add("markup <a href=\"x\">&amp;</a> ]]> \uFFFD")
	f.Fuzz(func(t *testing.T, v string) {
		x := rdf.T(rdf.IRI("http://f/s"), rdf.IRI("http://f/p"), rdf.String(v))
		g := rdf.NewGraph()
		if _, err := g.Add(x); err != nil {
			if (errors.Is(err, rdf.ErrInvalidUTF8) || errors.Is(err, rdf.ErrInvalidChar)) && !xmlText(v) {
				return // correctly rejected
			}
			t.Fatal(err)
		}
		if !xmlText(v) {
			t.Fatalf("graph accepted %q, which XML cannot carry", v)
		}

		var nt bytes.Buffer
		if err := rdf.WriteNTriples(&nt, g); err != nil {
			t.Fatal(err)
		}
		back, err := rdf.ReadNTriples(&nt)
		if err != nil || !g.Equal(back) {
			t.Fatalf("n-triples round trip failed for %q: %v", v, err)
		}

		var doc bytes.Buffer
		if err := rdf.WriteXML(&doc, g); err != nil {
			t.Fatal(err)
		}
		back, err = rdf.ReadXML(bytes.NewReader(doc.Bytes()))
		if err != nil || !g.Equal(back) {
			t.Fatalf("xml round trip failed for %q: %v", v, err)
		}

		path := filepath.Join(t.TempDir(), "store.xml")
		m := trim.NewManager()
		if _, err := m.Create(x); err != nil {
			t.Fatal(err)
		}
		if err := m.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(file, doc.Bytes()) {
			t.Fatalf("TRIM saved\n%q\nWriteXML writes\n%q", file, doc.Bytes())
		}
		loaded := trim.NewManager()
		if err := loaded.LoadFile(path); err != nil || !loaded.Snapshot().Equal(g) {
			t.Fatalf("trim save and load failed for %q: %v", v, err)
		}
	})
}

// xmlText reports whether v is valid UTF-8 holding only characters of
// XML 1.0's Char production.
func xmlText(v string) bool {
	if !utf8.ValidString(v) {
		return false
	}
	for _, r := range v {
		if !(r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000) {
			return false
		}
	}
	return true
}
