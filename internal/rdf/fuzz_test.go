package rdf

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadNTriples: the parser must never panic; any graph it accepts must
// re-serialize and re-parse to an equal graph.
func FuzzReadNTriples(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		`<http://x/s> <http://x/p> "v" .`,
		`_:b <http://x/p> <http://x/o> .`,
		`<http://x/s> <http://x/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<http://x/s> <http://x/p> "esc\n\"\\" .`,
		`<http://x/s> <http://x/p> "café" .`,
		`malformed line`,
		`<s> <p> "unterminated`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadNTriples(strings.NewReader(src))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatalf("serialize accepted graph: %v", err)
		}
		back, err := ReadNTriples(&buf)
		if err != nil {
			t.Fatalf("reparse own output: %v\noutput:\n%s", err, buf.String())
		}
		if !g.Equal(back) {
			t.Fatal("round trip changed the graph")
		}
	})
}
