package rdf

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// The encoding/xml writer and reader the format was defined by, kept as
// oracles: WriteXML must produce their bytes, and ReadXML their graph or
// their refusal, on every input.

func termToXML(t Term) xmlTerm {
	x := xmlTerm{Value: t.Value()}
	switch t.Kind() {
	case KindIRI:
		x.Kind = "iri"
	case KindBlank:
		x.Kind = "blank"
	case KindLiteral:
		x.Kind = "literal"
		if dt := t.Datatype(); dt != XSDString {
			x.Datatype = dt
		}
	}
	return x
}

// writeXMLOracle is the reflective writer WriteXML replaced.
func writeXMLOracle(w io.Writer, g *Graph) error {
	store := xmlStore{Version: xmlFormatVersion}
	for _, t := range g.All() {
		store.Triples = append(store.Triples, xmlTriple{
			Subject:   termToXML(t.Subject),
			Predicate: termToXML(t.Predicate),
			Object:    termToXML(t.Object),
		})
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(store); err != nil {
		return fmt.Errorf("rdf: encoding XML store: %w", err)
	}
	if err := enc.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// readXMLOracle is the reflective reader ReadXML replaced.
func readXMLOracle(r io.Reader) (*Graph, error) {
	var store xmlStore
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&store); err != nil {
		return nil, fmt.Errorf("rdf: decoding XML store: %w", err)
	}
	if store.Version != xmlFormatVersion {
		return nil, fmt.Errorf("rdf: unsupported XML store version %q", store.Version)
	}
	g := NewGraph()
	for i, xt := range store.Triples {
		s, err := termFromXML(xt.Subject)
		if err != nil {
			return nil, fmt.Errorf("rdf: triple %d subject: %w", i, err)
		}
		p, err := termFromXML(xt.Predicate)
		if err != nil {
			return nil, fmt.Errorf("rdf: triple %d predicate: %w", i, err)
		}
		o, err := termFromXML(xt.Object)
		if err != nil {
			return nil, fmt.Errorf("rdf: triple %d object: %w", i, err)
		}
		if _, err := g.Add(T(s, p, o)); err != nil {
			return nil, fmt.Errorf("rdf: triple %d: %w", i, err)
		}
	}
	return g, nil
}

func sampleGraph() *Graph {
	g := NewGraph()
	g.Add(T(IRI("http://x/s"), IRI("http://x/p"), String("plain")))
	g.Add(T(Blank("b1"), IRI("http://x/p"), Integer(-7)))
	g.Add(T(IRI("http://x/s"), IRI("http://x/q"), IRI("http://x/o")))
	g.Add(T(IRI("http://x/s"), IRI("http://x/r"), Blank("b2")))
	g.Add(T(IRI("http://x/s"), IRI("http://x/t"), String("<angle> & amp \" quote")))
	g.Add(T(IRI("http://x/s"), IRI("http://x/u"), Float(2.5)))
	return g
}

func TestXMLRoundTrip(t *testing.T) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := WriteXML(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatalf("round trip lost data:\noriginal:\n%v\nback:\n%v", g.All(), back.All())
	}
}

func TestXMLHasHeaderAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteXML(&buf, sampleGraph()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<?xml") {
		t.Error("missing XML declaration")
	}
	if !strings.Contains(out, `<slimstore version="1">`) {
		t.Error("missing versioned root element")
	}
}

func TestXMLBadVersion(t *testing.T) {
	src := `<?xml version="1.0"?><slimstore version="99"></slimstore>`
	if _, err := ReadXML(strings.NewReader(src)); err == nil {
		t.Fatal("expected version error")
	}
}

func TestXMLBadKind(t *testing.T) {
	src := `<?xml version="1.0"?>
<slimstore version="1">
  <triple>
    <subject kind="bogus">x</subject>
    <predicate kind="iri">p</predicate>
    <object kind="literal">v</object>
  </triple>
</slimstore>`
	if _, err := ReadXML(strings.NewReader(src)); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestXMLInvalidTripleRejected(t *testing.T) {
	// A literal subject must be rejected at load, not silently stored.
	src := `<?xml version="1.0"?>
<slimstore version="1">
  <triple>
    <subject kind="literal">x</subject>
    <predicate kind="iri">p</predicate>
    <object kind="literal">v</object>
  </triple>
</slimstore>`
	if _, err := ReadXML(strings.NewReader(src)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestXMLNotXML(t *testing.T) {
	if _, err := ReadXML(strings.NewReader("this is not xml")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestXMLEmptyGraph(t *testing.T) {
	g := NewGraph()
	var buf bytes.Buffer
	if err := WriteXML(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Fatalf("empty graph round-tripped to %d triples", back.Len())
	}
}

// Property: every literal the graph accepts survives XML persistence (the
// paper's persistence path for all superimposed data).
func TestXMLLiteralRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		g := NewGraph()
		if _, err := g.Add(T(IRI("http://x/s"), IRI("http://x/p"), String(s))); err != nil {
			return true // a value no serialization carries is refused up front
		}
		var buf bytes.Buffer
		if err := WriteXML(&buf, g); err != nil {
			return false
		}
		back, err := ReadXML(&buf)
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestWriteXMLMatchesOracle: the writer's bytes are the reflective
// encoder's, for the sample graph, the empty graph, and graphs of
// generated terms of every kind, characters XML cannot carry included.
func TestWriteXMLMatchesOracle(t *testing.T) {
	same := func(g *Graph) bool {
		var got, want bytes.Buffer
		if err := WriteXML(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeXMLOracle(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("WriteXML:\n%q\noracle:\n%q", got.Bytes(), want.Bytes())
			return false
		}
		return true
	}
	same(NewGraph())
	same(sampleGraph())
	f := func(iri, label, value, dtype string) bool {
		g := NewGraph()
		// Graph.Add refuses what Validate refuses, so the terms go into
		// the graph's set directly: the writer must match the oracle
		// byte for byte even on text the store never holds.
		for _, x := range []Triple{
			T(IRI("s"+iri), IRI("p"+iri), String(value)),
			T(Blank("b"+label), IRI("p"), TypedLiteral(value, "d"+dtype)),
			T(IRI("s"), IRI("p"), Blank("o"+label)),
			T(IRI("s"), IRI("q"), TypedLiteral(value, XSDString)),
		} {
			g.triples[x] = struct{}{}
		}
		return same(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	special := "\x00\x01\t\n\r\x1f \"'&<>]]> \xff\xc3 \uFFFD\uFFFE\uFFFF\U0001F600"
	if !same(func() *Graph {
		g := NewGraph()
		g.triples[T(IRI(special), IRI("p"), TypedLiteral(special, special))] = struct{}{}
		return g
	}()) {
		t.Error("escapes differ")
	}
}

// TestReadXMLVariants: the layouts the scanner takes beyond the writer's
// own, and the documents it leaves to encoding/xml, read to the oracle's
// graph or error.
func TestReadXMLVariants(t *testing.T) {
	const s = `<subject kind="iri">http://x/s</subject>`
	const p = `<predicate kind="iri">http://x/p</predicate>`
	doc := func(body string) string {
		return `<?xml version="1.0"?>` + "\n" + `<slimstore version="1">` + body + `</slimstore>`
	}
	cases := map[string]struct {
		src     string
		scanned bool // the scanner takes it without encoding/xml
	}{
		"swapped attributes": {doc(`<triple>` + s + p +
			`<object datatype="http://www.w3.org/2001/XMLSchema#integer" kind="literal">7</object></triple>`), true},
		"no whitespace, children reordered": {doc(`<triple><object kind="literal">v</object>` + p + s + `</triple>`), true},
		"tabs and newlines": {doc("\n\t<triple>\n\t\t" + s + "\n\t\t" + p +
			"\n\t\t<object\tkind=\"literal\"\n>v</object>\n\t</triple>\n"), true},
		"entities and references": {doc(`<triple>` + s + p +
			`<object kind="literal">&lt;&gt;&amp;&apos;&quot; &#65;&#x42;&#x1F600; ]]&gt;</object></triple>`), true},
		"escaped datatype": {doc(`<triple>` + s + p + `<object kind="literal" datatype="http://x?a=1&amp;b=2">v</object></triple>`), true},
		"empty literal":    {doc(`<triple>` + s + p + `<object kind="literal"></object></triple>`), true},
		"no declaration":   {`<slimstore version="1"><triple>` + s + p + `<object kind="blank">b</object></triple></slimstore>`, true},
		"text after root":  {doc(``) + "<<<not xml", true},
		"repeated triple":  {doc(`<triple>` + s + p + `<object kind="literal">v</object></triple><triple>` + s + p + `<object kind="literal">v</object></triple>`), true},

		"comment":            {doc(`<!-- c --><triple>` + s + p + `<object kind="literal">v</object></triple>`), false},
		"CDATA":              {doc(`<triple>` + s + p + `<object kind="literal"><![CDATA[<v>]]></object></triple>`), false},
		"CRLF":               {doc("\r\n<triple>" + s + p + "<object kind=\"literal\">a\r\nb</object></triple>"), false},
		"single quotes":      {doc(`<triple>` + s + p + `<object kind='literal'>v</object></triple>`), false},
		"unknown attribute":  {doc(`<triple>` + s + p + `<object kind="literal" lang="en">v</object></triple>`), false},
		"unknown element":    {doc(`<note/><triple>` + s + p + `<object kind="literal">v</object></triple>`), false},
		"duplicate child":    {doc(`<triple>` + s + s + p + `<object kind="literal">v</object></triple>`), false},
		"duplicate kind":     {doc(`<triple>` + s + p + `<object kind="iri" kind="literal">v</object></triple>`), false},
		"self-closing":       {doc(`<triple>` + s + p + `<object kind="literal"/></triple>`), false},
		"surrogate ref":      {doc(`<triple>` + s + p + `<object kind="literal">&#xD800;</object></triple>`), false},
		"control ref":        {doc(`<triple>` + s + p + `<object kind="literal">&#1;</object></triple>`), false},
		"unknown entity":     {doc(`<triple>` + s + p + `<object kind="literal">&nbsp;</object></triple>`), false},
		"bare ]]>":           {doc(`<triple>` + s + p + `<object kind="literal">]]></object></triple>`), false},
		"missing child":      {doc(`<triple>` + s + p + `</triple>`), false},
		"bad kind":           {doc(`<triple>` + s + p + `<object kind="bogus">v</object></triple>`), false},
		"literal subject":    {doc(`<triple><subject kind="literal">x</subject>` + p + `<object kind="literal">v</object></triple>`), false},
		"bad version":        {`<slimstore version="2"></slimstore>`, false},
		"truncated":          {doc(`<triple>` + s + p + `<object kind="literal">v</obj`)[:120], false},
		"other encoding":     {`<?xml version="1.0" encoding="ISO-8859-1"?><slimstore version="1"></slimstore>`, false},
		"triple attribute":   {doc(`<triple id="1">` + s + p + `<object kind="literal">v</object></triple>`), false},
		"text between kids":  {doc(`<triple>x` + s + p + `<object kind="literal">v</object></triple>`), false},
		"space in end tag":   {doc(`<triple>` + s + p + `<object kind="literal">v</object ></triple>`), false},
		"longer name":        {doc(`<triple>` + s + p + `<objects kind="literal">v</objects></triple>`), false},
		"longer root name":   {`<slimstores version="1"></slimstores>`, false},
		"raw control":        {doc(`<triple>` + s + p + "<object kind=\"literal\">a\x01b</object></triple>"), false},
		"invalid UTF-8":      {doc(`<triple>` + s + p + "<object kind=\"literal\">a\xffb</object></triple>"), false},
		"empty IRI":          {doc(`<triple><subject kind="iri"></subject>` + p + `<object kind="literal">v</object></triple>`), false},
		"datatype on an IRI": {doc(`<triple>` + s + p + `<object kind="iri" datatype="d">http://x/o</object></triple>`), true},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			_, scanned := scanXML([]byte(c.src))
			if scanned != c.scanned {
				t.Errorf("scanner took it: %v, want %v", scanned, c.scanned)
			}
			requireSameAsOracle(t, []byte(c.src))
		})
	}
}

// requireSameAsOracle checks that ReadXML and the reflective reader give
// one document the same graph, or the same error.
func requireSameAsOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadXML(bytes.NewReader(data))
	want, werr := readXMLOracle(bytes.NewReader(data))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("ReadXML error %v, oracle %v", err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("ReadXML error %q, oracle %q", err, werr)
		}
	case !got.Equal(want):
		t.Fatalf("ReadXML read %v, oracle %v", got.All(), want.All())
	}
	if err != nil {
		return
	}
	d, err := DecodeXML(data)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Term]bool, len(d.Terms))
	for _, term := range d.Terms {
		if seen[term] {
			t.Fatalf("term %v interned twice", term)
		}
		seen[term] = true
	}
}

// FuzzReadXML: on every input the reader and the reflective oracle return
// the same graph, or the same error. The committed corpus under
// testdata/fuzz/FuzzReadXML holds the layouts the scanner takes and the
// ones it leaves to encoding/xml.
func FuzzReadXML(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteXML(&buf, sampleGraph()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameAsOracle(t, data)
	})
}
