package rdf

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"unicode/utf8"
)

// The paper (§4.4) persists the triple store "through XML files". This file
// implements that serialization. The format is a flat triple list (simpler
// and more regular than full RDF/XML striping, but in its spirit): each
// <triple> element carries subject, predicate, and object children whose
// kind attribute distinguishes IRIs, blank nodes, and literals.
//
// Reading is a byte scanner for the layout docs/FORMAT.md gives, the one
// the writer emits, with the variations a hand edit makes: any attribute
// order, spaces, tabs and line feeds between elements, the predefined
// entities and character references. Each distinct term's text is copied out of the
// file once. Anything else in a well-formed file (a comment, CDATA, a
// DOCTYPE or processing instruction, a raw carriage return, an unknown
// entity, element or attribute) sends the whole document through the
// general encoding/xml decoder instead, as does any error, so every file
// reads to the graph, or the error, the general decoder gives it.

const xmlFormatVersion = "1"

// xmlStore is the document as the general decoder sees it.
type xmlStore struct {
	XMLName xml.Name    `xml:"slimstore"`
	Version string      `xml:"version,attr"`
	Triples []xmlTriple `xml:"triple"`
}

type xmlTriple struct {
	Subject   xmlTerm `xml:"subject"`
	Predicate xmlTerm `xml:"predicate"`
	Object    xmlTerm `xml:"object"`
}

type xmlTerm struct {
	Kind     string `xml:"kind,attr"`
	Datatype string `xml:"datatype,attr,omitempty"`
	Value    string `xml:",chardata"`
}

func termFromXML(x xmlTerm) (Term, error) {
	switch x.Kind {
	case "iri":
		return IRI(x.Value), nil
	case "blank":
		return Blank(x.Value), nil
	case "literal":
		if x.Datatype == "" {
			return String(x.Value), nil
		}
		return TypedLiteral(x.Value, x.Datatype), nil
	default:
		return Zero, fmt.Errorf("rdf: unknown term kind %q in XML store", x.Kind)
	}
}

// The document's fixed text.
const (
	xmlDocStart = xml.Header + `<slimstore version="1">`
	xmlDocEnd   = "</slimstore>\n"
	xmlDecl     = `<?xml version="1.0"?>` // the declaration hand-written files use
)

// xmlTermTags holds each triple position's element start, without its
// attributes, and end tag.
var xmlTermTags = [3]struct{ open, close string }{
	{"<subject", "</subject>"},
	{"<predicate", "</predicate>"},
	{"<object", "</object>"},
}

// WriteXML serializes the graph in the SLIM XML persistence format, in
// deterministic order.
func WriteXML(w io.Writer, g *Graph) error {
	all := g.All()
	_, err := w.Write(AppendXML(nil, func(yield func(Triple)) {
		for _, t := range all {
			yield(t)
		}
	}))
	return err
}

// AppendXML appends the SLIM XML persistence form of the triples each
// yields to buf and returns the extended buffer. Given in Triple.Compare
// order without repeats, as WriteXML gives a graph's, the same triples
// always make the same file. The bytes are what encoding/xml's indented
// encoder writes for the document, escapes included.
func AppendXML(buf []byte, each func(yield func(Triple))) []byte {
	buf = append(buf, xmlDocStart...)
	empty := true
	each(func(t Triple) {
		empty = false
		buf = append(buf, "\n  <triple>"...)
		for pos, term := range [3]Term{t.Subject, t.Predicate, t.Object} {
			buf = appendXMLTerm(buf, pos, term)
		}
		buf = append(buf, "\n  </triple>"...)
	})
	if !empty {
		buf = append(buf, '\n')
	}
	return append(buf, xmlDocEnd...)
}

// appendXMLTerm appends one term element: its opening tag with the kind
// attribute and, for a literal not of xsd:string, the datatype, then its
// escaped value and the closing tag.
func appendXMLTerm(buf []byte, pos int, t Term) []byte {
	buf = append(buf, "\n    "...)
	buf = append(buf, xmlTermTags[pos].open...)
	switch t.Kind() {
	case KindIRI:
		buf = append(buf, ` kind="iri">`...)
	case KindBlank:
		buf = append(buf, ` kind="blank">`...)
	case KindLiteral:
		buf = append(buf, ` kind="literal"`...)
		if dt := t.Datatype(); dt != XSDString {
			buf = append(buf, ` datatype="`...)
			buf = appendEscaped(buf, dt)
			buf = append(buf, '"')
		}
		buf = append(buf, '>')
	}
	buf = appendEscaped(buf, t.Value())
	return append(buf, xmlTermTags[pos].close...)
}

// appendEscaped appends s escaped as encoding/xml escapes text and
// attribute values: the five markup characters, tab, line feed and
// carriage return become references, and a byte that is not UTF-8 or a
// character XML cannot carry becomes U+FFFD (Validate admits neither).
func appendEscaped(buf []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		switch {
		case c >= utf8.RuneSelf:
			r, w := utf8.DecodeRuneInString(s[i:])
			if (r != utf8.RuneError || w > 1) && isXMLChar(r) {
				i += w
				continue
			}
			esc, width = "\uFFFD", w
		case c == '"':
			esc = "&#34;"
		case c == '\'':
			esc = "&#39;"
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '\t':
			esc = "&#x9;"
		case c == '\n':
			esc = "&#xA;"
		case c == '\r':
			esc = "&#xD;"
		case c < 0x20:
			esc = "\uFFFD"
		default:
			i++
			continue
		}
		buf = append(buf, s[last:i]...)
		buf = append(buf, esc...)
		i += width
		last = i
	}
	return append(buf, s[last:]...)
}

// Interned is a triple set as its distinct terms, each once, and its
// triples as indexes into Terms, in document order. A triple the document
// repeats appears again.
type Interned struct {
	Terms   []Term
	Triples [][3]int32
}

// ReadXML parses a graph from the SLIM XML persistence format.
func ReadXML(r io.Reader) (*Graph, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead) // one read, no regrowth
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("rdf: reading XML store: %w", err)
	}
	d, err := DecodeXML(buf.Bytes())
	if err != nil {
		return nil, err
	}
	g := &Graph{triples: make(map[Triple]struct{}, len(d.Triples))}
	for _, k := range d.Triples {
		// DecodeXML validated every triple.
		g.triples[T(d.Terms[k[0]], d.Terms[k[1]], d.Terms[k[2]])] = struct{}{}
	}
	return g, nil
}

// DecodeXML parses a document in the SLIM XML persistence format into its
// terms and triples. Every triple is valid. No term's text shares memory
// with data, so the caller may drop or reuse it.
func DecodeXML(data []byte) (Interned, error) {
	if d, ok := scanXML(data); ok {
		return d, nil
	}
	return decodeXMLGeneral(data)
}

// decodeXMLGeneral decodes a document through encoding/xml: the path for
// every document the scanner does not take, and the one whose errors
// DecodeXML reports.
func decodeXMLGeneral(data []byte) (Interned, error) {
	var store xmlStore
	if err := xml.NewDecoder(bytes.NewReader(data)).Decode(&store); err != nil {
		return Interned{}, fmt.Errorf("rdf: decoding XML store: %w", err)
	}
	if store.Version != xmlFormatVersion {
		return Interned{}, fmt.Errorf("rdf: unsupported XML store version %q", store.Version)
	}
	tab := newTermTable(len(store.Triples))
	triples := make([][3]int32, 0, len(store.Triples))
	for i, xt := range store.Triples {
		s, err := termFromXML(xt.Subject)
		if err != nil {
			return Interned{}, fmt.Errorf("rdf: triple %d subject: %w", i, err)
		}
		p, err := termFromXML(xt.Predicate)
		if err != nil {
			return Interned{}, fmt.Errorf("rdf: triple %d predicate: %w", i, err)
		}
		o, err := termFromXML(xt.Object)
		if err != nil {
			return Interned{}, fmt.Errorf("rdf: triple %d object: %w", i, err)
		}
		if err := T(s, p, o).Validate(); err != nil {
			return Interned{}, fmt.Errorf("rdf: triple %d: %w", i, err)
		}
		triples = append(triples, [3]int32{tab.term(s), tab.term(p), tab.term(o)})
	}
	return Interned{Terms: tab.terms, Triples: triples}, nil
}

// termTable interns terms: each distinct term gets the next index, found
// by kind and, for a literal, datatype, then by value.
type termTable struct {
	terms []Term
	iris  map[string]int32
	blank map[string]int32
	lits  map[string]*litTable // by datatype; "" and xsd:string share one
	plain *litTable            // xsd:string
}

// litTable holds the literals of one datatype.
type litTable struct {
	dtype string
	ids   map[string]int32
}

// newTermTable returns an empty table with room for n terms. Its maps
// grow as terms arrive, which is faster than Go's maps sized up front.
func newTermTable(n int) *termTable {
	plain := &litTable{dtype: XSDString, ids: make(map[string]int32)}
	return &termTable{
		terms: make([]Term, 0, n),
		iris:  make(map[string]int32),
		blank: make(map[string]int32),
		lits:  map[string]*litTable{"": plain, XSDString: plain},
		plain: plain,
	}
}

// literals returns the table of one datatype's literals.
func (tab *termTable) literals(dtype []byte) *litTable {
	if lt, ok := tab.lits[string(dtype)]; ok {
		return lt
	}
	lt := &litTable{dtype: string(dtype), ids: make(map[string]int32)}
	tab.lits[lt.dtype] = lt
	return lt
}

// ids returns the value-to-index map a term of the kind (and, for a
// literal, of lit's datatype) lives in.
func (tab *termTable) ids(kind TermKind, lit *litTable) map[string]int32 {
	switch kind {
	case KindIRI:
		return tab.iris
	case KindBlank:
		return tab.blank
	default:
		return lit.ids
	}
}

// intern returns the index of the term of the kind, datatype and value,
// copying the value into a new string the first time it is seen.
func (tab *termTable) intern(kind TermKind, lit *litTable, value []byte) int32 {
	ids := tab.ids(kind, lit)
	if id, ok := ids[string(value)]; ok {
		return id
	}
	t := Term{kind: kind, value: string(value)}
	if kind == KindLiteral {
		t.dtype = lit.dtype
	}
	return tab.add(ids, t)
}

// term returns a term's index, adding it the first time it is seen.
func (tab *termTable) term(t Term) int32 {
	var lit *litTable
	if t.kind == KindLiteral {
		lit = tab.literals([]byte(t.dtype))
	}
	ids := tab.ids(t.kind, lit)
	if id, ok := ids[t.value]; ok {
		return id
	}
	return tab.add(ids, t)
}

func (tab *termTable) add(ids map[string]int32, t Term) int32 {
	id := int32(len(tab.terms))
	tab.terms = append(tab.terms, t)
	ids[t.value] = id
	return id
}

// xmlScanner reads a document in the layout the writer emits. Every
// method reports false, and leaves the scanner unusable, at the first
// byte outside that layout.
type xmlScanner struct {
	data    []byte
	i       int
	buf     []byte // decoded text holding a reference
	tab     *termTable
	triples [][3]int32
}

// scanXML reads a document the scanner takes in full. It reports false,
// having built nothing the caller keeps, for any other document.
func scanXML(data []byte) (Interned, bool) {
	// The writer spends ~250 bytes on a pad's triple, and a pad has fewer
	// distinct terms than triples.
	n := len(data)/256 + 1
	s := &xmlScanner{data: data, tab: newTermTable(n), triples: make([][3]int32, 0, n)}
	if !s.document() {
		return Interned{}, false
	}
	return Interned{Terms: s.tab.terms, Triples: s.triples}, true
}

// document reads the optional XML declaration, the root's start tag with
// its version, the triples, and the root's end tag. Like encoding/xml's
// Decode, it reads nothing after the root.
func (s *xmlScanner) document() bool {
	if !s.lit(xml.Header) {
		s.lit(xmlDecl)
	}
	s.space()
	if !s.lit("<slimstore") {
		return false
	}
	version := false
	for {
		name, val, end, ok := s.attr()
		switch {
		case !ok:
			return false
		case end:
			if !version {
				return false
			}
			return s.triplesThenEnd()
		case string(name) != "version" || version || string(val) != xmlFormatVersion:
			return false
		}
		version = true
	}
}

// triplesThenEnd reads the root's triples up to its end tag.
func (s *xmlScanner) triplesThenEnd() bool {
	for {
		s.space()
		if s.lit("</slimstore>") {
			return true
		}
		if !s.lit("<triple>") || !s.triple() {
			return false
		}
	}
}

// triple reads one triple's three term elements, in any order, and its
// end tag, then checks the triple is valid.
func (s *xmlScanner) triple() bool {
	var k [3]int32
	seen := 0
	for {
		s.space()
		if s.lit("</triple>") {
			break
		}
		pos := s.termStart()
		if pos < 0 || seen&(1<<pos) != 0 {
			return false
		}
		id, ok := s.term(pos)
		if !ok {
			return false
		}
		k[pos] = id
		seen |= 1 << pos
	}
	if seen != 7 {
		return false
	}
	terms := s.tab.terms
	// The scanner's text holds only characters Validate admits, so the
	// shape is all that is left to check.
	if T(terms[k[0]], terms[k[1]], terms[k[2]]).validateShape() != nil {
		return false
	}
	s.triples = append(s.triples, k)
	return true
}

// termStart reads the start of a term element and returns its position,
// or -1. A longer name fails at its first attribute.
func (s *xmlScanner) termStart() int {
	for pos, tags := range xmlTermTags {
		if s.lit(tags.open) {
			return pos
		}
	}
	return -1
}

// term reads a term element's attributes, value and end tag, and returns
// the term's index.
func (s *xmlScanner) term(pos int) (int32, bool) {
	kind, lit, ok := s.termAttrs()
	if !ok {
		return 0, false
	}
	val, ok := s.text('<')
	if !ok || !s.lit(xmlTermTags[pos].close) {
		return 0, false
	}
	return s.tab.intern(kind, lit, val), true
}

// termAttrs reads a term element's attributes, in any order, and the end
// of its start tag: kind, once, and datatype, at most once.
func (s *xmlScanner) termAttrs() (TermKind, *litTable, bool) {
	kind := TermKind(-1)
	var lit *litTable
	for {
		name, val, end, ok := s.attr()
		if !ok {
			return 0, nil, false
		}
		if end {
			if lit == nil {
				lit = s.tab.plain
			}
			return kind, lit, kind >= 0
		}
		switch string(name) {
		case "kind":
			if kind >= 0 {
				return 0, nil, false
			}
			switch string(val) {
			case "iri":
				kind = KindIRI
			case "blank":
				kind = KindBlank
			case "literal":
				kind = KindLiteral
			default:
				return 0, nil, false
			}
		case "datatype":
			if lit != nil {
				return 0, nil, false
			}
			lit = s.tab.literals(val)
		default:
			return 0, nil, false
		}
	}
}

// attr reads one ` name="value"` of a start tag, or its closing '>' (end).
// Attributes are separated by whitespace and double-quoted.
func (s *xmlScanner) attr() (name, val []byte, end, ok bool) {
	from := s.i
	s.space()
	if s.i < len(s.data) && s.data[s.i] == '>' {
		s.i++
		return nil, nil, true, true
	}
	if s.i == from {
		return nil, nil, false, false
	}
	start := s.i
	for s.i < len(s.data) && 'a' <= s.data[s.i] && s.data[s.i] <= 'z' {
		s.i++
	}
	name = s.data[start:s.i]
	if len(name) == 0 || !s.lit(`="`) {
		return nil, nil, false, false
	}
	if val, ok = s.text('"'); !ok {
		return nil, nil, false, false
	}
	s.i++ // the closing quote
	return name, val, false, true
}

// text reads character data up to '<' (stop '<') or an attribute value up
// to its closing quote (stop '"'), leaving the scanner at stop. The result
// is a slice of the document, or of the scanner's buffer when a reference
// had to be decoded; either is valid until the next call. It takes only
// text encoding/xml reads unchanged: no carriage return (the decoder
// rewrites it), no "]]>" in character data, no '<' in a value, and only
// characters XML 1.0 allows, references included.
func (s *xmlScanner) text(stop byte) ([]byte, bool) {
	d := s.data
	start := s.i
	run := start // the first byte not yet copied to out, once decoding
	decoded := false
	out := s.buf[:0]
	for i := start; i < len(d); {
		c := d[i]
		if !xmlTextSpecial[c] {
			i++
			continue
		}
		switch {
		case c == stop:
			s.i = i
			if !decoded {
				return d[start:i], true
			}
			s.buf = append(out, d[run:i]...)
			return s.buf, true
		case c == '&':
			out = append(out, d[run:i]...)
			decoded = true
			r, n := reference(d[i:])
			if n == 0 {
				return nil, false
			}
			out = utf8.AppendRune(out, r)
			i += n
			run = i
		case c == '>':
			if stop == '<' && i-start >= 2 && d[i-1] == ']' && d[i-2] == ']' {
				return nil, false
			}
			i++
		case c == '"':
			i++
		case c >= utf8.RuneSelf:
			r, w := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && w == 1 || !isXMLChar(r) {
				return nil, false
			}
			i += w
		default: // '<' in a value, or a control character
			return nil, false
		}
	}
	return nil, false
}

// xmlTextSpecial marks the bytes text has to look at: the controls but
// tab and line feed, the markup characters, and every non-ASCII byte.
var xmlTextSpecial = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = c != '\t' && c != '\n'
	}
	for _, c := range `&<>"` {
		t[c] = true
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = true
	}
	return t
}()

// reference decodes the entity or character reference at the start of b
// and returns the character and the reference's length, or a length of 0
// for a reference the scanner does not take: anything but the five
// predefined entities and decimal or "x" hexadecimal references to
// characters XML allows.
func reference(b []byte) (rune, int) {
	end := bytes.IndexByte(b[:min(len(b), 12)], ';')
	if end < 2 {
		return 0, 0
	}
	name := b[1:end]
	switch string(name) {
	case "lt":
		return '<', end + 1
	case "gt":
		return '>', end + 1
	case "amp":
		return '&', end + 1
	case "apos":
		return '\'', end + 1
	case "quot":
		return '"', end + 1
	}
	if name[0] != '#' {
		return 0, 0
	}
	digits, base := name[1:], rune(10)
	if len(digits) > 0 && digits[0] == 'x' {
		digits, base = digits[1:], 16
	}
	if len(digits) == 0 {
		return 0, 0
	}
	var r rune
	for _, c := range digits {
		var v rune
		switch {
		case '0' <= c && c <= '9':
			v = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			v = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			v = rune(c-'A') + 10
		default:
			return 0, 0
		}
		if r = r*base + v; r > utf8.MaxRune {
			return 0, 0
		}
	}
	if !isXMLChar(r) {
		return 0, 0
	}
	return r, end + 1
}

// lit consumes p if the document continues with it.
func (s *xmlScanner) lit(p string) bool {
	if len(s.data)-s.i >= len(p) && string(s.data[s.i:s.i+len(p)]) == p {
		s.i += len(p)
		return true
	}
	return false
}

// space skips spaces, tabs and line feeds.
func (s *xmlScanner) space() {
	for s.i < len(s.data) && isSpace(s.data[s.i]) {
		s.i++
	}
}

// isSpace reports whether c is whitespace the scanner takes between
// elements and attributes; a carriage return is left to encoding/xml.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' }
