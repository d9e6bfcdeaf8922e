package trim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rdf"
)

// varietyStore fills a manager with every kind of term in every position
// it admits, text that needs escaping, literals told apart only by their
// datatype, and a subject list that is not in id order, then removes and
// re-adds triples so freed ids are reused and id order is not term order.
func varietyStore(n int) *Manager {
	m := NewManager()
	xsd := "http://www.w3.org/2001/XMLSchema#"
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://t/s%d", (n-i)%37))
		if i%5 == 0 {
			s = rdf.Blank(fmt.Sprintf("b%d", i%7))
		}
		p := rdf.IRI(fmt.Sprintf("http://t/p%d", (i*7)%11))
		var o rdf.Term
		switch i % 6 {
		case 0:
			o = rdf.String(fmt.Sprintf("v%d <&> \"'\t\n\r ]]> café", i%50))
		case 1:
			o = rdf.TypedLiteral(fmt.Sprint(i%9), xsd+"integer")
		case 2:
			o = rdf.TypedLiteral(fmt.Sprint(i%9), "http://t/dt?a=1&b=\"2\"")
		case 3:
			o = rdf.IRI(fmt.Sprintf("http://t/s%d", i%37))
		case 4:
			o = rdf.Blank(fmt.Sprintf("b%d", i%3))
		default:
			o = rdf.String("")
		}
		m.Create(rdf.T(s, p, o))
	}
	for i, x := range m.Select(rdf.Pattern{}) {
		if i%3 == 0 {
			m.Remove(x)
		}
	}
	for i := 0; i < n/4; i++ {
		m.Create(rdf.T(rdf.IRI("http://t/a-late-subject"), rdf.IRI(fmt.Sprintf("http://t/p%d", i%13)), rdf.Integer(int64(n-i))))
	}
	return m
}

// TestSaveFileMatchesWriteXML: a save writes the store in store order, and
// its bytes are WriteXML's for the same triples, under the same trailer.
func TestSaveFileMatchesWriteXML(t *testing.T) {
	for _, m := range []*Manager{NewManager(), varietyStore(600)} {
		path := filepath.Join(t.TempDir(), "store.xml")
		if err := m.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := rdf.WriteXML(&want, m.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, appendTrailer(want.Bytes())) {
			t.Fatalf("%d triples: SaveFile wrote %d bytes, WriteXML and its trailer %d", m.Len(), len(got), want.Len()+len(got)-len(want.Bytes()))
		}
	}
}

// TestLoadFileBuildsLayout: a load builds the layout Create keeps, from a
// saved store and from a hand-written file whose triples come out of
// order, one repeated and one spelt in a layout the scanner leaves to
// encoding/xml.
func TestLoadFileBuildsLayout(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "saved.xml")
	m := varietyStore(600)
	if err := m.SaveFile(saved); err != nil {
		t.Fatal(err)
	}
	loaded := NewManager()
	if err := loaded.LoadFile(saved); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, loaded)
	if !loaded.Snapshot().Equal(m.Snapshot()) {
		t.Fatal("loaded store differs from saved store")
	}

	var body strings.Builder
	body.WriteString(`<slimstore version="1">`)
	for i := 9; i >= 0; i-- {
		fmt.Fprintf(&body, `<triple><subject kind="iri">http://t/hub</subject><predicate kind="iri">http://t/p%d</predicate><object kind="literal">v%d</object></triple>`, i%3, i)
	}
	body.WriteString(`<triple><subject kind="iri">http://t/hub</subject><predicate kind="iri">http://t/p0</predicate><object kind="literal">v0</object></triple>`)
	body.WriteString(`<!-- general decoder --></slimstore>`)
	hand := filepath.Join(dir, "hand.xml")
	if err := os.WriteFile(hand, []byte(body.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadFile(hand); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, loaded)
	if n := loaded.Len(); n != 10 {
		t.Fatalf("Len = %d, want 10", n)
	}
}

// TestLoadPinsNoFileBytes: the terms of a store loaded from a file, and of
// a WAL's snapshot, are copies: none lies in the buffer the file was read
// into, so the store keeps no file alive. The store holds one term map,
// its dictionary's; the decoder's interning table goes with the load.
func TestLoadPinsNoFileBytes(t *testing.T) {
	var bufs [][]byte
	prev := readStoreFile
	readStoreFile = func(path string) ([]byte, error) {
		data, err := prev(path)
		bufs = append(bufs, data)
		return data, err
	}
	defer func() { readStoreFile = prev }()
	requireCopied := func(label string, m *Manager) {
		t.Helper()
		if len(bufs) == 0 {
			t.Fatalf("%s: no store file read", label)
		}
		m.mu.RLock()
		defer m.mu.RUnlock()
		for _, buf := range bufs {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
			hi := lo + uintptr(len(buf))
			for _, e := range m.st.dict {
				for _, s := range []string{e.term.Value(), e.term.Datatype()} {
					if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && lo <= p && p < hi {
						t.Fatalf("%s: term %v lies in the file's buffer", label, e.term)
					}
				}
			}
		}
		bufs = nil
	}

	dir := t.TempDir()
	src := varietyStore(600)
	path := filepath.Join(dir, "store.xml")
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if err := m.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	requireCopied("LoadFile", m)

	walPath := filepath.Join(dir, "store.wal")
	ws, err := OpenWAL(src, walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	bufs = nil
	_, ws2 := openWALT(t, walPath, WALOptions{})
	requireCopied("OpenWAL", ws2.Manager())

	termMaps := 0
	st := reflect.TypeOf(store{})
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i).Type; f.Kind() == reflect.Map && (f.Key() == reflect.TypeOf(rdf.Term{}) || f.Key().Kind() == reflect.String) {
			termMaps++
		}
	}
	if termMaps != 1 {
		t.Fatalf("the store holds %d term maps, want 1", termMaps)
	}
}

// TestTextXMLCannotCarryIsRefused: a term holding NUL, a C0 control other
// than tab, line feed and carriage return, U+FFFE or U+FFFF is refused
// when it is created, staged, or read from an N-Triples file, so no save
// can turn it into U+FFFD. Every other character round-trips through a
// save and a load.
func TestTextXMLCannotCarryIsRefused(t *testing.T) {
	dir := t.TempDir()
	s, p := rdf.IRI("http://t/s"), rdf.IRI("http://t/p")
	for _, v := range []string{"a\x00b", "a\x01b", "a\x0cb", "a\x1fb", "a\uFFFEb", "a\uFFFFb"} {
		m := NewManager()
		for _, x := range []rdf.Triple{rdf.T(s, p, rdf.String(v)), rdf.T(rdf.IRI(v), p, rdf.String("o")), rdf.T(s, p, rdf.TypedLiteral("1", v))} {
			if added, err := m.Create(x); added || !errors.Is(err, rdf.ErrInvalidChar) {
				t.Fatalf("Create(%v) = %v, %v; want %v", x, added, err, rdf.ErrInvalidChar)
			}
			if err := m.NewBatch().Create(x); !errors.Is(err, rdf.ErrInvalidChar) {
				t.Fatalf("batch Create(%v) = %v", x, err)
			}
		}
		nt := filepath.Join(dir, "store.nt")
		line := fmt.Sprintf("<http://t/s> <http://t/p> \"a\\u%04Xb\" .\n", []rune(v)[1])
		if err := os.WriteFile(nt, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := m.LoadNTriples(nt); !errors.Is(err, rdf.ErrInvalidChar) {
			t.Fatalf("LoadNTriples(%q) = %v", line, err)
		}
	}

	m := NewManager()
	kept := "tab\t lf\n cr\r del\x7f c1\u0085 \uFFFD \U0010FFFF <&>\"'"
	if _, err := m.Create(rdf.T(s, p, rdf.String(kept))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "store.xml")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewManager()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got := loaded.Objects(s, p); len(got) != 1 || got[0].Value() != kept {
		t.Fatalf("save and load gave %q, want %q", got, kept)
	}
}
