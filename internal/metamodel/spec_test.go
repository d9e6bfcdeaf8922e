package metamodel

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const tinySpec = `
# A small superimposed model in SLIM-ML.
model http://x/model "Tiny"
namespace http://x/

construct Doc "Document"
construct Note
literal   Title string "Title"
literal   Score integer
literal   Free any
mark      Ref

connector title  Doc -> Title [1..1]
connector score  Doc -> Score [0..1] "relevance score"
connector notes  Doc -> Note  [0..*]
connector anchor Note -> Ref  [1..1]
conformance noteOf Note -> Doc
generalization noteIsDoc Note -> Doc
`

func TestParseModelSpec(t *testing.T) {
	m, err := ParseModelSpec(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "http://x/model" || m.Label != "Tiny" {
		t.Fatalf("identity = %q %q", m.ID, m.Label)
	}
	if len(m.Constructs()) != 6 {
		t.Fatalf("constructs = %d", len(m.Constructs()))
	}
	if len(m.Connectors()) != 6 {
		t.Fatalf("connectors = %d", len(m.Connectors()))
	}
	doc, ok := m.Construct("http://x/Doc")
	if !ok || doc.Label != "Document" {
		t.Fatalf("Doc = %+v, %v", doc, ok)
	}
	title, _ := m.Construct("http://x/Title")
	if title.Kind != KindLiteralConstruct || !strings.HasSuffix(title.Datatype, "#string") {
		t.Fatalf("Title = %+v", title)
	}
	free, _ := m.Construct("http://x/Free")
	if free.Datatype != "" {
		t.Fatalf("Free datatype = %q", free.Datatype)
	}
	ref, _ := m.Construct("http://x/Ref")
	if ref.Kind != KindMarkConstruct {
		t.Fatalf("Ref = %+v", ref)
	}
	score, _ := m.Connector("http://x/score")
	if score.Label != "relevance score" || score.MinCard != 0 || score.MaxCard != 1 {
		t.Fatalf("score = %+v", score)
	}
	notes, _ := m.Connector("http://x/notes")
	if notes.MaxCard != Unbounded {
		t.Fatalf("notes = %+v", notes)
	}
	conf, _ := m.Connector("http://x/noteOf")
	if conf.Kind != KindConformance {
		t.Fatalf("noteOf = %+v", conf)
	}
	gen, _ := m.Connector("http://x/noteIsDoc")
	if gen.Kind != KindGeneralization {
		t.Fatalf("noteIsDoc = %+v", gen)
	}
}

func TestParseModelSpecErrors(t *testing.T) {
	bad := []string{
		"",                               // empty
		"construct X",                    // no model first
		"model",                          // missing IRI
		"model http://m\nmodel http://n", // duplicate model
		"model http://m\nbogus X",
		"model http://m\nnamespace",
		"model http://m\nliteral T nosuchtype",
		"model http://m\nconstruct A\nconnector c A - A",  // bad arrow
		"model http://m\nconstruct A\nconnector c A -> B", // unknown endpoint
		"model http://m\nconstruct A\nconnector c A -> A [x..y]",
		"model http://m\nconstruct A\nconnector c A -> A [2..1]",
		"model http://m\nconstruct A\nconformance c A -> A [1..1]", // card on conformance
		`model http://m "unterminated`,
		`model http://m "label" extra`,
		`"just a label"`,
	}
	for _, src := range bad {
		if _, err := ParseModelSpec(src); err == nil {
			t.Errorf("ParseModelSpec(%q) succeeded", src)
		}
	}
}

// TestParseModelSpecWrapsCause pins that a spec error keeps the model
// error it reports as its cause, so callers can classify it with
// errors.Is instead of matching the message.
func TestParseModelSpecWrapsCause(t *testing.T) {
	cases := []struct {
		src  string
		want error
	}{
		{"model http://m\nconstruct A\nconstruct A", ErrDuplicateConstruct},
		{"model http://m\nconstruct A\nconnector c A -> B", ErrUnknownConstruct},
	}
	for _, c := range cases {
		_, err := ParseModelSpec(c.src)
		if !errors.Is(err, c.want) {
			t.Errorf("ParseModelSpec(%q) = %v, want an error wrapping %v", c.src, err, c.want)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	for _, m := range []*Model{
		BundleScrapModel(),
		ExtendedBundleScrapModel(),
		AnnotationModel(),
		RelationalModel(),
		Model2(t),
	} {
		spec := FormatModelSpec(m)
		back, err := ParseModelSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v\nspec:\n%s", m.ID, err, spec)
		}
		if !reflect.DeepEqual(m.Constructs(), back.Constructs()) {
			t.Fatalf("%s: constructs differ after round trip", m.ID)
		}
		if !reflect.DeepEqual(m.Connectors(), back.Connectors()) {
			t.Fatalf("%s: connectors differ after round trip", m.ID)
		}
	}
}

// Model2 returns the parsed tiny spec, exercising spec-defined models in
// the round-trip matrix.
func Model2(t *testing.T) *Model {
	t.Helper()
	m, err := ParseModelSpec(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Property: every constructible random model survives Format/Parse.
func TestSpecRoundTripProperty(t *testing.T) {
	f := func(seed []uint8) bool {
		m := randomModel(seed)
		back, err := ParseModelSpec(FormatModelSpec(m))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m.Constructs(), back.Constructs()) &&
			reflect.DeepEqual(m.Connectors(), back.Connectors())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
