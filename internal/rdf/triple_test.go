package rdf

import (
	"errors"
	"testing"
)

func validTriple() Triple {
	return T(IRI("http://x/s"), IRI("http://x/p"), String("o"))
}

func TestTripleValidateOK(t *testing.T) {
	cases := []Triple{
		validTriple(),
		T(Blank("b"), IRI("http://x/p"), IRI("http://x/o")),
		T(IRI("s"), IRI("p"), Blank("o")),
		T(IRI("s"), IRI("p"), String("")), // empty literal is allowed
		T(IRI("s"), IRI("p"), Integer(0)),
		T(IRI("s"), IRI("p"), String("tab\tlf\ncr\r \uFFFD \U0001F600 \u0085")), // the XML controls and non-ASCII
	}
	for _, tr := range cases {
		if err := tr.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", tr, err)
		}
	}
}

func TestTripleValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		tr   Triple
		want error
	}{
		{"literal subject", T(String("s"), IRI("p"), String("o")), ErrLiteralSubject},
		{"blank predicate", T(IRI("s"), Blank("p"), String("o")), ErrBlankPredicate},
		{"literal predicate", T(IRI("s"), String("p"), String("o")), ErrLiteralPredicateTerm},
		{"zero object", T(IRI("s"), IRI("p"), Zero), ErrObjectZero},
		{"empty subject", T(IRI(""), IRI("p"), String("o")), ErrEmptyTermValue},
		{"empty predicate", T(IRI("s"), IRI(""), String("o")), ErrEmptyTermValue},
		{"empty blank object", T(IRI("s"), IRI("p"), Blank("")), ErrEmptyTermValue},
		{"invalid utf8 subject", T(IRI("s\xc6"), IRI("p"), String("o")), ErrInvalidUTF8},
		{"invalid utf8 predicate", T(IRI("s"), IRI("p\xff"), String("o")), ErrInvalidUTF8},
		{"invalid utf8 object", T(IRI("s"), IRI("p"), String("o\x80")), ErrInvalidUTF8},
		{"invalid utf8 datatype", T(IRI("s"), IRI("p"), TypedLiteral("o", "d\xfe")), ErrInvalidUTF8},
		{"NUL in object", T(IRI("s"), IRI("p"), String("a\x00b")), ErrInvalidChar},
		{"C0 control in object", T(IRI("s"), IRI("p"), String("a\x01b")), ErrInvalidChar},
		{"form feed in subject", T(IRI("s\x0c"), IRI("p"), String("o")), ErrInvalidChar},
		{"U+FFFE in predicate", T(IRI("s"), IRI("p\uFFFE"), String("o")), ErrInvalidChar},
		{"U+FFFF in datatype", T(IRI("s"), IRI("p"), TypedLiteral("o", "d\uFFFF")), ErrInvalidChar},
	}
	for _, c := range cases {
		err := c.tr.Validate()
		if err == nil {
			t.Errorf("%s: Validate = nil, want error", c.name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestTripleString(t *testing.T) {
	got := validTriple().String()
	want := `<http://x/s> <http://x/p> "o"`
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTripleCompare(t *testing.T) {
	a := T(IRI("a"), IRI("p"), String("1"))
	b := T(IRI("b"), IRI("p"), String("1"))
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("subject-major compare broken")
	}
	c := T(IRI("a"), IRI("q"), String("1"))
	if a.Compare(c) >= 0 {
		t.Error("predicate tiebreak broken")
	}
	d := T(IRI("a"), IRI("p"), String("2"))
	if a.Compare(d) >= 0 {
		t.Error("object tiebreak broken")
	}
}

func TestPatternMatches(t *testing.T) {
	tr := validTriple()
	cases := []struct {
		p    Pattern
		want bool
	}{
		{P(Zero, Zero, Zero), true},
		{P(IRI("http://x/s"), Zero, Zero), true},
		{P(Zero, IRI("http://x/p"), Zero), true},
		{P(Zero, Zero, String("o")), true},
		{P(IRI("http://x/s"), IRI("http://x/p"), String("o")), true},
		{P(IRI("http://x/other"), Zero, Zero), false},
		{P(Zero, IRI("http://x/other"), Zero), false},
		{P(Zero, Zero, String("other")), false},
		{P(Zero, Zero, IRI("o")), false}, // IRI("o") != String("o")
	}
	for _, c := range cases {
		if got := c.p.Matches(tr); got != c.want {
			t.Errorf("Pattern %v Matches(%v) = %v, want %v", c.p, tr, got, c.want)
		}
	}
}

func TestPatternBound(t *testing.T) {
	cases := []struct {
		p    Pattern
		want int
	}{
		{P(Zero, Zero, Zero), 0},
		{P(IRI("s"), Zero, Zero), 1},
		{P(IRI("s"), IRI("p"), Zero), 2},
		{P(IRI("s"), IRI("p"), String("o")), 3},
		{P(Zero, Zero, String("o")), 1},
	}
	for _, c := range cases {
		if got := c.p.Bound(); got != c.want {
			t.Errorf("Bound(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPatternString(t *testing.T) {
	got := P(IRI("s"), Zero, String("o")).String()
	want := `<s> ? "o"`
	if got != want {
		t.Errorf("Pattern.String() = %q, want %q", got, want)
	}
}
