package rdf

import (
	"errors"
	"fmt"
	"unicode/utf8"
)

// Triple is one statement: Subject (the paper's "resource"), Predicate (the
// paper's "property"), Object (the paper's "value").
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// T is shorthand for constructing a triple.
func T(s, p, o Term) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// Errors reported by Triple.Validate.
var (
	ErrSubjectNotResource   = errors.New("rdf: triple subject must be an IRI or blank node")
	ErrPredicateNotIRI      = errors.New("rdf: triple predicate must be an IRI")
	ErrObjectZero           = errors.New("rdf: triple object must not be the zero term")
	ErrEmptyTermValue       = errors.New("rdf: triple term has empty value")
	ErrLiteralSubject       = errors.New("rdf: triple subject must not be a literal")
	ErrBlankPredicate       = errors.New("rdf: triple predicate must not be a blank node")
	ErrLiteralPredicateTerm = errors.New("rdf: triple predicate must not be a literal")
	// ErrInvalidUTF8: term values must be valid UTF-8 (both serializations
	// are UTF-8 text; invalid bytes would silently mutate to U+FFFD on the
	// way out and break round trips).
	ErrInvalidUTF8 = errors.New("rdf: term value is not valid UTF-8")
	// ErrInvalidChar: term values may hold only characters XML 1.0 can
	// carry — no NUL, no C0 control other than tab, line feed and carriage
	// return, no U+FFFE or U+FFFF. An XML save would write U+FFFD in their
	// place, so the value would change at the next save and load.
	ErrInvalidChar = errors.New("rdf: term value holds a character XML cannot carry")
)

// Validate reports whether the triple is well formed: the subject is a
// resource, the predicate is an IRI, the object is any non-zero term, and
// every value and datatype is UTF-8 text of characters XML 1.0 can carry.
func (t Triple) Validate() error {
	if err := t.validateShape(); err != nil {
		return err
	}
	if err := checkText(t.Subject); err != nil {
		return fmt.Errorf("%w (subject)", err)
	}
	if err := checkText(t.Predicate); err != nil {
		return fmt.Errorf("%w (predicate)", err)
	}
	if err := checkText(t.Object); err != nil {
		return fmt.Errorf("%w (object)", err)
	}
	return nil
}

// validateShape is Validate without the text checks: each position holds
// a term of a kind it admits, and only a literal may be empty.
func (t Triple) validateShape() error {
	switch t.Subject.Kind() {
	case KindIRI, KindBlank:
		if t.Subject.Value() == "" {
			return fmt.Errorf("%w (subject)", ErrEmptyTermValue)
		}
	case KindLiteral:
		return ErrLiteralSubject
	default:
		return ErrSubjectNotResource
	}
	switch t.Predicate.Kind() {
	case KindIRI:
		if t.Predicate.Value() == "" {
			return fmt.Errorf("%w (predicate)", ErrEmptyTermValue)
		}
	case KindBlank:
		return ErrBlankPredicate
	case KindLiteral:
		return ErrLiteralPredicateTerm
	default:
		return ErrPredicateNotIRI
	}
	if t.Object.IsZero() {
		return ErrObjectZero
	}
	if t.Object.Value() == "" && t.Object.Kind() != KindLiteral {
		return fmt.Errorf("%w (object)", ErrEmptyTermValue)
	}
	return nil
}

// checkText reports whether a term's value and datatype are text both
// serializations carry unchanged: valid UTF-8 (ErrInvalidUTF8) holding
// only XML 1.0 characters (ErrInvalidChar).
func checkText(t Term) error {
	if err := checkString(t.value); err != nil {
		return err
	}
	return checkString(t.dtype)
}

// checkString is checkText for one string, in one pass.
func checkString(s string) error {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return ErrInvalidChar
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && w == 1:
			return ErrInvalidUTF8
		case !isXMLChar(r):
			return ErrInvalidChar
		}
		i += w
	}
	return nil
}

// isXMLChar reports whether r is in XML 1.0's Char production: tab, line
// feed, carriage return, and U+0020 up, less the surrogates, U+FFFE and
// U+FFFF.
func isXMLChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// String renders the triple in N-Triples syntax without the trailing dot.
func (t Triple) String() string {
	return t.Subject.String() + " " + t.Predicate.String() + " " + t.Object.String()
}

// Compare orders triples subject-major, then predicate, then object.
func (t Triple) Compare(u Triple) int {
	if c := t.Subject.Compare(u.Subject); c != 0 {
		return c
	}
	if c := t.Predicate.Compare(u.Predicate); c != 0 {
		return c
	}
	return t.Object.Compare(u.Object)
}

// Pattern is a triple template for selection queries: any zero Term matches
// every term in that position. The paper (§4.4): "Query is specified by
// selection, where one or more of the triple fields is fixed, and the result
// is a set of triples."
type Pattern struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// P is shorthand for constructing a pattern; pass rdf.Zero for wildcards.
func P(s, p, o Term) Pattern { return Pattern{Subject: s, Predicate: p, Object: o} }

// Matches reports whether the triple satisfies the pattern.
func (p Pattern) Matches(t Triple) bool {
	if !p.Subject.IsZero() && p.Subject != t.Subject {
		return false
	}
	if !p.Predicate.IsZero() && p.Predicate != t.Predicate {
		return false
	}
	if !p.Object.IsZero() && p.Object != t.Object {
		return false
	}
	return true
}

// Bound reports how many fields of the pattern are fixed.
func (p Pattern) Bound() int {
	n := 0
	if !p.Subject.IsZero() {
		n++
	}
	if !p.Predicate.IsZero() {
		n++
	}
	if !p.Object.IsZero() {
		n++
	}
	return n
}

// String renders the pattern with "?" for wildcards.
func (p Pattern) String() string {
	f := func(t Term) string {
		if t.IsZero() {
			return "?"
		}
		return t.String()
	}
	return f(p.Subject) + " " + f(p.Predicate) + " " + f(p.Object)
}
