package slim

import (
	"fmt"

	"repro/internal/rdf"
)

// Object is the read-only application-data view of one instance (Fig. 9:
// "read-only objects that represent the ... model"). A DMI hands Objects to
// the superimposed application; all mutation goes back through the DMI,
// which keeps the triple representation and the objects consistent.
type Object struct {
	// ID is the instance IRI.
	ID rdf.Term
	// Construct is the IRI of the instance's construct (its type).
	Construct string
	// triples is the instance's subject select, in (predicate, object)
	// order and rdf:type included, so each connector's values are one run.
	triples []rdf.Triple
}

// run returns the connector's triples, nil when it has none. rdf:type
// names the construct and is no connector.
func (o *Object) run(connectorID string) []rdf.Triple {
	if connectorID == rdf.RDFType.Value() {
		return nil
	}
	for i, t := range o.triples {
		if t.Predicate.Value() != connectorID {
			continue
		}
		j := i + 1
		for j < len(o.triples) && o.triples[j].Predicate == t.Predicate {
			j++
		}
		return o.triples[i:j]
	}
	return nil
}

// Get returns the single value of the connector. It errors when the
// property is absent or multi-valued.
func (o *Object) Get(connectorID string) (rdf.Term, error) {
	run := o.run(connectorID)
	switch len(run) {
	case 0:
		return rdf.Zero, fmt.Errorf("slim: %s has no value for %s", o.ID.Value(), connectorID)
	case 1:
		return run[0].Object, nil
	default:
		return rdf.Zero, fmt.Errorf("slim: %s has %d values for %s, want 1", o.ID.Value(), len(run), connectorID)
	}
}

// GetString returns the single value as its lexical string, or "" when the
// property is absent.
func (o *Object) GetString(connectorID string) string {
	v, err := o.Get(connectorID)
	if err != nil {
		return ""
	}
	return v.Value()
}

// GetInt returns the single integer value, or 0 when absent or non-integer.
func (o *Object) GetInt(connectorID string) int64 {
	v, err := o.Get(connectorID)
	if err != nil {
		return 0
	}
	n, _ := v.Int()
	return n
}

// All returns every value of the connector, in deterministic order.
func (o *Object) All(connectorID string) []rdf.Term {
	vs := o.Values(connectorID)
	if vs.Len() == 0 {
		return nil
	}
	out := make([]rdf.Term, vs.Len())
	for i := range out {
		out[i] = vs.At(i)
	}
	return out
}

// Values is a read-only view of one connector's values, in All's order.
// It shares the Object's storage, so taking and walking it allocates
// nothing.
type Values struct{ run []rdf.Triple }

// Values returns the connector's values without copying them.
func (o *Object) Values(connectorID string) Values { return Values{o.run(connectorID)} }

// Len returns the number of values.
func (v Values) Len() int { return len(v.run) }

// At returns the i-th value, 0 <= i < Len().
func (v Values) At(i int) rdf.Term { return v.run[i].Object }

// Connectors returns the connector IRIs that have values, sorted.
func (o *Object) Connectors() []string {
	out := make([]string, 0, len(o.triples))
	for _, t := range o.triples {
		if t.Predicate == rdf.RDFType {
			continue
		}
		if c := t.Predicate.Value(); len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out
}

// String renders the object for diagnostics.
func (o *Object) String() string {
	return fmt.Sprintf("%s <%s>", o.ID.Value(), o.Construct)
}
