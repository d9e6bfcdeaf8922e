package slim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/metamodel"
	"repro/internal/rdf"
	"repro/internal/trim"
)

// DMI is a model-generated Data Manipulation Interface: the only sanctioned
// write path to a model's instances in the store (Fig. 9). Every operation
// validates against the model (connector existence, domain, range kind,
// upper cardinality) and materializes triples through one atomic batch, so
// readers never observe half-written instances.
//
// GenerateDMI is the realization of §4.4's "automatically generating
// specialized DMIs from data models": for the Bundle-Scrap model it yields
// the operations of Fig. 10 (Create_Bundle, Update_padName, Delete_Scrap,
// save, load) in generic form. Models may come from Go code, from triples
// (metamodel.Decode), or from SLIM-ML text (metamodel.ParseModelSpec) — the
// "high-level specification" path of ref [24].
type DMI struct {
	store *Store
	model *metamodel.Model
}

// GenerateDMI derives a DMI for the model. The model must already be
// registered with the store (or is registered on the spot).
func GenerateDMI(store *Store, model *metamodel.Model) (*DMI, error) {
	if _, ok := store.Model(model.ID); !ok {
		if err := store.RegisterModel(model); err != nil {
			return nil, err
		}
	}
	return &DMI{store: store, model: model}, nil
}

// Model returns the model this DMI manipulates.
func (d *DMI) Model() *metamodel.Model { return d.model }

// Store returns the underlying store.
//
// slimvet:noobs accessor — "Store" is the noun here, not the verb; the
// mutating DMI ops record via dmiOp.done.
func (d *DMI) Store() *Store { return d.store }

// Value converts a Go value into an rdf.Term for property assignment:
// string, int, int64, float64, bool, rdf.Term, or *Object (reference).
func Value(v any) (rdf.Term, error) {
	switch x := v.(type) {
	case string:
		return rdf.String(x), nil
	case int:
		return rdf.Integer(int64(x)), nil
	case int64:
		return rdf.Integer(x), nil
	case float64:
		return rdf.Float(x), nil
	case bool:
		return rdf.Bool(x), nil
	case rdf.Term:
		return x, nil
	case *Object:
		if x == nil {
			return rdf.Zero, fmt.Errorf("slim: nil object reference")
		}
		return x.ID, nil
	default:
		return rdf.Zero, fmt.Errorf("slim: cannot convert %T to a property value", v)
	}
}

// validateAssignment checks connector membership, domain, and range kind.
func (d *DMI) validateAssignment(constructID, connectorID string, value rdf.Term) error {
	conn, ok := d.model.Connector(connectorID)
	if !ok || conn.Kind != metamodel.KindConnector {
		return fmt.Errorf("slim: %s is not a connector of model %s", connectorID, d.model.ID)
	}
	if !d.model.IsA(constructID, conn.From) {
		return fmt.Errorf("slim: connector %s starts at %s, not %s", conn.Label, conn.From, constructID)
	}
	to, _ := d.model.Construct(conn.To)
	switch to.Kind {
	case metamodel.KindLiteralConstruct:
		if !value.IsLiteral() {
			return fmt.Errorf("slim: %s requires a literal value, got %v", conn.Label, value)
		}
		if to.Datatype != "" && value.Datatype() != to.Datatype {
			return fmt.Errorf("slim: %s requires datatype %s, got %s", conn.Label, to.Datatype, value.Datatype())
		}
	default:
		if !value.IsResource() {
			return fmt.Errorf("slim: %s requires an instance reference, got %v", conn.Label, value)
		}
	}
	return nil
}

// Create makes a new instance of the construct and assigns the given
// single-valued properties. Props keys are connector IRIs; values pass
// through Value. The whole creation is one atomic batch.
func (d *DMI) Create(constructID string, props map[string]any) (*Object, error) {
	return d.CreateCtx(nil, constructID, props)
}

// CreateCtx is Create under the caller's trace: the op span and the TRIM
// work it fans out into all join the context's trace tree.
func (d *DMI) CreateCtx(ctx context.Context, constructID string, props map[string]any) (obj *Object, err error) {
	ctx, op := startOpCtx(ctx, dmiCreate, constructID)
	touched := 0
	defer func() { op.done(touched, err) }()
	c, ok := d.model.Construct(constructID)
	if !ok {
		return nil, fmt.Errorf("slim: %s is not a construct of model %s", constructID, d.model.ID)
	}
	id := d.store.NewID(constructID)
	b := d.store.trim.NewBatch()
	if err := b.Create(rdf.T(id, rdf.RDFType, rdf.IRI(constructID))); err != nil {
		return nil, err
	}
	// Deterministic assignment order for reproducible error messages.
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, connID := range keys {
		term, err := Value(props[connID])
		if err != nil {
			return nil, fmt.Errorf("slim: creating %s: %s: %w", c.Label, connID, err)
		}
		if err := d.validateAssignment(constructID, connID, term); err != nil {
			return nil, err
		}
		if err := b.Create(rdf.T(id, rdf.IRI(connID), term)); err != nil {
			return nil, err
		}
	}
	touched = b.Len()
	if err := b.ApplyCtx(ctx); err != nil {
		return nil, err
	}
	return d.GetCtx(ctx, id)
}

// Get snapshots an instance into a read-only Object.
func (d *DMI) Get(id rdf.Term) (*Object, error) {
	return d.GetCtx(nil, id)
}

// GetCtx is Get under the caller's trace.
func (d *DMI) GetCtx(ctx context.Context, id rdf.Term) (obj *Object, err error) {
	ctx, op := startOpCtx(ctx, dmiGet, id.Value())
	triples := d.store.trim.SelectCtx(ctx, rdf.P(id, rdf.Zero, rdf.Zero))
	defer func() { op.done(len(triples), err) }()
	if len(triples) == 0 {
		return nil, errNoInstance(id)
	}
	construct := d.constructIn(triples)
	if construct == "" {
		return nil, d.errOtherModel(id)
	}
	return &Object{ID: id, Construct: construct, triples: triples}, nil
}

// constructOf returns the construct of an instance, read from its rdf:type
// triples alone by one select into a stack buffer: all a write needs of the
// instance, where a Get would build an Object. Its errors are GetCtx's; only
// on that path does it count the subject's triples, to tell a missing
// instance from another model's.
func (d *DMI) constructOf(ctx context.Context, id rdf.Term) (string, error) {
	var buf [2]rdf.Triple // an instance has one type; room for a second
	types := d.store.trim.SelectBufCtx(ctx, rdf.P(id, rdf.RDFType, rdf.Zero), buf[:0])
	if construct := d.constructIn(types); construct != "" {
		return construct, nil
	}
	if len(types) == 0 && d.store.trim.Count(rdf.P(id, rdf.Zero, rdf.Zero)) == 0 {
		return "", errNoInstance(id)
	}
	return "", d.errOtherModel(id)
}

// constructIn returns the construct of this model that an rdf:type triple
// among the triples names (the last such, in triple order), or "".
func (d *DMI) constructIn(triples []rdf.Triple) string {
	construct := ""
	for _, t := range triples {
		if t.Predicate == rdf.RDFType {
			if _, ok := d.model.Construct(t.Object.Value()); ok {
				construct = t.Object.Value()
			}
		}
	}
	return construct
}

// errNoInstance reports a subject with no triples.
func errNoInstance(id rdf.Term) error {
	return fmt.Errorf("slim: no instance %s", id.Value())
}

// errOtherModel reports a subject that is no instance of the DMI's model.
func (d *DMI) errOtherModel(id rdf.Term) error {
	return fmt.Errorf("slim: %s is not an instance of model %s", id.Value(), d.model.ID)
}

// Set replaces all values of the connector on the instance with one value
// (the Update_ operations of Fig. 10).
func (d *DMI) Set(id rdf.Term, connectorID string, value any) error {
	return d.SetCtx(nil, id, connectorID, value)
}

// SetCtx is Set under the caller's trace; the type select and the batch
// apply appear as child spans — the interpretation overhead §6 prices,
// made visible per request. The batch holds one TRIM Set, which requires
// the rdf:type triple the assignment was validated against, so an instance
// deleted in between fails the Set instead of taking an orphan value.
func (d *DMI) SetCtx(ctx context.Context, id rdf.Term, connectorID string, value any) (err error) {
	ctx, op := startOpCtx(ctx, dmiSet, connectorID)
	defer func() { op.done(2, err) }()
	construct, err := d.constructOf(ctx, id)
	if err != nil {
		return err
	}
	term, err := Value(value)
	if err != nil {
		return err
	}
	if err := d.validateAssignment(construct, connectorID, term); err != nil {
		return err
	}
	b := d.store.trim.NewBatch()
	if err := b.Set(rdf.T(id, rdf.IRI(connectorID), term), rdf.T(id, rdf.RDFType, rdf.IRI(construct))); err != nil {
		return err
	}
	if err := b.ApplyCtx(ctx); err != nil {
		if errors.Is(err, trim.ErrGuard) {
			return errNoInstance(id)
		}
		return err
	}
	return nil
}

// Add appends a value to a multi-valued connector (the addNestedBundle
// style operations of Fig. 10). It enforces the connector's upper
// cardinality.
func (d *DMI) Add(id rdf.Term, connectorID string, value any) error {
	return d.AddCtx(nil, id, connectorID, value)
}

// AddCtx is Add under the caller's trace. The TRIM create it ends in checks
// the instance's rdf:type triple and the connector's upper cardinality in
// the lock hold that stores the value, so concurrent Adds cannot exceed the
// bound.
func (d *DMI) AddCtx(ctx context.Context, id rdf.Term, connectorID string, value any) (err error) {
	ctx, op := startOpCtx(ctx, dmiAdd, connectorID)
	defer func() { op.done(1, err) }()
	construct, err := d.constructOf(ctx, id)
	if err != nil {
		return err
	}
	term, err := Value(value)
	if err != nil {
		return err
	}
	if err := d.validateAssignment(construct, connectorID, term); err != nil {
		return err
	}
	conn, _ := d.model.Connector(connectorID)
	if _, err := d.store.trim.CreateGuardedCtx(ctx, rdf.T(id, rdf.IRI(connectorID), term),
		rdf.T(id, rdf.RDFType, rdf.IRI(construct)), conn.MaxCard); err != nil {
		return addError(id, conn, err)
	}
	return nil
}

// addError turns a refused guarded create into the DMI's error for it.
func addError(id rdf.Term, conn metamodel.Connector, err error) error {
	var full *trim.LimitError
	switch {
	case errors.Is(err, trim.ErrGuard):
		return errNoInstance(id)
	case errors.As(err, &full):
		return fmt.Errorf("slim: %s already has %d values of %s (max %d)", id.Value(), full.Have, conn.Label, conn.MaxCard)
	}
	return err
}

// Unset removes a specific value from a connector.
func (d *DMI) Unset(id rdf.Term, connectorID string, value any) error {
	return d.UnsetCtx(nil, id, connectorID, value)
}

// UnsetCtx is Unset under the caller's trace.
func (d *DMI) UnsetCtx(ctx context.Context, id rdf.Term, connectorID string, value any) (err error) {
	ctx, op := startOpCtx(ctx, dmiUnset, connectorID)
	defer func() { op.done(1, err) }()
	term, err := Value(value)
	if err != nil {
		return err
	}
	if !d.store.trim.RemoveCtx(ctx, rdf.T(id, rdf.IRI(connectorID), term)) {
		return fmt.Errorf("slim: %s has no value %v for %s", id.Value(), term, connectorID)
	}
	return nil
}

// Delete removes an instance: all its outgoing triples and all incoming
// references to it. With cascade, instances reachable from it through
// model connectors that no other instance references are deleted too (the
// containment semantics Delete_Bundle needs).
func (d *DMI) Delete(id rdf.Term, cascade bool) error {
	return d.DeleteCtx(nil, id, cascade)
}

// DeleteCtx is Delete under the caller's trace; cascaded deletes become
// child spans of this one, so the containment fan-out is visible as a
// subtree.
func (d *DMI) DeleteCtx(ctx context.Context, id rdf.Term, cascade bool) (err error) {
	ctx, op := startOpCtx(ctx, dmiDelete, id.Value())
	before := d.store.trim.Len()
	// A cascading delete's triple count includes the nested deletes, which
	// also record their own ops — the nesting is visible in the trace ring.
	defer func() { op.done(before-d.store.trim.Len(), err) }()
	obj, err := d.GetCtx(ctx, id)
	if err != nil {
		return err
	}
	children := map[rdf.Term]bool{}
	if cascade {
		for _, t := range obj.triples {
			if t.Predicate == rdf.RDFType || !t.Object.IsResource() {
				continue
			}
			if _, ok := d.model.Connector(t.Predicate.Value()); ok {
				children[t.Object] = true
			}
		}
	}
	b := d.store.trim.NewBatch()
	if err := b.RemoveMatching(rdf.P(id, rdf.Zero, rdf.Zero)); err != nil {
		return err
	}
	if err := b.RemoveMatching(rdf.P(rdf.Zero, rdf.Zero, id)); err != nil {
		return err
	}
	if err := b.ApplyCtx(ctx); err != nil {
		return err
	}
	if cascade {
		for child := range children {
			// Another instance may still reference the child.
			if d.store.trim.Count(rdf.P(rdf.Zero, rdf.Zero, child)) > 0 {
				continue
			}
			if _, err := d.GetCtx(ctx, child); err != nil {
				continue // not an instance of this model
			}
			if err := d.DeleteCtx(ctx, child, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// InstancesOf lists all instances of the construct (including instances of
// its specializations), sorted by IRI.
func (d *DMI) InstancesOf(constructID string) ([]*Object, error) {
	return d.InstancesOfCtx(nil, constructID)
}

// InstancesOfCtx is InstancesOf under the caller's trace; every per-
// instance Get is a child span.
func (d *DMI) InstancesOfCtx(ctx context.Context, constructID string) (out []*Object, err error) {
	ctx, op := startOpCtx(ctx, dmiInstancesOf, constructID)
	defer func() { op.done(0, err) }()
	types, err := d.InstanceTypes(constructID)
	if err != nil {
		return nil, err
	}
	ids := map[rdf.Term]bool{}
	for _, typ := range types {
		for _, s := range d.store.trim.Subjects(rdf.RDFType, typ) {
			ids[s] = true
		}
	}
	sorted := make([]rdf.Term, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	out = make([]*Object, 0, len(sorted))
	for _, id := range sorted {
		obj, err := d.GetCtx(ctx, id)
		if err != nil {
			return nil, err
		}
		out = append(out, obj)
	}
	return out, nil
}

// InstanceTypes returns the rdf:type objects that make a subject an
// instance of the construct: the construct itself first, then its
// specializations. InstancesOf lists exactly the subjects typed as one of
// them.
func (d *DMI) InstanceTypes(constructID string) ([]rdf.Term, error) {
	if _, ok := d.model.Construct(constructID); !ok {
		return nil, fmt.Errorf("slim: %s is not a construct of model %s", constructID, d.model.ID)
	}
	types := []rdf.Term{rdf.IRI(constructID)}
	for _, sub := range d.model.Constructs() {
		if sub.ID != constructID && d.model.IsA(sub.ID, constructID) {
			types = append(types, rdf.IRI(sub.ID))
		}
	}
	return types, nil
}

// View returns the reachability view rooted at the instance (§4.4): all
// triples representing the instance and everything nested inside it.
func (d *DMI) View(id rdf.Term) *rdf.Graph {
	return d.ViewCtx(nil, id)
}

// ViewCtx is View under the caller's trace.
func (d *DMI) ViewCtx(ctx context.Context, id rdf.Term) *rdf.Graph {
	ctx, op := startOpCtx(ctx, dmiView, id.Value())
	g := d.store.trim.ViewCtx(ctx, id)
	op.done(g.Len(), nil)
	return g
}

// Trim exposes the store's triple manager, for read-only queries by the
// superimposed application.
func (d *DMI) Trim() *trim.Manager { return d.store.trim }
