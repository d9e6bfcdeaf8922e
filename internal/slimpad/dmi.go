package slimpad

import (
	"context"
	"fmt"

	"repro/internal/metamodel"
	"repro/internal/rdf"
	"repro/internal/slim"
	"repro/internal/trim"
)

// DMI is SLIMPad's application-specific Data Manipulation Interface: the
// operations of Fig. 10 over the Bundle-Scrap model, implemented on the
// generated generic DMI. "When SLIMPad needs to create a Bundle, it calls
// the Create_Bundle operation in the DMI, which creates a Bundle object for
// SLIMPad plus the triples to represent a new Bundle" (§4.4).
type DMI struct {
	store *slim.Store
	g     *slim.DMI
}

// NewDMI builds a SLIMPad DMI over a fresh SLIM store.
func NewDMI() (*DMI, error) {
	return NewDMIOver(slim.NewStore())
}

// NewDMIOver builds a SLIMPad DMI over an existing store (registering the
// extended Bundle-Scrap model — Fig. 3 plus the §6 extensions — if needed).
func NewDMIOver(store *slim.Store) (*DMI, error) {
	model, ok := store.Model(metamodel.ExtendedBundleScrapModelID)
	if !ok {
		model = metamodel.ExtendedBundleScrapModel()
	}
	g, err := slim.GenerateDMI(store, model)
	if err != nil {
		return nil, err
	}
	return &DMI{store: store, g: g}, nil
}

// Store exposes the underlying SLIM store (for persistence and stats).
func (d *DMI) Store() *slim.Store { return d.store }

// CreateSlimPad implements Create_SlimPad: a new pad with the given name
// and no root bundle yet.
func (d *DMI) CreateSlimPad(padName string) (SlimPad, error) {
	obj, err := d.g.Create(metamodel.ConstructSlimPad, map[string]any{
		metamodel.ConnPadName: padName,
	})
	if err != nil {
		return nil, err
	}
	return padView{obj}, nil
}

// CreateBundle implements Create_Bundle.
func (d *DMI) CreateBundle(name string, pos Coordinate, width, height int) (Bundle, error) {
	obj, err := d.g.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName:   name,
		metamodel.ConnBundlePos:    pos.String(),
		metamodel.ConnBundleWidth:  width,
		metamodel.ConnBundleHeight: height,
	})
	if err != nil {
		return nil, err
	}
	return bundleView{obj}, nil
}

// CreateScrap implements Create_Scrap: a scrap needs at least one mark
// (Fig. 3 multiplicity 1..*), supplied here by mark id.
func (d *DMI) CreateScrap(name string, pos Coordinate, markID string) (Scrap, error) {
	if markID == "" {
		return nil, fmt.Errorf("slimpad: a scrap requires a mark (Fig. 3: scrapMark 1..*)")
	}
	handle, err := d.g.Create(metamodel.ConstructMarkHandle, nil)
	if err != nil {
		return nil, err
	}
	// The markId property is the bridge to the Mark Manager.
	if _, err := d.store.Trim().Create(rdf.T(handle.ID, metamodel.PropMarkID, rdf.String(markID))); err != nil {
		return nil, err
	}
	obj, err := d.g.Create(metamodel.ConstructScrap, map[string]any{
		metamodel.ConnScrapName: name,
		metamodel.ConnScrapPos:  pos.String(),
		metamodel.ConnScrapMark: handle.ID,
	})
	if err != nil {
		return nil, err
	}
	return d.scrapOf(obj)
}

// AddScrapMark attaches an additional mark to an existing scrap (the
// multiple-marks-per-scrap extension contemplated in §3).
func (d *DMI) AddScrapMark(scrap rdf.Term, markID string) error {
	if markID == "" {
		return fmt.Errorf("slimpad: empty mark id")
	}
	handle, err := d.g.Create(metamodel.ConstructMarkHandle, nil)
	if err != nil {
		return err
	}
	if _, err := d.store.Trim().Create(rdf.T(handle.ID, metamodel.PropMarkID, rdf.String(markID))); err != nil {
		return err
	}
	return d.g.Add(scrap, metamodel.ConnScrapMark, handle.ID)
}

// SetRootBundle implements Update_rootBundle.
func (d *DMI) SetRootBundle(pad, bundle rdf.Term) error {
	if _, err := d.Bundle(bundle); err != nil {
		return err
	}
	return d.g.Set(pad, metamodel.ConnRootBundle, bundle)
}

// UpdatePadName implements Update_padName.
func (d *DMI) UpdatePadName(pad rdf.Term, name string) error {
	return d.g.Set(pad, metamodel.ConnPadName, name)
}

// UpdateBundleName implements Update_bundleName.
func (d *DMI) UpdateBundleName(bundle rdf.Term, name string) error {
	return d.g.Set(bundle, metamodel.ConnBundleName, name)
}

// MoveBundle implements Update_bundlePos.
func (d *DMI) MoveBundle(bundle rdf.Term, pos Coordinate) error {
	return d.g.Set(bundle, metamodel.ConnBundlePos, pos.String())
}

// ResizeBundle updates bundleWidth and bundleHeight.
func (d *DMI) ResizeBundle(bundle rdf.Term, width, height int) error {
	if err := d.g.Set(bundle, metamodel.ConnBundleWidth, width); err != nil {
		return err
	}
	return d.g.Set(bundle, metamodel.ConnBundleHeight, height)
}

// RenameScrap implements Update_scrapName.
func (d *DMI) RenameScrap(scrap rdf.Term, name string) error {
	return d.g.Set(scrap, metamodel.ConnScrapName, name)
}

// MoveScrap implements Update_scrapPos.
func (d *DMI) MoveScrap(scrap rdf.Term, pos Coordinate) error {
	return d.g.Set(scrap, metamodel.ConnScrapPos, pos.String())
}

// AddNestedBundle implements addNestedBundle. Cycles in the containment
// tree are rejected: a bundle cannot (transitively) contain itself.
func (d *DMI) AddNestedBundle(parent, child rdf.Term) error {
	if parent == child {
		return fmt.Errorf("slimpad: a bundle cannot nest itself")
	}
	if d.store.Trim().ReachesFrom(child, parent) {
		return fmt.Errorf("slimpad: nesting %s under %s would create a containment cycle", child.Value(), parent.Value())
	}
	return d.g.Add(parent, metamodel.ConnNestedBundle, child)
}

// AddScrapToBundle implements the bundleContent half of Fig. 3.
func (d *DMI) AddScrapToBundle(bundle, scrap rdf.Term) error {
	return d.g.Add(bundle, metamodel.ConnBundleContent, scrap)
}

// RemoveScrapFromBundle detaches a scrap from a bundle without deleting it
// (so it can be re-bundled — the paper's "selection and rearrangement").
func (d *DMI) RemoveScrapFromBundle(bundle, scrap rdf.Term) error {
	return d.g.Unset(bundle, metamodel.ConnBundleContent, scrap)
}

// DeleteSlimPad implements Delete_SlimPad. The root bundle and its contents
// survive unless cascade is set.
func (d *DMI) DeleteSlimPad(pad rdf.Term, cascade bool) error {
	return d.g.Delete(pad, cascade)
}

// DeleteBundle implements Delete_Bundle: with cascade, nested bundles,
// scraps, and their mark handles go too (unless shared).
func (d *DMI) DeleteBundle(bundle rdf.Term, cascade bool) error {
	return d.g.Delete(bundle, cascade)
}

// DeleteScrap implements Delete_Scrap, removing its mark handles with it.
func (d *DMI) DeleteScrap(scrap rdf.Term) error {
	return d.g.Delete(scrap, true)
}

// Pad fetches the read-only view of a pad.
func (d *DMI) Pad(id rdf.Term) (SlimPad, error) { return d.PadCtx(nil, id) }

// PadCtx is Pad under the caller's trace: the generic Get it fans out
// into joins the context's trace tree.
func (d *DMI) PadCtx(ctx context.Context, id rdf.Term) (SlimPad, error) {
	obj, err := d.g.GetCtx(ctx, id)
	if err != nil {
		return nil, err
	}
	if obj.Construct != metamodel.ConstructSlimPad {
		return nil, fmt.Errorf("slimpad: %s is a %s, not a SlimPad", id.Value(), obj.Construct)
	}
	return padView{obj}, nil
}

// Bundle fetches the read-only view of a bundle.
func (d *DMI) Bundle(id rdf.Term) (Bundle, error) { return d.BundleCtx(nil, id) }

// BundleCtx is Bundle under the caller's trace.
func (d *DMI) BundleCtx(ctx context.Context, id rdf.Term) (Bundle, error) {
	obj, err := d.g.GetCtx(ctx, id)
	if err != nil {
		return nil, err
	}
	if obj.Construct != metamodel.ConstructBundle {
		return nil, fmt.Errorf("slimpad: %s is a %s, not a Bundle", id.Value(), obj.Construct)
	}
	return bundleView{obj}, nil
}

// Scrap fetches the read-only view of a scrap with its mark handles.
func (d *DMI) Scrap(id rdf.Term) (Scrap, error) { return d.ScrapCtx(nil, id) }

// ScrapCtx is Scrap under the caller's trace.
func (d *DMI) ScrapCtx(ctx context.Context, id rdf.Term) (Scrap, error) {
	obj, err := d.g.GetCtx(ctx, id)
	if err != nil {
		return nil, err
	}
	return d.scrapOf(obj)
}

// scrapOf builds the scrap view of an instance already read, resolving
// each mark handle's mark id.
func (d *DMI) scrapOf(obj *slim.Object) (Scrap, error) {
	if obj.Construct != metamodel.ConstructScrap {
		return nil, fmt.Errorf("slimpad: %s is a %s, not a Scrap", obj.ID.Value(), obj.Construct)
	}
	v := &scrapView{obj: obj}
	handles := obj.Values(metamodel.ConnScrapMark)
	for i := 0; i < handles.Len(); i++ {
		hv := handleView{id: handles.At(i)}
		if t, err := d.store.Trim().One(rdf.P(hv.id, metamodel.PropMarkID, rdf.Zero)); err == nil {
			hv.markID = t.Object.Value()
		}
		v.add(hv)
	}
	return v, nil
}

// Pads lists every pad in the store.
func (d *DMI) Pads() ([]SlimPad, error) { return d.PadsCtx(nil) }

// PadsCtx is Pads under the caller's trace.
func (d *DMI) PadsCtx(ctx context.Context) ([]SlimPad, error) {
	objs, err := d.g.InstancesOfCtx(ctx, metamodel.ConstructSlimPad)
	if err != nil {
		return nil, err
	}
	out := make([]SlimPad, len(objs))
	for i, o := range objs {
		out[i] = padView{o}
	}
	return out, nil
}

// Bundles lists every bundle in the store.
func (d *DMI) Bundles() ([]Bundle, error) {
	objs, err := d.g.InstancesOf(metamodel.ConstructBundle)
	if err != nil {
		return nil, err
	}
	out := make([]Bundle, len(objs))
	for i, o := range objs {
		out[i] = bundleView{o}
	}
	return out, nil
}

// Check validates the store against the (extended) Bundle-Scrap model.
func (d *DMI) Check() ([]metamodel.Violation, error) {
	return d.store.Check(metamodel.ExtendedBundleScrapModelID)
}

// Save implements save(fileName): the entire pad state (model + instances)
// persists as an XML triple file.
func (d *DMI) Save(fileName string) error {
	return d.store.SaveFile(fileName)
}

// SaveBackend is Save through a pluggable durability backend (XML
// snapshot, append-only WAL, or JSON Lines) opened over this DMI's store.
func (d *DMI) SaveBackend(b trim.Backend) error {
	return d.store.SaveBackend(b)
}

// Load implements load(fileName): it replaces the store contents and
// returns the loaded pads.
func (d *DMI) Load(fileName string) ([]SlimPad, error) {
	if err := d.store.LoadFile(fileName); err != nil {
		return nil, err
	}
	return d.rebind(fileName)
}

// LoadBackend is Load through a pluggable durability backend: the backend
// recovers the store contents (for the WAL, snapshot + log replay) and the
// DMI re-binds to the recovered model.
func (d *DMI) LoadBackend(b trim.Backend) ([]SlimPad, error) {
	if err := d.store.LoadBackend(b); err != nil {
		return nil, err
	}
	return d.rebind(b.Path())
}

// rebind regenerates the model-aware DMI after a load replaced the store
// contents, and returns the loaded pads.
func (d *DMI) rebind(fileName string) ([]SlimPad, error) {
	model, ok := d.store.Model(metamodel.ExtendedBundleScrapModelID)
	if !ok {
		// Pads written by plain Fig. 3 implementations load too.
		model, ok = d.store.Model(metamodel.BundleScrapModelID)
	}
	if !ok {
		return nil, fmt.Errorf("slimpad: %s does not contain the Bundle-Scrap model", fileName)
	}
	g, err := slim.GenerateDMI(d.store, model)
	if err != nil {
		return nil, err
	}
	d.g = g
	return d.Pads()
}
