package slimpad

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/base"
	"repro/internal/mark"
	"repro/internal/metamodel"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trim"
)

// App is the SLIMPad application: the DMI plus the Mark Manager, wired as
// in Fig. 5. It implements the user-level flows of §3: select an element in
// a base application, create a mark, drop it on the pad as a scrap, and
// later double-click the scrap to re-establish context.
//
// Concurrency: App and DMI hold no locks of their own — audited for the
// slimvet guarded-field pass. All shared mutable state lives behind the
// mark.Manager and trim.Manager they delegate to, whose fields carry
// `guarded by mu` annotations; an App value itself is a pair of pointers,
// safe to copy and safe for concurrent use exactly as far as those
// managers are (see concurrency_test.go).
type App struct {
	dmi   *DMI
	marks *mark.Manager
}

// NewApp builds a SLIMPad application over a fresh store and the given mark
// manager.
func NewApp(marks *mark.Manager) (*App, error) {
	dmi, err := NewDMI()
	if err != nil {
		return nil, err
	}
	return &App{dmi: dmi, marks: marks}, nil
}

// DMI exposes the pad's data manipulation interface.
func (a *App) DMI() *DMI { return a.dmi }

// Marks exposes the mark manager.
func (a *App) Marks() *mark.Manager { return a.marks }

// NewPad creates a pad with an empty root bundle, ready for scraps: the
// state of a freshly opened SLIMPad window.
func (a *App) NewPad(name string) (SlimPad, Bundle, error) {
	pad, err := a.dmi.CreateSlimPad(name)
	if err != nil {
		return nil, nil, err
	}
	root, err := a.dmi.CreateBundle(name, Coordinate{0, 0}, 800, 600)
	if err != nil {
		return nil, nil, err
	}
	if err := a.dmi.SetRootBundle(pad.ID(), root.ID()); err != nil {
		return nil, nil, err
	}
	pad, err = a.dmi.Pad(pad.ID())
	if err != nil {
		return nil, nil, err
	}
	return pad, root, nil
}

// ClipSelection creates a scrap in the bundle from the current selection of
// the scheme's base application — the "digital sticky-note ... with a
// digital wire that leads back to the information in the original data
// source" (§3). The scrap's label defaults to the marked content when name
// is empty; note that "a scrap's label and its mark's content may differ".
func (a *App) ClipSelection(bundle rdf.Term, scheme, name string, pos Coordinate) (Scrap, error) {
	m, err := a.marks.CreateFromSelection(scheme)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = m.Excerpt
	}
	if name == "" {
		name = m.Address.Path
	}
	scrap, err := a.dmi.CreateScrap(name, pos, m.ID)
	if err != nil {
		return nil, err
	}
	if err := a.dmi.AddScrapToBundle(bundle, scrap.ID()); err != nil {
		return nil, err
	}
	return scrap, nil
}

// OpenScrap resolves the scrap's (first) mark, driving the base application
// to the original element — the double-click behavior of §3: "the mark is
// de-referenced and the original information source ... is displayed with
// the appropriate medication highlighted."
func (a *App) OpenScrap(scrap rdf.Term) (base.Element, error) {
	s, err := a.dmi.Scrap(scrap)
	if err != nil {
		return base.Element{}, err
	}
	handles := s.MarkHandles()
	if len(handles) == 0 {
		return base.Element{}, fmt.Errorf("slimpad: scrap %s has no marks", scrap.Value())
	}
	return a.marks.Resolve(handles[0].MarkID())
}

// PeekScrap resolves the scrap's mark in place, without disturbing any base
// viewer (the §6 "display in place" behavior).
func (a *App) PeekScrap(scrap rdf.Term) (string, error) {
	s, err := a.dmi.Scrap(scrap)
	if err != nil {
		return "", err
	}
	handles := s.MarkHandles()
	if len(handles) == 0 {
		return "", fmt.Errorf("slimpad: scrap %s has no marks", scrap.Value())
	}
	return a.marks.ExtractContent(handles[0].MarkID())
}

// RefreshScrap re-extracts the marked content of every mark on the scrap
// and reports whether any drifted from its stored excerpt — SLIMPad's
// answer to the transcription-error risk of redundancy (§3). It fails on
// the first unresolvable mark; RefreshScrapCtx is the failure-aware
// variant that degrades per mark instead.
func (a *App) RefreshScrap(scrap rdf.Term) (changed bool, err error) {
	s, err := a.dmi.Scrap(scrap)
	if err != nil {
		return false, err
	}
	for _, h := range s.MarkHandles() {
		_, c, err := a.marks.Refresh(h.MarkID())
		if err != nil {
			return changed, err
		}
		changed = changed || c
	}
	return changed, nil
}

// RefreshReport summarizes a failure-aware scrap refresh.
type RefreshReport struct {
	// Refreshed counts marks whose excerpt was re-extracted live.
	Refreshed int
	// Changed reports whether any live re-extraction drifted from the
	// stored excerpt.
	Changed bool
	// Stale lists marks that could not be refreshed (their cached excerpt
	// still serves reads); Dangling lists those with no excerpt either.
	Stale, Dangling []string
}

// Ok reports whether every mark on the scrap refreshed live.
func (r RefreshReport) Ok() bool { return len(r.Stale) == 0 && len(r.Dangling) == 0 }

// RefreshScrapCtx refreshes every mark on the scrap with the Mark
// Manager's resilient path: transient base faults are retried, and a mark
// whose base is gone does not abort the rest of the scrap — it is recorded
// as stale (excerpt-backed) or dangling and quarantined by the manager for
// a later `doctor` pass. Only scrap-level failures (unknown scrap, unknown
// mark id) return an error.
func (a *App) RefreshScrapCtx(ctx context.Context, scrap rdf.Term) (RefreshReport, error) {
	var r RefreshReport
	s, err := a.dmi.ScrapCtx(ctx, scrap)
	if err != nil {
		return r, err
	}
	for _, h := range s.MarkHandles() {
		id := h.MarkID()
		_, c, err := a.marks.RefreshCtx(ctx, id)
		if err == nil {
			r.Refreshed++
			r.Changed = r.Changed || c
			continue
		}
		if errors.Is(err, mark.ErrUnknownMark) || ctx.Err() != nil {
			return r, err
		}
		m, merr := a.marks.Mark(id)
		if merr == nil && m.Excerpt != "" {
			r.Stale = append(r.Stale, id)
		} else {
			r.Dangling = append(r.Dangling, id)
		}
		obs.C(obs.NameSlimpadRefreshDegraded).Inc()
		obs.Log().Warn("slimpad: scrap mark not refreshable", "scrap", scrap.Value(), "mark", id, "err", err)
	}
	return r, nil
}

// Save persists the pad state and the marks into one XML file: the pad
// triples and mark triples share the store, so a single file captures the
// whole superimposed layer.
func (a *App) Save(fileName string) error {
	if err := a.marks.SaveTo(a.dmi.Store().Trim()); err != nil {
		return err
	}
	return a.dmi.Save(fileName)
}

// Load restores pads and marks from an XML file.
func (a *App) Load(fileName string) ([]SlimPad, error) {
	pads, err := a.dmi.Load(fileName)
	if err != nil {
		return nil, err
	}
	if err := a.marks.LoadFrom(a.dmi.Store().Trim()); err != nil {
		return nil, err
	}
	return pads, nil
}

// SaveWith persists the pad state and the marks through a pluggable
// durability backend opened over this app's store. The mark manager writes
// only the marks changed since it last synced with the store
// (mark.Manager.SaveTo), so with the WAL backend a save costs one fsynced
// record holding just the mutations since the last save, O(batch), instead
// of the XML snapshot's O(store) rewrite.
func (a *App) SaveWith(b trim.Backend) error {
	if err := a.marks.SaveTo(a.dmi.Store().Trim()); err != nil {
		return err
	}
	return a.dmi.SaveBackend(b)
}

// LoadWith restores pads and marks through a pluggable durability backend
// (for the WAL: compacted snapshot + log replay with torn-tail recovery).
func (a *App) LoadWith(b trim.Backend) ([]SlimPad, error) {
	pads, err := a.dmi.LoadBackend(b)
	if err != nil {
		return nil, err
	}
	if err := a.marks.LoadFrom(a.dmi.Store().Trim()); err != nil {
		return nil, err
	}
	return pads, nil
}

// Tree renders the pad's containment structure as an indented outline, the
// textual stand-in for the Fig. 4 window. Scraps show their label and the
// address behind their first mark.
func (a *App) Tree(pad rdf.Term) (string, error) { return a.TreeCtx(nil, pad) }

// TreeCtx is Tree under the caller's trace: every pad, bundle, and scrap
// fetch it fans out into joins the context's trace tree, which makes one
// TreeCtx call the canonical multi-layer trace (dmi → trim) for the
// slimpad trace subcommand.
func (a *App) TreeCtx(ctx context.Context, pad rdf.Term) (string, error) {
	p, err := a.dmi.PadCtx(ctx, pad)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("SLIMPad %q\n", p.PadName())
	root, ok := p.RootBundle()
	if !ok {
		return out + "  (no root bundle)\n", nil
	}
	var render func(id rdf.Term, depth int) error
	render = func(id rdf.Term, depth int) error {
		b, err := a.dmi.BundleCtx(ctx, id)
		if err != nil {
			return err
		}
		label := b.BundleName()
		for _, t := range mustTemplates(a.dmi) {
			if t.Bundle == id {
				label += fmt.Sprintf(" (template %q)", t.Name)
			}
		}
		out += fmt.Sprintf("%*s[%s] at %s\n", depth*2, "", label, b.Pos())
		scraps := b.Scraps()
		sort.Slice(scraps, func(i, j int) bool { return scraps[i].Compare(scraps[j]) < 0 })
		for _, sid := range scraps {
			s, err := a.dmi.ScrapCtx(ctx, sid)
			if err != nil {
				return err
			}
			wire := ""
			if hs := s.MarkHandles(); len(hs) > 0 {
				if m, err := a.marks.Mark(hs[0].MarkID()); err == nil {
					wire = " -> " + m.Address.String()
				}
			}
			out += fmt.Sprintf("%*s* %s%s\n", depth*2+2, "", s.ScrapName(), wire)
			notes, err := a.dmi.ScrapNotes(sid)
			if err != nil {
				return err
			}
			for _, note := range notes {
				out += fmt.Sprintf("%*s. note: %s\n", depth*2+4, "", note)
			}
			links, err := a.dmi.LinkedScraps(sid)
			if err != nil {
				return err
			}
			for _, target := range links {
				if ts, err := a.dmi.ScrapCtx(ctx, target); err == nil {
					out += fmt.Sprintf("%*s. see: %s\n", depth*2+4, "", ts.ScrapName())
				}
			}
		}
		nested := b.NestedBundles()
		sort.Slice(nested, func(i, j int) bool { return nested[i].Compare(nested[j]) < 0 })
		for _, nid := range nested {
			if err := render(nid, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := render(root, 1); err != nil {
		return "", err
	}
	return out, nil
}

// mustTemplates returns the template list, empty on error (rendering keeps
// going).
func mustTemplates(d *DMI) []TemplateRef {
	ts, err := d.Templates()
	if err != nil {
		return nil
	}
	return ts
}

// Stats summarizes a pad for dashboards and tests.
type Stats struct {
	Bundles, Scraps, Marks int
}

// PadStats counts bundles and scraps reachable from the pad's root bundle,
// and the distinct marks they reference.
func (a *App) PadStats(pad rdf.Term) (Stats, error) {
	p, err := a.dmi.Pad(pad)
	if err != nil {
		return Stats{}, err
	}
	root, ok := p.RootBundle()
	if !ok {
		return Stats{}, nil
	}
	var st Stats
	markSet := map[string]bool{}
	var walk func(id rdf.Term) error
	walk = func(id rdf.Term) error {
		b, err := a.dmi.Bundle(id)
		if err != nil {
			return err
		}
		st.Bundles++
		for _, sid := range b.Scraps() {
			s, err := a.dmi.Scrap(sid)
			if err != nil {
				return err
			}
			st.Scraps++
			for _, h := range s.MarkHandles() {
				markSet[h.MarkID()] = true
			}
		}
		for _, nid := range b.NestedBundles() {
			if err := walk(nid); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return Stats{}, err
	}
	st.Marks = len(markSet)
	return st, nil
}

// Check validates the pad store against the Bundle-Scrap model, plus the
// cross-component invariant that every mark handle's mark id is known to
// the Mark Manager.
func (a *App) Check() ([]string, error) {
	vios, err := a.dmi.Check()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, v := range vios {
		out = append(out, v.String())
	}
	for _, t := range a.dmi.Store().Trim().Select(rdf.P(rdf.Zero, metamodel.PropMarkID, rdf.Zero)) {
		if _, err := a.marks.Mark(t.Object.Value()); err != nil {
			out = append(out, fmt.Sprintf("dangling-mark: %s references unknown mark %q", t.Subject.Value(), t.Object.Value()))
		}
	}
	sort.Strings(out)
	return out, nil
}
