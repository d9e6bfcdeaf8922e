package slimpad

import (
	"repro/internal/metamodel"
	"repro/internal/rdf"
	"repro/internal/slim"
)

// Application data is presented to SLIMPad as read-only interfaces, exactly
// as Fig. 10 prescribes: "Only the interfaces are presented to SLIMPad,
// which allows the DMI to guarantee consistency between the triple
// representation and the application data." Each accessor re-reads from the
// snapshot taken when the object was fetched; mutation goes through the DMI.

// SlimPad is the read-only view of a pad: the top-level object designating
// a root bundle.
type SlimPad interface {
	// ID returns the pad's instance IRI.
	ID() rdf.Term
	// PadName returns the pad's name.
	PadName() string
	// RootBundle returns the root bundle's id, if one is designated.
	RootBundle() (rdf.Term, bool)
}

// Bundle is the read-only view of a bundle: a labeled, positioned container
// of scraps and nested bundles.
type Bundle interface {
	// ID returns the bundle's instance IRI.
	ID() rdf.Term
	// BundleName returns the label.
	BundleName() string
	// Pos returns the 2D position.
	Pos() Coordinate
	// Width and Height return the extent.
	Width() int
	Height() int
	// NestedBundles returns ids of directly nested bundles.
	NestedBundles() []rdf.Term
	// Scraps returns ids of directly contained scraps.
	Scraps() []rdf.Term
}

// Scrap is the read-only view of a scrap: a labeled, positioned information
// element holding one or more mark handles.
type Scrap interface {
	// ID returns the scrap's instance IRI.
	ID() rdf.Term
	// ScrapName returns the label (which may differ from the marked
	// content, §3).
	ScrapName() string
	// Pos returns the 2D position.
	Pos() Coordinate
	// MarkHandles returns the handles in deterministic order.
	MarkHandles() []MarkHandle
}

// MarkHandle is the read-only view of a mark handle: it carries the mark id
// resolved by the Mark Manager (Fig. 3: "Each MarkHandle references a Mark
// through a unique mark id").
type MarkHandle interface {
	// ID returns the handle's instance IRI.
	ID() rdf.Term
	// MarkID returns the referenced mark's identifier.
	MarkID() string
}

// padView, bundleView, scrapView, handleView implement the read-only
// interfaces over slim.Object snapshots.

type padView struct{ obj *slim.Object }

func (p padView) ID() rdf.Term    { return p.obj.ID }
func (p padView) PadName() string { return p.obj.GetString(metamodel.ConnPadName) }
func (p padView) RootBundle() (rdf.Term, bool) {
	v, err := p.obj.Get(metamodel.ConnRootBundle)
	if err != nil {
		return rdf.Zero, false
	}
	return v, true
}

type bundleView struct{ obj *slim.Object }

func (b bundleView) ID() rdf.Term       { return b.obj.ID }
func (b bundleView) BundleName() string { return b.obj.GetString(metamodel.ConnBundleName) }
func (b bundleView) Pos() Coordinate {
	c, _ := ParseCoordinate(b.obj.GetString(metamodel.ConnBundlePos))
	return c
}
func (b bundleView) Width() int  { return int(b.obj.GetInt(metamodel.ConnBundleWidth)) }
func (b bundleView) Height() int { return int(b.obj.GetInt(metamodel.ConnBundleHeight)) }
func (b bundleView) NestedBundles() []rdf.Term {
	return b.obj.All(metamodel.ConnNestedBundle)
}
func (b bundleView) Scraps() []rdf.Term {
	return b.obj.All(metamodel.ConnBundleContent)
}

// scrapView is handed out as a pointer, so a scrap read boxes nothing:
// the view is one allocation, holding a scrap's only handle itself (every
// scrap has at least one) and any further handles in more.
type scrapView struct {
	obj   *slim.Object
	first handleView
	more  []handleView // boxed only when MarkHandles copies them out
	n     int          // handles held: 0, or 1 + len(more)
}

// add appends the scrap's next handle.
func (s *scrapView) add(h handleView) {
	if s.n == 0 {
		s.first = h
	} else {
		s.more = append(s.more, h)
	}
	s.n++
}

func (s *scrapView) ID() rdf.Term      { return s.obj.ID }
func (s *scrapView) ScrapName() string { return s.obj.GetString(metamodel.ConnScrapName) }
func (s *scrapView) Pos() Coordinate {
	c, _ := ParseCoordinate(s.obj.GetString(metamodel.ConnScrapPos))
	return c
}
func (s *scrapView) MarkHandles() []MarkHandle {
	if s.n == 0 {
		return nil
	}
	out := make([]MarkHandle, 0, s.n)
	out = append(out, s.first)
	for _, h := range s.more {
		out = append(out, h)
	}
	return out
}

type handleView struct {
	id     rdf.Term
	markID string
}

func (h handleView) ID() rdf.Term   { return h.id }
func (h handleView) MarkID() string { return h.markID }
