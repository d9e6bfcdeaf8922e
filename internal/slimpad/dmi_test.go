package slimpad

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func newDMI(t *testing.T) *DMI {
	t.Helper()
	d, err := NewDMI()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateSlimPad(t *testing.T) {
	d := newDMI(t)
	pad, err := d.CreateSlimPad("Rounds")
	if err != nil {
		t.Fatal(err)
	}
	if pad.PadName() != "Rounds" {
		t.Errorf("PadName = %q", pad.PadName())
	}
	if _, ok := pad.RootBundle(); ok {
		t.Error("fresh pad has a root bundle")
	}
}

func TestCreateBundleAndViews(t *testing.T) {
	d := newDMI(t)
	b, err := d.CreateBundle("John Smith", Coordinate{10, 20}, 300, 150)
	if err != nil {
		t.Fatal(err)
	}
	if b.BundleName() != "John Smith" {
		t.Errorf("name = %q", b.BundleName())
	}
	if b.Pos() != (Coordinate{10, 20}) {
		t.Errorf("pos = %v", b.Pos())
	}
	if b.Width() != 300 || b.Height() != 150 {
		t.Errorf("extent = %dx%d", b.Width(), b.Height())
	}
	if len(b.NestedBundles()) != 0 || len(b.Scraps()) != 0 {
		t.Error("fresh bundle not empty")
	}
}

func TestCreateScrapRequiresMark(t *testing.T) {
	d := newDMI(t)
	if _, err := d.CreateScrap("s", Coordinate{0, 0}, ""); err == nil {
		t.Fatal("scrap without mark accepted (Fig. 3 requires 1..*)")
	}
	s, err := d.CreateScrap("K+ 4.1", Coordinate{5, 5}, "mark-000001")
	if err != nil {
		t.Fatal(err)
	}
	hs := s.MarkHandles()
	if len(hs) != 1 || hs[0].MarkID() != "mark-000001" {
		t.Fatalf("handles = %v", hs)
	}
	if s.ScrapName() != "K+ 4.1" || s.Pos() != (Coordinate{5, 5}) {
		t.Errorf("scrap = %q %v", s.ScrapName(), s.Pos())
	}
}

func TestAddScrapMark(t *testing.T) {
	d := newDMI(t)
	s, _ := d.CreateScrap("s", Coordinate{0, 0}, "m1")
	if err := d.AddScrapMark(s.ID(), "m2"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddScrapMark(s.ID(), ""); err == nil {
		t.Fatal("empty mark id accepted")
	}
	got, _ := d.Scrap(s.ID())
	if len(got.MarkHandles()) != 2 {
		t.Fatalf("handles = %d", len(got.MarkHandles()))
	}
}

func TestRootBundleFlow(t *testing.T) {
	d := newDMI(t)
	pad, _ := d.CreateSlimPad("p")
	b, _ := d.CreateBundle("root", Coordinate{0, 0}, 100, 100)
	if err := d.SetRootBundle(pad.ID(), b.ID()); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Pad(pad.ID())
	root, ok := got.RootBundle()
	if !ok || root != b.ID() {
		t.Fatalf("RootBundle = %v, %v", root, ok)
	}
	// Root must be a real bundle.
	if err := d.SetRootBundle(pad.ID(), rdf.IRI("http://ghost")); err == nil {
		t.Fatal("ghost root accepted")
	}
	// Replacing the root is allowed (MaxCard 1, Set semantics).
	b2, _ := d.CreateBundle("root2", Coordinate{0, 0}, 100, 100)
	if err := d.SetRootBundle(pad.ID(), b2.ID()); err != nil {
		t.Fatal(err)
	}
	got, _ = d.Pad(pad.ID())
	root, _ = got.RootBundle()
	if root != b2.ID() {
		t.Fatal("root not replaced")
	}
}

func TestUpdates(t *testing.T) {
	d := newDMI(t)
	pad, _ := d.CreateSlimPad("old")
	if err := d.UpdatePadName(pad.ID(), "new"); err != nil {
		t.Fatal(err)
	}
	p, _ := d.Pad(pad.ID())
	if p.PadName() != "new" {
		t.Error("pad rename failed")
	}
	b, _ := d.CreateBundle("b", Coordinate{0, 0}, 10, 10)
	if err := d.UpdateBundleName(b.ID(), "b2"); err != nil {
		t.Fatal(err)
	}
	if err := d.MoveBundle(b.ID(), Coordinate{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.ResizeBundle(b.ID(), 42, 24); err != nil {
		t.Fatal(err)
	}
	bb, _ := d.Bundle(b.ID())
	if bb.BundleName() != "b2" || bb.Pos() != (Coordinate{7, 8}) || bb.Width() != 42 || bb.Height() != 24 {
		t.Fatalf("bundle after updates = %q %v %dx%d", bb.BundleName(), bb.Pos(), bb.Width(), bb.Height())
	}
	s, _ := d.CreateScrap("s", Coordinate{0, 0}, "m")
	if err := d.RenameScrap(s.ID(), "s2"); err != nil {
		t.Fatal(err)
	}
	if err := d.MoveScrap(s.ID(), Coordinate{3, 4}); err != nil {
		t.Fatal(err)
	}
	ss, _ := d.Scrap(s.ID())
	if ss.ScrapName() != "s2" || ss.Pos() != (Coordinate{3, 4}) {
		t.Fatalf("scrap after updates = %q %v", ss.ScrapName(), ss.Pos())
	}
}

func TestNestingAndCycles(t *testing.T) {
	d := newDMI(t)
	a, _ := d.CreateBundle("a", Coordinate{0, 0}, 10, 10)
	b, _ := d.CreateBundle("b", Coordinate{0, 0}, 10, 10)
	c, _ := d.CreateBundle("c", Coordinate{0, 0}, 10, 10)
	if err := d.AddNestedBundle(a.ID(), b.ID()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNestedBundle(b.ID(), c.ID()); err != nil {
		t.Fatal(err)
	}
	// Self-nesting and cycles are rejected.
	if err := d.AddNestedBundle(a.ID(), a.ID()); err == nil {
		t.Error("self-nesting accepted")
	}
	if err := d.AddNestedBundle(c.ID(), a.ID()); err == nil {
		t.Error("containment cycle accepted")
	}
	got, _ := d.Bundle(a.ID())
	if len(got.NestedBundles()) != 1 {
		t.Fatalf("nested = %d", len(got.NestedBundles()))
	}
}

func TestScrapBundleMembership(t *testing.T) {
	d := newDMI(t)
	b, _ := d.CreateBundle("b", Coordinate{0, 0}, 10, 10)
	s, _ := d.CreateScrap("s", Coordinate{0, 0}, "m")
	if err := d.AddScrapToBundle(b.ID(), s.ID()); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Bundle(b.ID())
	if len(got.Scraps()) != 1 {
		t.Fatal("scrap not in bundle")
	}
	// Rearrangement: remove and put into another bundle.
	b2, _ := d.CreateBundle("b2", Coordinate{0, 0}, 10, 10)
	if err := d.RemoveScrapFromBundle(b.ID(), s.ID()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddScrapToBundle(b2.ID(), s.ID()); err != nil {
		t.Fatal(err)
	}
	got, _ = d.Bundle(b.ID())
	got2, _ := d.Bundle(b2.ID())
	if len(got.Scraps()) != 0 || len(got2.Scraps()) != 1 {
		t.Fatal("rearrangement failed")
	}
	if err := d.RemoveScrapFromBundle(b.ID(), s.ID()); err == nil {
		t.Fatal("removing absent scrap succeeded")
	}
}

func TestDeleteScrapRemovesHandles(t *testing.T) {
	d := newDMI(t)
	b, _ := d.CreateBundle("b", Coordinate{0, 0}, 10, 10)
	s, _ := d.CreateScrap("s", Coordinate{0, 0}, "m")
	d.AddScrapToBundle(b.ID(), s.ID())
	handleID := s.MarkHandles()[0].ID()
	if err := d.DeleteScrap(s.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Scrap(s.ID()); err == nil {
		t.Fatal("scrap survives delete")
	}
	// The handle went with it.
	if d.Store().Trim().Count(rdf.P(handleID, rdf.Zero, rdf.Zero)) != 0 {
		t.Fatal("orphaned mark handle")
	}
	// The bundle no longer references it.
	got, _ := d.Bundle(b.ID())
	if len(got.Scraps()) != 0 {
		t.Fatal("dangling bundleContent")
	}
}

func TestDeleteBundleCascade(t *testing.T) {
	d := newDMI(t)
	parent, _ := d.CreateBundle("parent", Coordinate{0, 0}, 10, 10)
	child, _ := d.CreateBundle("child", Coordinate{0, 0}, 10, 10)
	s, _ := d.CreateScrap("s", Coordinate{0, 0}, "m")
	d.AddNestedBundle(parent.ID(), child.ID())
	d.AddScrapToBundle(child.ID(), s.ID())
	if err := d.DeleteBundle(parent.ID(), true); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []rdf.Term{parent.ID(), child.ID(), s.ID()} {
		if d.Store().Trim().Count(rdf.P(gone, rdf.Zero, rdf.Zero)) != 0 {
			t.Errorf("%s survived cascade", gone.Value())
		}
	}
}

func TestTypeMismatchAccessors(t *testing.T) {
	d := newDMI(t)
	pad, _ := d.CreateSlimPad("p")
	b, _ := d.CreateBundle("b", Coordinate{0, 0}, 10, 10)
	if _, err := d.Bundle(pad.ID()); err == nil {
		t.Error("Bundle(pad) succeeded")
	}
	if _, err := d.Pad(b.ID()); err == nil {
		t.Error("Pad(bundle) succeeded")
	}
	if _, err := d.Scrap(b.ID()); err == nil {
		t.Error("Scrap(bundle) succeeded")
	}
}

func TestPadsBundlesListing(t *testing.T) {
	d := newDMI(t)
	d.CreateSlimPad("p1")
	d.CreateSlimPad("p2")
	d.CreateBundle("b", Coordinate{0, 0}, 1, 1)
	pads, err := d.Pads()
	if err != nil || len(pads) != 2 {
		t.Fatalf("Pads = %d, %v", len(pads), err)
	}
	bundles, err := d.Bundles()
	if err != nil || len(bundles) != 1 {
		t.Fatalf("Bundles = %d, %v", len(bundles), err)
	}
}

func TestConformanceOfWellFormedPad(t *testing.T) {
	d := newDMI(t)
	pad, _ := d.CreateSlimPad("Rounds")
	b, _ := d.CreateBundle("root", Coordinate{0, 0}, 800, 600)
	d.SetRootBundle(pad.ID(), b.ID())
	s, _ := d.CreateScrap("K+ 4.1", Coordinate{10, 10}, "mark-000001")
	d.AddScrapToBundle(b.ID(), s.ID())
	vios, err := d.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 0 {
		t.Fatalf("well-formed pad has violations: %v", vios)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := newDMI(t)
	pad, _ := d.CreateSlimPad("Rounds")
	b, _ := d.CreateBundle("John Smith", Coordinate{16, 24}, 300, 180)
	d.SetRootBundle(pad.ID(), b.ID())
	s, _ := d.CreateScrap("Furosemide", Coordinate{20, 30}, "mark-000042")
	d.AddScrapToBundle(b.ID(), s.ID())

	path := filepath.Join(t.TempDir(), "rounds.xml")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}

	d2 := newDMI(t)
	pads, err := d2.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 1 || pads[0].PadName() != "Rounds" {
		t.Fatalf("loaded pads = %v", pads)
	}
	root, ok := pads[0].RootBundle()
	if !ok {
		t.Fatal("root bundle lost")
	}
	rb, err := d2.Bundle(root)
	if err != nil {
		t.Fatal(err)
	}
	if rb.BundleName() != "John Smith" || rb.Pos() != (Coordinate{16, 24}) {
		t.Fatalf("bundle = %q %v", rb.BundleName(), rb.Pos())
	}
	scraps := rb.Scraps()
	if len(scraps) != 1 {
		t.Fatal("scrap lost")
	}
	sc, err := d2.Scrap(scraps[0])
	if err != nil {
		t.Fatal(err)
	}
	if sc.ScrapName() != "Furosemide" || sc.MarkHandles()[0].MarkID() != "mark-000042" {
		t.Fatalf("scrap = %q %v", sc.ScrapName(), sc.MarkHandles())
	}
	// New creations after load mint fresh ids.
	nb, err := d2.CreateBundle("new", Coordinate{0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nb.ID() == b.ID() {
		t.Fatal("id collision after load")
	}
}

func TestLoadMissingFile(t *testing.T) {
	d := newDMI(t)
	if _, err := d.Load(filepath.Join(t.TempDir(), "absent.xml")); err == nil {
		t.Fatal("load of missing file succeeded")
	}
}

func TestCoordinateRoundTrip(t *testing.T) {
	cases := []Coordinate{{0, 0}, {10, 20}, {-5, 7}}
	for _, c := range cases {
		back, err := ParseCoordinate(c.String())
		if err != nil || back != c {
			t.Errorf("round trip %v = %v, %v", c, back, err)
		}
	}
	for _, bad := range []string{"", "5", "a,b", "1,b", "a,2"} {
		if _, err := ParseCoordinate(bad); err == nil {
			t.Errorf("ParseCoordinate(%q) succeeded", bad)
		}
	}
	// Whitespace tolerated.
	if c, err := ParseCoordinate(" 3 , 4 "); err != nil || c != (Coordinate{3, 4}) {
		t.Errorf("whitespace parse = %v, %v", c, err)
	}
}

func TestScrapLabelMayDifferFromContent(t *testing.T) {
	// §3: "a scrap's label and its mark's content may differ."
	d := newDMI(t)
	s, err := d.CreateScrap("my own label", Coordinate{0, 0}, "mark-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.ScrapName(), "my own label") {
		t.Fatal("label not stored verbatim")
	}
}

// TestScrapReadAllocations guards a scrap read: the Get's four
// allocations (two spans, the subject select's result, the Object) and
// the view, which holds a one-mark scrap's handle itself. Walking the
// scrapMark values, resolving the handle's mark id and returning the view
// allocate nothing more, and MarkHandles still answers.
func TestScrapReadAllocations(t *testing.T) {
	d := newDMI(t)
	s, err := d.CreateScrap("Na 140", Coordinate{1, 2}, "mark-000001")
	if err != nil {
		t.Fatal(err)
	}
	const want = 5
	got := testing.AllocsPerRun(100, func() {
		if _, err := d.Scrap(s.ID()); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("a one-mark scrap read allocates %v times, want at most %d", got, want)
	}
	read, err := d.Scrap(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if hs := read.MarkHandles(); len(hs) != 1 || hs[0].MarkID() != "mark-000001" {
		t.Fatalf("MarkHandles = %v", hs)
	}
}
