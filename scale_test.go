package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
	"repro/internal/slimpad"
	"repro/internal/trim"
)

// TestScalePadIntegrity builds a pad far larger than any realistic
// worksheet (the §6 note that "some data sets are quite large"), persists
// it, reloads it, and verifies structural integrity end to end. Run with
// -short to skip.
func TestScalePadIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const bundles = 100
	const scrapsPerBundle = 50 // 5,000 scraps total

	d, err := slimpad.NewDMI()
	if err != nil {
		t.Fatal(err)
	}
	pad, _ := d.CreateSlimPad("scale")
	root, _ := d.CreateBundle("root", slimpad.Coordinate{}, 10000, 10000)
	if err := d.SetRootBundle(pad.ID(), root.ID()); err != nil {
		t.Fatal(err)
	}
	for bi := 0; bi < bundles; bi++ {
		b, err := d.CreateBundle(fmt.Sprintf("bundle %d", bi), slimpad.Coordinate{X: bi, Y: bi}, 100, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddNestedBundle(root.ID(), b.ID()); err != nil {
			t.Fatal(err)
		}
		for si := 0; si < scrapsPerBundle; si++ {
			s, err := d.CreateScrap(fmt.Sprintf("scrap %d.%d", bi, si), slimpad.Coordinate{X: si, Y: si}, fmt.Sprintf("mark-%03d-%03d", bi, si))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.AddScrapToBundle(b.ID(), s.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "scale.xml")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pad file: %d triples, %.1f MB", d.Store().Trim().Len(), float64(info.Size())/1e6)

	d2, err := slimpad.NewDMI()
	if err != nil {
		t.Fatal(err)
	}
	pads, err := d2.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 1 {
		t.Fatalf("pads = %d", len(pads))
	}
	rootID, ok := pads[0].RootBundle()
	if !ok {
		t.Fatal("root lost")
	}
	rb, err := d2.Bundle(rootID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.NestedBundles()) != bundles {
		t.Fatalf("nested = %d, want %d", len(rb.NestedBundles()), bundles)
	}
	// Spot-check structure and counts via queries.
	found, err := d2.FindScraps("scrap 42.7")
	if err != nil || len(found) != 1 {
		t.Fatalf("FindScraps = %d, %v", len(found), err)
	}
	if found[0].MarkHandles()[0].MarkID() != "mark-042-007" {
		t.Fatalf("mark id = %q", found[0].MarkHandles()[0].MarkID())
	}
	all, err := d2.FindScraps("scrap ")
	if err != nil || len(all) != bundles*scrapsPerBundle {
		t.Fatalf("total scraps = %d, %v", len(all), err)
	}
	// Views over the large store remain consistent.
	view := d2.Store().Trim().View(rootID)
	if view.Len() == 0 {
		t.Fatal("empty view")
	}
}

// TestScaleCompactStoreParity loads a large graph into the store, whose
// layout is the compact one (interned terms, id triples, posting lists),
// and checks its answers against a reference model: a plain set of the
// same triples, filtered and sorted by brute force.
func TestScaleCompactStoreParity(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	m := trim.NewManager()
	model := make(map[rdf.Triple]struct{})
	for i := 0; i < 50000; i++ {
		x := rdf.T(
			rdf.IRI(fmt.Sprintf("http://s/%d", i%5000)),
			rdf.IRI(fmt.Sprintf("http://p/%d", i%50)),
			rdf.Integer(int64(i)),
		)
		if _, err := m.Create(x); err != nil {
			t.Fatal(err)
		}
		model[x] = struct{}{}
	}
	if m.Len() != len(model) {
		t.Fatalf("len: %d vs model %d", m.Len(), len(model))
	}
	pats := []rdf.Pattern{
		rdf.P(rdf.IRI("http://s/777"), rdf.Zero, rdf.Zero),
		rdf.P(rdf.Zero, rdf.IRI("http://p/7"), rdf.Zero),
		rdf.P(rdf.IRI("http://s/777"), rdf.IRI("http://p/27"), rdf.Zero),
	}
	for _, p := range pats {
		var want []rdf.Triple
		for x := range model {
			if p.Matches(x) {
				want = append(want, x)
			}
		}
		rdf.SortTriples(want)
		got := m.Select(p)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("pattern %v: %d vs model %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pattern %v row %d: %v vs model %v", p, i, got[i], want[i])
			}
		}
		if n := m.Count(p); n != len(want) {
			t.Fatalf("pattern %v: Count %d vs model %d", p, n, len(want))
		}
	}
}
