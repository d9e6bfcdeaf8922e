package slimpad

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metamodel"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// The reference model for the index-backed finds: the full scans they
// replaced, which read every instance and test its label with the plain
// lower-then-contains expression.

func refContainsFold(haystack, needle string) bool {
	return strings.Contains(strings.ToLower(haystack), strings.ToLower(needle))
}

func refFindScrapsBy(d *DMI, pred func(Scrap) bool) ([]Scrap, error) {
	objs, err := d.g.InstancesOf(metamodel.ConstructScrap)
	if err != nil {
		return nil, err
	}
	var out []Scrap
	for _, o := range objs {
		s, err := d.Scrap(o.ID)
		if err != nil {
			return nil, err
		}
		if pred(s) {
			out = append(out, s)
		}
	}
	return out, nil
}

func refFindScraps(d *DMI, needle string) ([]Scrap, error) {
	return refFindScrapsBy(d, func(s Scrap) bool {
		return refContainsFold(s.ScrapName(), needle)
	})
}

func refScrapsWithNote(d *DMI, needle string) ([]Scrap, error) {
	return refFindScrapsBy(d, func(s Scrap) bool {
		notes, err := d.ScrapNotes(s.ID())
		if err != nil {
			return false
		}
		for _, n := range notes {
			if refContainsFold(n, needle) {
				return true
			}
		}
		return false
	})
}

func refFindBundles(d *DMI, needle string) ([]Bundle, error) {
	objs, err := d.g.InstancesOf(metamodel.ConstructBundle)
	if err != nil {
		return nil, err
	}
	var out []Bundle
	for _, o := range objs {
		b := bundleView{o}
		if refContainsFold(b.BundleName(), needle) {
			out = append(out, b)
		}
	}
	return out, nil
}

// checkFindsAgree runs the three finds and their references for every
// needle and fails on any difference in ids, labels or order.
func checkFindsAgree(t *testing.T, d *DMI, needles []string) {
	t.Helper()
	for _, n := range needles {
		got, err := d.FindScraps(n)
		want, werr := refFindScraps(d, n)
		if err != nil || werr != nil {
			t.Fatalf("FindScraps(%q): %v; reference: %v", n, err, werr)
		}
		if g, w := scrapKeys(got), scrapKeys(want); g != w {
			t.Errorf("FindScraps(%q) = %s, want %s", n, g, w)
		}
		got, err = d.ScrapsWithNote(n)
		want, werr = refScrapsWithNote(d, n)
		if err != nil || werr != nil {
			t.Fatalf("ScrapsWithNote(%q): %v; reference: %v", n, err, werr)
		}
		if g, w := scrapKeys(got), scrapKeys(want); g != w {
			t.Errorf("ScrapsWithNote(%q) = %s, want %s", n, g, w)
		}
		gotB, err := d.FindBundles(n)
		wantB, werr := refFindBundles(d, n)
		if err != nil || werr != nil {
			t.Fatalf("FindBundles(%q): %v; reference: %v", n, err, werr)
		}
		if g, w := bundleKeys(gotB), bundleKeys(wantB); g != w {
			t.Errorf("FindBundles(%q) = %s, want %s", n, g, w)
		}
	}
}

func scrapKeys(ss []Scrap) string {
	var b strings.Builder
	for _, s := range ss {
		fmt.Fprintf(&b, "%s=%q", s.ID().Value(), s.ScrapName())
		for _, h := range s.MarkHandles() {
			fmt.Fprintf(&b, "+%s", h.MarkID())
		}
		b.WriteByte(' ')
	}
	return b.String()
}

func bundleKeys(bs []Bundle) string {
	var b strings.Builder
	for _, x := range bs {
		fmt.Fprintf(&b, "%s=%q ", x.ID().Value(), x.BundleName())
	}
	return b.String()
}

// labelParts mixes case, non-ASCII runes whose lowercase is ASCII (U+212A
// KELVIN SIGN) or longer than the rune (U+0130), and plain lab codes.
var labelParts = []string{
	"Na", "K+", "KELVIN", "\u212Aelvin", "kelvin", "\u0130stanbul", "istanbul",
	"Creatinine", "CREAT", "gluc", "\u00c5NGSTR\u00d6M", "\u00e5ngstr\u00f6m", "x", "",
}

var findNeedles = []string{
	"", " ", "na", "NA", "k", "K", "kelvin", "\u212A", "i", "i\u0307", "\u0130",
	"creat", "Gluc", "\u00e5ngstr\u00f6m", "\u00c5NG", "zzz", "+", "x",
}

func randomLabel(rng *rand.Rand) string {
	if rng.Intn(8) == 0 {
		return labelParts[rng.Intn(len(labelParts))]
	}
	return labelParts[rng.Intn(len(labelParts))] + " " + labelParts[rng.Intn(len(labelParts))]
}

// TestFindsMatchFullScan builds seeded random pads through the DMI —
// creating, renaming, deleting and annotating scraps and bundles — and
// checks after every few operations that the index-backed finds answer
// exactly as the full scans.
func TestFindsMatchFullScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := newDMI(t)
			var scraps, bundles []rdf.Term
			notes := map[rdf.Term][]string{}
			for i := 0; i < 120; i++ {
				switch op := rng.Intn(8); {
				case op < 3 || len(scraps) == 0:
					s, err := d.CreateScrap(randomLabel(rng), Coordinate{i, 0}, fmt.Sprintf("m%d", i))
					if err != nil {
						t.Fatal(err)
					}
					scraps = append(scraps, s.ID())
				case op == 3:
					b, err := d.CreateBundle(randomLabel(rng), Coordinate{0, i}, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					bundles = append(bundles, b.ID())
				case op == 4:
					if err := d.RenameScrap(scraps[rng.Intn(len(scraps))], randomLabel(rng)); err != nil {
						t.Fatal(err)
					}
				case op == 5:
					k := rng.Intn(len(scraps))
					if err := d.DeleteScrap(scraps[k]); err != nil {
						t.Fatal(err)
					}
					delete(notes, scraps[k])
					scraps = append(scraps[:k], scraps[k+1:]...)
				case op == 6:
					s := scraps[rng.Intn(len(scraps))]
					note := randomLabel(rng) + " note"
					if err := d.AnnotateScrap(s, note); err != nil {
						t.Fatal(err)
					}
					notes[s] = append(notes[s], note)
				default:
					if len(bundles) > 0 {
						if err := d.UpdateBundleName(bundles[rng.Intn(len(bundles))], randomLabel(rng)); err != nil {
							t.Fatal(err)
						}
					}
					for s, ns := range notes {
						if err := d.RemoveScrapNote(s, ns[0]); err != nil {
							t.Fatal(err)
						}
						if notes[s] = ns[1:]; len(notes[s]) == 0 {
							delete(notes, s)
						}
						break
					}
				}
				if i%20 == 19 {
					checkFindsAgree(t, d, findNeedles)
				}
			}
		})
	}
}

// TestFindsRawStoreEdgeCases writes labels straight into TRIM, past the
// DMI's checks, and checks the finds still answer as the full scans: a
// scrap with no label (it matches only the empty needle), a scrap with two
// labels (its ScrapName is empty, so it matches only the empty needle), a
// label on a subject that is not a scrap, and non-ASCII and mixed-case
// labels.
func TestFindsRawStoreEdgeCases(t *testing.T) {
	d := newDMI(t)
	tr := d.Store().Trim()
	name := rdf.IRI(metamodel.ConnScrapName)
	note := rdf.IRI(metamodel.ConnScrapNote)
	mustCreate := func(x rdf.Triple) {
		t.Helper()
		if _, err := tr.Create(x); err != nil {
			t.Fatal(err)
		}
	}

	scrap := func(label, mark string) rdf.Term {
		t.Helper()
		s, err := d.CreateScrap(label, Coordinate{}, mark)
		if err != nil {
			t.Fatal(err)
		}
		return s.ID()
	}
	bundleNamed := func(label string) rdf.Term {
		t.Helper()
		b, err := d.CreateBundle(label, Coordinate{}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return b.ID()
	}

	plain := scrap("Lab Sodium", "m1")
	unlabelled := scrap("Lab unlabelled", "m2")
	tr.RemoveMatching(rdf.P(unlabelled, name, rdf.Zero))
	twice := scrap("Lab first", "m3")
	mustCreate(rdf.T(twice, name, rdf.String("Lab second")))
	kelvin := scrap("lab \u212A 4.1", "m4")
	dotted := scrap("LAB \u0130NR", "m5")
	bundle := bundleNamed("Lab bundle")
	unlabelledBundle := bundleNamed("Lab bare")
	tr.RemoveMatching(rdf.P(unlabelledBundle, rdf.IRI(metamodel.ConnBundleName), rdf.Zero))

	// A scrap label on a bundle and on an untyped subject.
	mustCreate(rdf.T(bundle, name, rdf.String("Lab on a bundle")))
	stray := rdf.IRI("http://example.org/stray")
	mustCreate(rdf.T(stray, name, rdf.String("Lab stray")))
	mustCreate(rdf.T(stray, note, rdf.String("Lab stray note")))
	// A scrap typed by hand with a label and nothing else (no marks: a
	// Fig. 3 MinCard violation a loaded pad can carry).
	bare := rdf.IRI("http://example.org/bare-scrap")
	mustCreate(rdf.T(bare, rdf.RDFType, rdf.IRI(metamodel.ConstructScrap)))
	mustCreate(rdf.T(bare, name, rdf.String("Lab bare scrap")))
	// Notes: two on one scrap, one non-ASCII, one on a bundle.
	mustCreate(rdf.T(plain, note, rdf.String("first NOTE")))
	mustCreate(rdf.T(plain, note, rdf.String("Second note")))
	mustCreate(rdf.T(kelvin, note, rdf.String("\u212Aeep")))
	mustCreate(rdf.T(bundle, note, rdf.String("bundle note")))

	needles := []string{"", "lab", "LAB", "Lab s", "lab second", "k", "\u212A", "keep", "i\u0307", "\u0130nr",
		"note", "first", "bundle", "stray", "bare", "unlabelled", "zzz"}
	checkFindsAgree(t, d, needles)

	// Spot-check the cases the comparison relies on.
	all, err := d.FindScraps("lab")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(all); got != 4 { // plain, kelvin, dotted, bare
		t.Errorf("FindScraps(\"lab\") found %d scraps, want 4: %s", got, scrapKeys(all))
	}
	if got, _ := d.FindScraps("\u0130nr"); len(got) != 1 || got[0].ID() != dotted {
		t.Errorf("FindScraps(\"\\u0130nr\") = %s, want only %s", scrapKeys(got), dotted.Value())
	}
	every, err := d.FindScraps("")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(every); got != 6 { // every scrap-typed subject, labelled or not
		t.Errorf("FindScraps(\"\") found %d scraps, want 6: %s", got, scrapKeys(every))
	}
	bundles, err := d.FindBundles("")
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Errorf("FindBundles(\"\") found %d bundles, want 2 (one has no label)", len(bundles))
	}
}

// TestFindAllocsIndependentOfPadSize is the O(matches) guard: a find
// allocates per hit, not per scrap. A needle matching nothing, and one
// matching the same five scraps, allocate the same on a 50-scrap and a
// 2,000-scrap pad.
func TestFindAllocsIndependentOfPadSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2,000-scrap pad")
	}
	// A find over 2,000 labels may cross the slow-op threshold on a slow
	// host; its slow-ring entry would allocate on one pad and not the other.
	prev := obs.DefaultTracer.SlowThreshold()
	obs.DefaultTracer.SetSlowThreshold(0)
	defer obs.DefaultTracer.SetSlowThreshold(prev)

	pad := func(n int) *DMI {
		d := newDMI(t)
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("scrap %04d", i)
			if i < 5 {
				label = fmt.Sprintf("Needle %d", i)
			}
			if _, err := d.CreateScrap(label, Coordinate{i, 0}, fmt.Sprintf("m%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	small, large := pad(50), pad(2000)
	for _, tc := range []struct {
		needle string
		hits   int
	}{{"no such label", 0}, {"needle", 5}} {
		allocs := func(d *DMI) float64 {
			return testing.AllocsPerRun(20, func() {
				got, err := d.FindScraps(tc.needle)
				if err != nil || len(got) != tc.hits {
					t.Fatalf("FindScraps(%q) = %d scraps, %v; want %d", tc.needle, len(got), err, tc.hits)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		if b-a > 2 || a-b > 2 {
			t.Errorf("FindScraps(%q) allocates %.0f on 50 scraps and %.0f on 2,000; want the same (±2)", tc.needle, a, b)
		}
	}
}

// FuzzContainsFold checks the allocation-free containsFold against the
// expression it replaced, strings.Contains over both sides lowered.
func FuzzContainsFold(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"abc", ""}, {"", "a"}, {"Sodium 140", "SOD"}, {"sodium", "Sodium"},
		{"\u212Aelvin", "k"}, {"kelvin", "\u212A"}, {"\u212A", "K"}, {"\u212A", "\u212A"},
		{"\u0130stanbul", "i\u0307"}, {"\u0130stanbul", "\u0130"}, {"istanbul", "\u0130"},
		{"\u00c5NGSTR\u00d6M", "str\u00f6m"}, {"MiXeD CaSe", "xed c"}, {"abc", "abcd"}, {"\xff\xfe", "\xff"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, haystack, needle string) {
		want := strings.Contains(strings.ToLower(haystack), strings.ToLower(needle))
		if got := containsFold(haystack, strings.ToLower(needle)); got != want {
			t.Errorf("containsFold(%q, lower(%q)) = %v, want %v", haystack, needle, got, want)
		}
	})
}

// TestContainsFoldASCIIDoesNotAllocate pins the fast path: an ASCII label
// is tested against a lowered needle without allocating.
func TestContainsFoldASCIIDoesNotAllocate(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		if !containsFold("Serum SODIUM 140 mmol/L", "sodium") {
			t.Fatal("no match")
		}
	})
	if n != 0 {
		t.Errorf("containsFold allocates %.0f times per ASCII call, want 0", n)
	}
}
