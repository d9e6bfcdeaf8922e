package slimpad

import (
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/metamodel"
	"repro/internal/rdf"
	"repro/internal/slim"
	"repro/internal/trim"
)

// Query capabilities, the §6 direction "augmenting such interfaces with
// query capabilities, in addition to the current navigational access."
//
// A find answers from TRIM's predicate index rather than by reading every
// instance: one filtered select over the label connector keeps the triples
// whose value contains the needle, and only their subjects are read
// through the DMI.

// FindScraps returns the scraps whose label contains the needle
// (case-insensitive), sorted by id. It costs one predicate-bucket scan
// plus one DMI read per hit. The empty needle lists every scrap, labelled
// or not.
func (d *DMI) FindScraps(needle string) ([]Scrap, error) {
	low := strings.ToLower(needle)
	objs, err := d.find(metamodel.ConstructScrap, metamodel.ConnScrapName, low)
	if err != nil {
		return nil, err
	}
	var out []Scrap
	for _, o := range objs {
		s, err := d.scrapOf(o)
		if err != nil {
			return nil, err
		}
		if containsFold(s.ScrapName(), low) {
			out = append(out, s)
		}
	}
	return out, nil
}

// FindBundles returns the bundles whose label contains the needle
// (case-insensitive), sorted by id. It costs one predicate-bucket scan
// plus one DMI read per hit. The empty needle lists every bundle,
// labelled or not.
func (d *DMI) FindBundles(needle string) ([]Bundle, error) {
	low := strings.ToLower(needle)
	objs, err := d.find(metamodel.ConstructBundle, metamodel.ConnBundleName, low)
	if err != nil {
		return nil, err
	}
	var out []Bundle
	for _, o := range objs {
		b := bundleView{o}
		if containsFold(b.BundleName(), low) {
			out = append(out, b)
		}
	}
	return out, nil
}

// ScrapsWithNote returns scraps carrying a note containing the needle
// (case-insensitive), sorted by id. It costs one predicate-bucket scan
// plus one DMI read per hit; the empty needle reads every scrap.
func (d *DMI) ScrapsWithNote(needle string) ([]Scrap, error) {
	low := strings.ToLower(needle)
	objs, err := d.find(metamodel.ConstructScrap, metamodel.ConnScrapNote, low)
	if err != nil {
		return nil, err
	}
	var out []Scrap
	for _, o := range objs {
		s, err := d.scrapOf(o)
		if err != nil {
			return nil, err
		}
		for _, n := range o.All(metamodel.ConnScrapNote) {
			if containsFold(n.Value(), low) {
				out = append(out, s)
				break
			}
		}
	}
	return out, nil
}

// find returns, sorted by id and read once each, the instances of the
// construct (or of a specialization, as InstancesOf lists them) holding a
// connector value that contains low, a lowered needle. Callers confirm
// each with their own predicate on the instance, so multi-valued or
// non-conforming values answer as a full scan would. The empty needle
// lists every instance: it also matches those with no value at all.
func (d *DMI) find(construct, connector, low string) ([]*slim.Object, error) {
	if low == "" {
		return d.g.InstancesOf(construct)
	}
	types, err := d.g.InstanceTypes(construct)
	if err != nil {
		return nil, err
	}
	tr := d.store.Trim()
	hits := tr.SelectFiltered(rdf.P(rdf.Zero, rdf.IRI(connector), rdf.Zero), func(t rdf.Triple) bool {
		return containsFold(t.Object.Value(), low)
	})
	var out []*slim.Object
	for i, t := range hits {
		// Sorted triples put a subject's values side by side.
		if i > 0 && hits[i-1].Subject == t.Subject {
			continue
		}
		if !typedAs(tr, t.Subject, types) {
			continue
		}
		o, err := d.g.Get(t.Subject)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// typedAs reports whether the subject carries an rdf:type among types.
func typedAs(tr *trim.Manager, subject rdf.Term, types []rdf.Term) bool {
	for _, typ := range types {
		if tr.Has(rdf.T(subject, rdf.RDFType, typ)) {
			return true
		}
	}
	return false
}

// containsFold reports whether haystack contains a needle regardless of
// case, given lowNeedle = strings.ToLower(needle): the answer of
// strings.Contains(strings.ToLower(haystack), lowNeedle). ASCII haystacks
// are compared byte by byte without allocating. When either side holds a
// byte ≥ 0x80 the haystack is lowered in full, because Unicode lowering
// can turn a non-ASCII rune into ASCII (U+212A KELVIN SIGN becomes 'k')
// or change its length (U+0130).
func containsFold(haystack, lowNeedle string) bool {
	if !isASCII(haystack) || !isASCII(lowNeedle) {
		return strings.Contains(strings.ToLower(haystack), lowNeedle)
	}
	n := len(lowNeedle)
	for i := 0; i+n <= len(haystack); i++ {
		j := 0
		for j < n && lowerASCII(haystack[i+j]) == lowNeedle[j] {
			j++
		}
		if j == n {
			return true
		}
	}
	return false
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// ScrapsMarking returns the scraps whose marks address the given base
// document — "which of my scraps came from this lab report?" — sorted by
// scrap id.
func (a *App) ScrapsMarking(scheme, file string) ([]Scrap, error) {
	wanted := map[string]bool{}
	for _, m := range a.marks.Marks() {
		if m.Address.Scheme == scheme && m.Address.File == file {
			wanted[m.ID] = true
		}
	}
	var ids []rdf.Term
	for _, t := range a.dmi.Store().Trim().Select(rdf.P(rdf.Zero, metamodel.PropMarkID, rdf.Zero)) {
		if !wanted[t.Object.Value()] {
			continue
		}
		// t.Subject is a MarkHandle; find the scraps holding it.
		ids = append(ids, a.dmi.Store().Trim().Subjects(rdf.IRI(metamodel.ConnScrapMark), t.Subject)...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	var out []Scrap
	seen := map[rdf.Term]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		s, err := a.dmi.Scrap(id)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
