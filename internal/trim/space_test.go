package trim

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/rdf"
)

// recomputeStrings is the brute-force truth the accountant is checked
// against: walk a graph snapshot and sum string bytes with independent
// bookkeeping (no index or cardinality state involved).
func recomputeStrings(g *rdf.Graph) (total, unique int64, uniqueTerms int) {
	seen := make(map[rdf.Term]struct{})
	g.Each(func(t rdf.Triple) bool {
		for _, term := range [3]rdf.Term{t.Subject, t.Predicate, t.Object} {
			b := termStringBytes(term)
			total += b
			if _, ok := seen[term]; !ok {
				seen[term] = struct{}{}
				unique += b
			}
		}
		return true
	})
	return total, unique, len(seen)
}

// checkSpaceTruth asserts the accountant's exact figures against the
// brute-force recompute and its internal arithmetic against itself.
func checkSpaceTruth(t *testing.T, m *Manager, step string) {
	t.Helper()
	s := m.Space()
	total, unique, uniqueTerms := recomputeStrings(m.Snapshot())
	if s.TotalStringBytes != total {
		t.Errorf("%s: TotalStringBytes = %d, recompute = %d", step, s.TotalStringBytes, total)
	}
	if s.UniqueStringBytes != unique {
		t.Errorf("%s: UniqueStringBytes = %d, recompute = %d", step, s.UniqueStringBytes, unique)
	}
	if s.UniqueTerms != uniqueTerms {
		t.Errorf("%s: UniqueTerms = %d, recompute = %d", step, s.UniqueTerms, uniqueTerms)
	}
	if got := s.Subject.TotalBytes + s.Predicate.TotalBytes + s.Object.TotalBytes; got != total {
		t.Errorf("%s: per-position totals sum to %d, want %d", step, got, total)
	}
	if s.Triples != m.Len() {
		t.Errorf("%s: Triples = %d, store has %d", step, s.Triples, m.Len())
	}
	if s.Subject.Refs != s.Triples || s.Predicate.Refs != s.Triples || s.Object.Refs != s.Triples {
		t.Errorf("%s: position refs %d/%d/%d, want %d each",
			step, s.Subject.Refs, s.Predicate.Refs, s.Object.Refs, s.Triples)
	}
	var perPred int64
	for _, ps := range s.Predicates {
		perPred += ps.TotalBytes
	}
	if perPred != total {
		t.Errorf("%s: predicate attribution sums to %d, want %d", step, perPred, total)
	}
	for _, ix := range s.Indexes {
		if ix.Entries != s.Triples {
			t.Errorf("%s: index %s has %d entries, want %d", step, ix.Name, ix.Entries, s.Triples)
		}
	}
	if unique > 0 {
		want := float64(total) / float64(unique)
		if math.Abs(s.DuplicationRatio-want) > 1e-9 {
			t.Errorf("%s: DuplicationRatio = %v, want %v", step, s.DuplicationRatio, want)
		}
	} else if s.DuplicationRatio != 0 {
		t.Errorf("%s: DuplicationRatio = %v on empty store", step, s.DuplicationRatio)
	}
	if got := s.DictionaryBytes + s.TripleBytes + s.IndexOverheadBytes + s.CardOverheadBytes; got != s.EstimatedBytes {
		t.Errorf("%s: EstimatedBytes = %d, layout components sum to %d", step, s.EstimatedBytes, got)
	}
}

// TestSpaceTruthAcrossMutations is the satellite contract: every mutation
// path — create, remove, batch, Replace, Clear — keeps the reported
// string-byte figures exactly equal to a brute-force recompute of the
// live graph.
func TestSpaceTruthAcrossMutations(t *testing.T) {
	m := NewManager()
	checkSpaceTruth(t, m, "empty")

	populate(m, 40)
	checkSpaceTruth(t, m, "create")

	m.Remove(rdf.T(rdf.IRI("http://t/s0"), rdf.IRI("http://t/p0"), rdf.String("v0")))
	m.RemoveMatching(rdf.P(rdf.IRI("http://t/s1"), rdf.Zero, rdf.Zero))
	checkSpaceTruth(t, m, "remove")

	b := m.NewBatch()
	if err := b.Create(tr("bs", "bp", "bv")); err != nil {
		t.Fatalf("batch create: %v", err)
	}
	if err := b.Remove(tr("s2", "p2", "v2")); err != nil {
		t.Fatalf("batch remove: %v", err)
	}
	if err := b.Apply(); err != nil {
		t.Fatalf("batch apply: %v", err)
	}
	checkSpaceTruth(t, m, "batch")

	if err := m.SetUnique(rdf.IRI("http://t/s3"), rdf.IRI("http://t/p3"), rdf.String("replacement")); err != nil {
		t.Fatalf("SetUnique: %v", err)
	}
	checkSpaceTruth(t, m, "setunique")

	g := rdf.NewGraph()
	g.Add(tr("r1", "rp", "shared value"))
	g.Add(tr("r2", "rp", "shared value"))
	m.Replace(g)
	checkSpaceTruth(t, m, "replace")

	m.Clear()
	checkSpaceTruth(t, m, "clear")
}

// TestSpaceDuplicationAndInterning pins the headline semantics on a
// store built to share strings: the duplication ratio reflects the
// sharing, the unique roll-up dedupes across positions, and the layout's
// components account for the whole estimate.
func TestSpaceDuplicationAndInterning(t *testing.T) {
	m := NewManager()
	// One predicate and one object shared by every triple; subjects unique.
	for i := 0; i < 32; i++ {
		m.Create(link("subject-with-a-long-iri-"+string(rune('a'+i)), "sharedPredicate", "sharedObject"))
	}
	s := m.Space()
	if s.DuplicationRatio <= 1 {
		t.Fatalf("DuplicationRatio = %v, want > 1 on a string-sharing store", s.DuplicationRatio)
	}
	if s.Predicate.Unique != 1 || s.Object.Unique != 1 {
		t.Fatalf("unique predicate/object = %d/%d, want 1/1", s.Predicate.Unique, s.Object.Unique)
	}
	// The shared object also appears nowhere else, so the global unique
	// set is subjects + predicate + object.
	if want := s.Subject.Unique + 2; s.UniqueTerms != want {
		t.Fatalf("UniqueTerms = %d, want %d", s.UniqueTerms, want)
	}
	if got := s.DictionaryBytes + s.TripleBytes + s.IndexOverheadBytes + s.CardOverheadBytes; got != s.EstimatedBytes {
		t.Fatalf("EstimatedBytes = %d, layout components sum to %d", s.EstimatedBytes, got)
	}
	if s.BytesPerTriple <= 0 {
		t.Fatalf("BytesPerTriple = %v, want > 0", s.BytesPerTriple)
	}
	// A term dedupes across positions: reuse a subject IRI as an object.
	m.Create(link("x", "sharedPredicate", "subject-with-a-long-iri-a"))
	s = m.Space()
	if posSum := s.Subject.UniqueBytes + s.Predicate.UniqueBytes + s.Object.UniqueBytes; s.UniqueStringBytes >= posSum {
		t.Fatalf("UniqueStringBytes = %d, want < per-position sum %d after cross-position reuse",
			s.UniqueStringBytes, posSum)
	}
}

// TestStatsCarriesSpace pins the Stats().Space wiring: the same locked
// pass fills the deep report, consistent with the classic ApproxBytes
// text proxy (value+datatype bytes of the object only differ by the
// subject/predicate datatype bytes, which are zero for resources).
func TestStatsCarriesSpace(t *testing.T) {
	m := NewManager()
	populate(m, 25)
	st := m.Stats()
	if st.Space.Triples != st.Triples {
		t.Fatalf("Stats().Space.Triples = %d, want %d", st.Space.Triples, st.Triples)
	}
	if int64(st.ApproxBytes) != st.Space.TotalStringBytes {
		t.Fatalf("ApproxBytes = %d, Space.TotalStringBytes = %d (should agree: subjects and predicates are IRIs with no datatype)",
			st.ApproxBytes, st.Space.TotalStringBytes)
	}
	if st.Space.String() == "" {
		t.Fatal("SpaceStats.String is empty")
	}
}

// TestMapBytesModel pins the estimator's shape: zero for empty maps,
// monotone in entry count, and super-linear past each bucket doubling.
func TestMapBytesModel(t *testing.T) {
	if got := mapBytes(0, tripleBytes); got != 0 {
		t.Fatalf("mapBytes(0) = %d, want 0", got)
	}
	prev := int64(0)
	for _, n := range []int{1, 8, 13, 52, 100, 1000} {
		got := mapBytes(n, tripleBytes)
		if got < prev {
			t.Fatalf("mapBytes(%d) = %d, smaller than a smaller map (%d)", n, got, prev)
		}
		prev = got
	}
	// 13 entries exceed one bucket's 6.5 load target: two buckets minimum.
	if one, two := mapBytes(6, 8), mapBytes(13, 8); two <= one {
		t.Fatalf("mapBytes(13) = %d, want > mapBytes(6) = %d (bucket doubling)", two, one)
	}
}

// TestSpaceMatchesLiveHeap: the accountant's bytes per triple for a
// loaded pad-shaped store is within 20% of the live heap the load adds,
// measured after a collection, so the estimate cannot drift from the
// layout it models.
func TestSpaceMatchesLiveHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pad.xml")
	if err := padStore(14000).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewManager()
	if err := m.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(m.Len())
	est := m.Space().BytesPerTriple
	if ratio := est / live; ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("%d triples: the accountant estimates %.1f B/triple, the live heap grew %.1f B/triple (%.2fx)", m.Len(), est, live, ratio)
	}
	t.Logf("%d triples: estimate %.1f B/triple, live heap %.1f B/triple", m.Len(), est, live)
}
