package trim

import (
	"sort"
	"sync/atomic"
)

// Per-predicate cardinality statistics, maintained incrementally by the
// store's two mutation points (place/removeRow) so they are always exact
// and cost O(1) per mutation. They answer the planner's question —
// "how many rows will this pattern touch?" — per predicate instead of
// store-wide, and feed the EXPLAIN estimated-selectivity line.

// predCard tracks one predicate's live cardinality. subjects counts the
// subjects holding the predicate: a subject's list is in predicate order,
// so a triple is its subject's first or last with the predicate exactly
// when neither neighbour there carries it. objects refcounts triples per
// object id, since object lists are unordered. shapes caches the
// predicate's select shape keys (shapes.go); it stays nil until the
// predicate's first select. A record lives as long as its predicate's id
// (release drops it), so a predicate whose last triple goes and comes
// back, as a Set of its only value does, keeps its record and its keys.
type predCard struct {
	triples  int
	subjects int
	objects  map[int32]int32
	shapes   atomic.Pointer[predShapes]
}

// card returns predicate p's record, making it on p's first triple.
func (s *store) card(p int32) *predCard {
	pc, ok := s.predCards[p]
	if !ok {
		pc = &predCard{objects: make(map[int32]int32)}
		s.predCards[p] = pc
	}
	return pc
}

// cardAdd records a newly stored triple; first reports whether it is its
// subject's first with its predicate.
func (s *store) cardAdd(k idTriple, first bool) {
	pc := s.card(k[posP])
	pc.triples++
	if first {
		pc.subjects++
	}
	pc.objects[k[posO]]++
}

// cardRemove records a removed triple; last reports whether it was its
// subject's last with its predicate.
func (s *store) cardRemove(k idTriple, last bool) {
	pc := s.predCards[k[posP]]
	pc.triples--
	if last {
		pc.subjects--
	}
	if pc.objects[k[posO]]--; pc.objects[k[posO]] == 0 {
		delete(pc.objects, k[posO])
	}
}

// PredicateStats is one predicate's cardinality summary as reported by
// Stats: how many triples carry it, over how many distinct subjects and
// objects, and what fraction of the store a predicate-bound select would
// touch.
type PredicateStats struct {
	Predicate        string `json:"predicate"`
	Triples          int    `json:"triples"`
	DistinctSubjects int    `json:"distinct_subjects"`
	DistinctObjects  int    `json:"distinct_objects"`
	// Selectivity is Triples divided by the store size: the fraction of
	// the store a select bound only on this predicate matches.
	Selectivity float64 `json:"selectivity"`
}

// predicateStatsLocked renders the cardinality table sorted by predicate:
// the predicates some triple carries.
func (m *Manager) predicateStatsLocked() []PredicateStats {
	size := len(m.st.rows)
	out := make([]PredicateStats, 0, len(m.st.predCards))
	for pred, pc := range m.st.predCards {
		if pc.triples == 0 {
			continue
		}
		ps := PredicateStats{
			Predicate:        m.st.term(pred).Value(),
			Triples:          pc.triples,
			DistinctSubjects: pc.subjects,
			DistinctObjects:  len(pc.objects),
		}
		if size > 0 {
			ps.Selectivity = float64(pc.triples) / float64(size)
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Predicate < out[j].Predicate })
	return out
}

// estimate is the planner's cardinality estimate for a resolved pattern:
// expected result rows and their fraction of the store. A bound predicate
// uses the exact per-predicate stats pc (nil, or with no triples, when
// the store holds no triple with it), scaled down by the mean
// triples-per-subject/object when those positions are bound too; an
// unbound predicate falls back to the exact posting-list sizes the
// planner already consults. The estimate is
// exact for single-position patterns and a uniformity assumption beyond
// that.
func (s *store) estimate(q idPattern, pc *predCard) (rows int, selectivity float64) {
	size := len(s.rows)
	if size == 0 {
		return 0, 0
	}
	est := size
	if q[posP] != anyID {
		if pc == nil {
			return 0, 0
		}
		est = pc.triples
		if q[posS] != anyID && pc.subjects > 0 {
			est = meanShare(est, pc.subjects)
		}
		if q[posO] != anyID && len(pc.objects) > 0 {
			est = meanShare(est, len(pc.objects))
		}
	} else {
		for _, pos := range [2]int{posS, posO} {
			switch q[pos] {
			case anyID:
			case noID:
				est = 0
			default:
				est = min(est, len(s.dict[q[pos]].post[pos]))
			}
		}
	}
	return est, float64(est) / float64(size)
}

// meanShare is total/parts rounded to at least 1 while total is nonzero:
// the expected bucket share under uniformity, never estimating a present
// predicate at zero rows.
func meanShare(total, parts int) int {
	if total == 0 {
		return 0
	}
	share := total / parts
	if share < 1 {
		share = 1
	}
	return share
}
