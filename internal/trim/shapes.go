package trim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Query-shape counts for the heavy-hitter profiler (obs.DefaultTopQueries):
// every read entry point counts a compact shape — op kind, bound-position
// mask, index choice, and the predicate when one is bound — so /debug/top
// and `trimq top` can rank which query families dominate a live store.
// Keys deliberately exclude subject/object values: shapes stay bounded by
// the schema (predicates in use), not by the data.
//
// A select's key is fixed by its mask, its index choice and its predicate,
// so each key is built once, not per select, and its obs.ShapeCount is
// kept beside it: counting a select is one atomic add on the count, with
// no key built and no lookup. Keys with no predicate come from
// wildShapes, built at init, and each predicate keeps its own in its
// cardinality record (predCard.shapes), a table allocated on the
// predicate's first select and filled one key at a time. Counts are
// process-wide: stores that share a key share its count.

// selectKey renders a select's shape key.
func selectKey(mask int, choice indexChoice, p rdf.Pattern) string {
	key := "select " + maskNames[mask] + " index=" + choice.String()
	if mask&maskP != 0 {
		key += " pred=" + p.Predicate.Value()
	}
	return key
}

// wildShapes holds the counts of selects with no predicate bound, by mask
// and index choice.
var wildShapes = func() (shapes [8][4]*obs.ShapeCount) {
	for mask := range shapes {
		if mask&maskP != 0 {
			continue
		}
		for choice := range shapes[mask] {
			shapes[mask][choice] = obs.QueryShape(selectKey(mask, indexChoice(choice), rdf.Pattern{}))
		}
	}
	return shapes
}()

// predShapes is one predicate's select counts, by whether the subject and
// the object are bound and by index choice (a bound predicate is never a
// scan). Concurrent selects share the store's read lock, so a slot is
// filled with a compare-and-swap; two selects racing to fill one look up
// the same count.
type predShapes [4 * 3]atomic.Pointer[obs.ShapeCount]

// selectShape returns a select's shape count. pc is the bound predicate's
// cardinality record: nil when no predicate is bound, or when the store
// holds none of its triples, which looks the key up afresh.
func selectShape(p rdf.Pattern, choice indexChoice, pc *predCard) *obs.ShapeCount {
	mask := patMask(p)
	if mask&maskP == 0 {
		return wildShapes[mask][choice]
	}
	if pc == nil {
		return obs.QueryShape(selectKey(mask, choice, p))
	}
	table := pc.shapes.Load()
	if table == nil {
		pc.shapes.CompareAndSwap(nil, new(predShapes))
		table = pc.shapes.Load()
	}
	bound := mask & maskS
	if mask&maskO != 0 {
		bound |= 2
	}
	slot := &table[bound*3+int(choice)-int(indexSubject)]
	if shape := slot.Load(); shape != nil {
		return shape
	}
	shape := obs.QueryShape(selectKey(mask, choice, p))
	slot.CompareAndSwap(nil, shape)
	return shape
}

// viewShape counts reachability views.
var viewShape = obs.QueryShape("view index=subject")

// recordPathShape records one predicate-path walk; inverse walks run on
// the object index.
func recordPathShape(predicates []rdf.Term, inverse bool) {
	index := "subject"
	if inverse {
		index = "object"
	}
	key := fmt.Sprintf("path hops=%d index=%s preds=", len(predicates), index)
	for i, p := range predicates {
		if i > 0 {
			key += "/"
		}
		key += p.Value()
	}
	obs.QueryShape(key).Record()
}
