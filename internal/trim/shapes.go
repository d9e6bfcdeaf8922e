package trim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Query-shape keys for the heavy-hitter profiler (obs.DefaultTopQueries):
// every read entry point records a compact shape — op kind, bound-position
// mask, index choice, and the predicate when one is bound — so /debug/top
// and `trimq top` can rank which query families dominate a live store.
// Keys deliberately exclude subject/object values: shapes stay bounded by
// the schema (predicates in use), not by the data.
//
// A select's key is fixed by its mask, its index choice and its predicate,
// so each key is built once, not per select: keys with no predicate come
// from wildShapes, built at init, and each predicate keeps its own keys in
// its cardinality record (predCard.shapes), a table allocated on the
// predicate's first select and filled one key at a time.

// selectKey renders a select's shape key.
func selectKey(mask int, choice indexChoice, p rdf.Pattern) string {
	key := "select " + maskNames[mask] + " index=" + choice.String()
	if mask&maskP != 0 {
		key += " pred=" + p.Predicate.Value()
	}
	return key
}

// wildShapes holds the keys of selects with no predicate bound, by mask
// and index choice.
var wildShapes = func() (keys [8][4]string) {
	for mask := range keys {
		if mask&maskP != 0 {
			continue
		}
		for choice := range keys[mask] {
			keys[mask][choice] = selectKey(mask, indexChoice(choice), rdf.Pattern{})
		}
	}
	return keys
}()

// predShapes is one predicate's select keys, by whether the subject and
// the object are bound and by index choice (a bound predicate is never a
// scan). Concurrent selects share the store's read lock, so a slot is
// filled with a compare-and-swap; two selects racing to fill one build
// equal keys.
type predShapes [4 * 3]atomic.Pointer[string]

// selectShape returns a select's shape key. pc is the bound predicate's
// cardinality record: nil when no predicate is bound, or when the store
// holds none of its triples, which builds the key afresh.
func selectShape(p rdf.Pattern, choice indexChoice, pc *predCard) string {
	mask := patMask(p)
	if mask&maskP == 0 {
		return wildShapes[mask][choice]
	}
	if pc == nil {
		return selectKey(mask, choice, p)
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
	if key := slot.Load(); key != nil {
		return *key
	}
	key := selectKey(mask, choice, p)
	slot.CompareAndSwap(nil, &key)
	return key
}

// recordViewShape records one reachability view.
func recordViewShape() {
	obs.RecordQueryShape("view index=subject")
}

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
	obs.RecordQueryShape(key)
}
