package trim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Query EXPLAIN makes the §6 "cost of interpreting manipulations" claim
// measurable per query instead of only in aggregate: every read path
// (selection, reachability view, predicate path) can report which index
// the planner chose, how many candidate triples it scanned, how many
// matched, and how long the walk took. Queries that meet the slow-op
// threshold land in the tracer's slow ring with the full EXPLAIN line as
// their detail, so /debug/traces answers "which query was slow and why"
// on a live store.

// Explain describes how one TRIM query executed.
type Explain struct {
	// Op is the query kind: "select", "view", or "path".
	Op string `json:"op"`
	// Query renders the query arguments (pattern, root, or path).
	Query string `json:"query"`
	// Index is the planner's choice: "subject", "predicate", "object", or
	// "scan" (no position bound — full store scan). Views and paths always
	// walk the subject (or object, for inverse paths) index.
	Index string `json:"index"`
	// Candidates is the number of triples examined: the chosen index
	// bucket's size for an indexed select, the store size for a scan, or
	// the edges touched during a view/path walk.
	Candidates int `json:"candidates"`
	// Matched is the result size: triples for select/view, terms for path.
	Matched int `json:"matched"`
	// Observers is the number of registered observers — the notification
	// fan-out every mutation to the scanned region would incur.
	Observers int `json:"observers"`
	// StoreSize and Generation snapshot the store the query ran against.
	StoreSize  int    `json:"store_size"`
	Generation uint64 `json:"generation"`
	// EstRows and EstSelectivity are the planner's pre-scan cardinality
	// estimate from the per-predicate statistics (see estimateLocked):
	// expected result rows and their fraction of the store. Comparing
	// EstRows against Matched shows how good the estimate was.
	EstRows        int     `json:"est_rows"`
	EstSelectivity float64 `json:"est_selectivity"`
	// WallNS is the query's wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// Wall returns the query's wall time.
func (e Explain) Wall() time.Duration { return time.Duration(e.WallNS) }

// String renders the explain as one line of key=value fields.
func (e Explain) String() string {
	return fmt.Sprintf("op=%s query=%q index=%s candidates=%d matched=%d est_rows=%d est_selectivity=%.4f observers=%d store=%d generation=%d wall=%s",
		e.Op, e.Query, e.Index, e.Candidates, e.Matched, e.EstRows, e.EstSelectivity,
		e.Observers, e.StoreSize, e.Generation, e.Wall().Round(time.Microsecond))
}

// String names the planner's index choice for EXPLAIN output.
func (c indexChoice) String() string {
	switch c {
	case indexSubject:
		return "subject"
	case indexPredicate:
		return "predicate"
	case indexObject:
		return "object"
	default:
		return "scan"
	}
}

// explainLocked starts the execution report e, which is empty, with the
// store-wide fields. It fills e in place: a select's report is never
// copied whole on its way through the query.
func (m *Manager) explainLocked(e *Explain, op string, index indexChoice) {
	e.Op = op
	e.Index = index.String()
	e.Observers = len(m.seqObservers)
	e.StoreSize = len(m.st.rows)
	e.Generation = m.generation
}

// selectExplainLocked is the single implementation behind Select,
// SelectFiltered, SelectExplain and One: it runs the planner, scans,
// keeps the matches keep accepts (all of them when keep is nil), in buf
// when it has room (store.collect), and fills every field of the empty
// report e except Query and WallNS (the caller owns those). It also returns the query's
// shape count (shapes.go). Only the matching rows become rdf.Triple
// values.
func (m *Manager) selectExplainLocked(e *Explain, p rdf.Pattern, keep func(rdf.Triple) bool, buf []rdf.Triple) ([]rdf.Triple, *obs.ShapeCount) {
	q, list, choice := m.st.plan(p)
	choice.count()
	m.explainLocked(e, "select", choice)
	var pc *predCard // the bound predicate's statistics, nil when unbound or absent
	if q[posP] >= 0 {
		pc = m.st.predCards[q[posP]]
	}
	e.EstRows, e.EstSelectivity = m.st.estimate(q, pc)
	e.Candidates = len(list)
	if choice == indexNone {
		e.Candidates = len(m.st.rows)
	}
	out := m.st.collect(q, list, choice, keep, buf)
	e.Matched = len(out)
	return out, selectShape(p, choice, pc)
}

// SelectExplain is Select plus an execution report. It records the same
// metrics as Select and journals slow queries with their EXPLAIN line.
func (m *Manager) SelectExplain(p rdf.Pattern) ([]rdf.Triple, Explain) {
	var e Explain
	out := m.selectQuery(nil, p, nil, &e, nil)
	return out, e
}

// ViewExplain is View plus an execution report: Candidates counts the
// edges examined during the reachability walk, Matched the triples in the
// resulting view.
func (m *Manager) ViewExplain(root rdf.Term) (*rdf.Graph, Explain) {
	return m.viewQuery(nil, root, nil, true)
}

// PathExplain is Path plus an execution report: Candidates counts the
// edges examined across every hop, Matched the terms reached at the end.
func (m *Manager) PathExplain(start []rdf.Term, predicates ...rdf.Term) ([]rdf.Term, Explain) {
	return m.pathExplain(nil, start, predicates)
}

// pathExplain is PathExplain traced by sp (nil for none), which it
// finishes.
func (m *Manager) pathExplain(sp *obs.Span, start, predicates []rdf.Term) ([]rdf.Term, Explain) {
	begin := sp.StartNS()
	m.mu.RLockAt(begin)
	out, e := m.pathLocked(start, predicates, false)
	end := obs.Nanotime()
	m.mu.RUnlockAt(end)
	var q string
	for _, s := range start {
		q += s.String() + " "
	}
	for i, p := range predicates {
		if i > 0 {
			q += "/"
		}
		q += p.String()
	}
	e.WallNS = end - begin
	recordPathShape(predicates, false)
	finishQuery(sp, "trim.path", &e, true, func() string { return q })
	return out, e
}
