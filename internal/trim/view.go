package trim

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// View computes the paper's "simple view" (§4.4): "A view is specified by
// selecting a resource (such as a Bundle id), where all triples that can be
// reached from this resource are returned (e.g., all triples representing
// nested Bundles within the given Bundle along with their Scraps)."
//
// Reachability follows subject→object edges: starting from root, every
// triple whose subject is a reached resource is in the view, and resource
// objects of those triples are reached in turn. The result is a fresh graph.
func (m *Manager) View(root rdf.Term) *rdf.Graph {
	return m.ViewFiltered(root, nil)
}

// ViewFiltered is View restricted to edges the filter accepts. A nil filter
// accepts every triple. Filters let DMIs exclude cross-links (e.g., marks
// shared between scraps) from a containment view.
func (m *Manager) ViewFiltered(root rdf.Term, filter func(rdf.Triple) bool) *rdf.Graph {
	out, _ := m.viewQuery(nil, root, filter, false)
	return out
}

// viewQuery is every view entry point: the walk under the read lock, its
// latency, count and shape, and its span (nil for none), which it
// finishes. The report's Query is filled when explain asks for it.
func (m *Manager) viewQuery(sp *obs.Span, root rdf.Term, filter func(rdf.Triple) bool, explain bool) (*rdf.Graph, Explain) {
	start := sp.StartNS()
	m.mu.RLockAt(start)
	out, e := m.viewExplainLocked(root, filter)
	end := obs.Nanotime()
	m.mu.RUnlockAt(end)
	d := time.Duration(end - start)
	mViewNS.Observe(int64(d))
	mViewTotal.Inc()
	viewShape.Record()
	e.WallNS = int64(d)
	finishQuery(sp, "trim.view", &e, explain, root.String)
	return out, e
}

// viewExplainLocked is the reachability walk behind View, ViewFiltered,
// and ViewExplain; Candidates counts every edge examined.
func (m *Manager) viewExplainLocked(root rdf.Term, filter func(rdf.Triple) bool) (*rdf.Graph, Explain) {
	var e Explain
	m.explainLocked(&e, "view", indexSubject)
	out := rdf.NewGraph()
	id := m.st.lookup(root)
	if !root.IsResource() || id == noID {
		return out, e
	}
	visited := map[int32]struct{}{id: {}}
	frontier := []int32{id}
	for len(frontier) > 0 {
		node := frontier[0]
		frontier = frontier[1:]
		list := m.st.dict[node].post[posS]
		e.Candidates += len(list)
		for _, r := range list {
			t := m.st.triple(r)
			if filter != nil && !filter(t) {
				continue
			}
			// Triples coming out of the store are already validated.
			if _, err := out.Add(t); err != nil {
				// Unreachable by construction; skip defensively.
				continue
			}
			if !t.Object.IsResource() {
				continue
			}
			obj := m.st.rows[r].ids[posO]
			if _, seen := visited[obj]; seen {
				continue
			}
			visited[obj] = struct{}{}
			frontier = append(frontier, obj)
		}
	}
	e.Matched = out.Len()
	return out, e
}

// Reachable returns the set of resources reachable from root (including
// root itself when it is a resource), in deterministic order.
func (m *Manager) Reachable(root rdf.Term) []rdf.Term {
	g := m.View(root)
	out := make([]rdf.Term, 0, 2*g.Len()+1)
	if root.IsResource() {
		out = append(out, root)
	}
	g.Each(func(t rdf.Triple) bool {
		out = append(out, t.Subject)
		if t.Object.IsResource() {
			out = append(out, t.Object)
		}
		return true
	})
	sortTerms(out)
	return slices.Compact(out)
}

// ReachesFrom reports whether target is reachable from root following
// subject→object edges.
func (m *Manager) ReachesFrom(root, target rdf.Term) bool {
	if root == target {
		return root.IsResource()
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, want := m.st.lookup(root), m.st.lookup(target)
	if id == noID || want == noID {
		return false
	}
	visited := map[int32]struct{}{id: {}}
	frontier := []int32{id}
	for len(frontier) > 0 {
		node := frontier[0]
		frontier = frontier[1:]
		for _, r := range m.st.dict[node].post[posS] {
			obj := m.st.rows[r].ids[posO]
			if obj == want {
				return true
			}
			if !m.st.term(obj).IsResource() {
				continue
			}
			if _, seen := visited[obj]; seen {
				continue
			}
			visited[obj] = struct{}{}
			frontier = append(frontier, obj)
		}
	}
	return false
}

func sortTerms(ts []rdf.Term) {
	slices.SortFunc(ts, rdf.Term.Compare)
}

// sortTriples puts triples in rdf.SortTriples order without the
// reflection-based swapper and the allocations sort.Slice costs.
func sortTriples(ts []rdf.Triple) {
	slices.SortFunc(ts, rdf.Triple.Compare)
}
