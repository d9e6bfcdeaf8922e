package trim

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Context-carrying variants of the TRIM entry points. Each one starts a
// child span off the caller's trace (obs.StartCtx) and runs the same
// implementation as the plain method, so a DMI op's trace tree reaches
// down into the store layer and records exactly which selects, creates,
// and batch applies one user gesture fanned out into. TRIM is the bottom
// of the stack: nothing below it takes a context, so the ctx stops here
// and only the span matters.

// Bound-position bits of a pattern's mask.
const (
	maskS = 1 << iota
	maskP
	maskO
)

// maskNames renders each mask ("s??", "?po", ...): enough to see the index
// choice a select had available, and constant, so span details and shape
// keys cost nothing to build.
var maskNames = [8]string{"???", "s??", "?p?", "sp?", "??o", "s?o", "?po", "spo"}

// patMask returns the pattern's bound-position mask.
func patMask(p rdf.Pattern) int {
	mask := 0
	if !p.Subject.IsZero() {
		mask |= maskS
	}
	if !p.Predicate.IsZero() {
		mask |= maskP
	}
	if !p.Object.IsZero() {
		mask |= maskO
	}
	return mask
}

// patShape renders a pattern's bound/wildcard mask.
func patShape(p rdf.Pattern) string { return maskNames[patMask(p)] }

// An instrumented TRIM op times itself from its span's start (obs.Span.
// StartNS, a fresh reading when untraced) to one more reading of the
// clock, and hands both readings to the store lock, so the op's latency
// histogram, its span and the lock's wait and hold share one pair.

// finishQuery ends a query whose report e is complete but for its Query,
// which query renders. An explained query's report gets its Query, and
// its span the EXPLAIN line as detail. So does a slow query's, so that its
// one slow-ring entry says which query was slow and why: its span's, or,
// for a query that ran untraced, one published through
// obs.Tracer.SlowOp, which renders the line only when the query was
// slow. The span finishes with the query's wall time.
func finishQuery(sp *obs.Span, op string, e *Explain, explain bool, query func() string) {
	d := e.Wall()
	line := func() string {
		e.Query = query()
		return e.String()
	}
	switch {
	case sp == nil:
		if explain {
			e.Query = query()
		}
		obs.DefaultTracer.SlowOp(op, d, nil, line)
	case explain || obs.DefaultTracer.Slow(d):
		sp.SetDetail(line())
	}
	sp.FinishDur(d, nil)
}

// CreateCtx is Create with the caller's trace attached.
func (m *Manager) CreateCtx(ctx context.Context, t rdf.Triple) (created bool, err error) {
	_, sp := obs.StartCtx(ctx, "trim.create", "")
	return m.create(sp, t, rdf.Triple{}, -1)
}

// RemoveCtx is Remove with the caller's trace attached.
func (m *Manager) RemoveCtx(ctx context.Context, t rdf.Triple) bool {
	_, sp := obs.StartCtx(ctx, "trim.remove", "")
	defer sp.Finish()
	return m.Remove(t)
}

// RemoveMatchingCtx is RemoveMatching with the caller's trace attached.
func (m *Manager) RemoveMatchingCtx(ctx context.Context, p rdf.Pattern) int {
	_, sp := obs.StartCtx(ctx, "trim.remove_matching", patShape(p))
	defer sp.Finish()
	return m.RemoveMatching(p)
}

// SelectCtx is Select with the caller's trace attached.
func (m *Manager) SelectCtx(ctx context.Context, p rdf.Pattern) []rdf.Triple {
	return m.SelectBufCtx(ctx, p, nil)
}

// SelectBufCtx is SelectCtx with the result in buf's storage when it has
// room (buf is empty): a caller expecting a few matches passes a stack
// array and allocates no result, as One does.
func (m *Manager) SelectBufCtx(ctx context.Context, p rdf.Pattern, buf []rdf.Triple) []rdf.Triple {
	_, sp := obs.StartCtx(ctx, "trim.select", patShape(p))
	return m.selectQuery(sp, p, nil, nil, buf)
}

// ViewCtx is View with the caller's trace attached.
func (m *Manager) ViewCtx(ctx context.Context, root rdf.Term) *rdf.Graph {
	_, sp := obs.StartCtx(ctx, "trim.view", root.String())
	g, _ := m.viewQuery(sp, root, nil, false)
	return g
}

// SelectExplainCtx is SelectExplain with the caller's trace attached; the
// plan line becomes the span detail once the query has run.
func (m *Manager) SelectExplainCtx(ctx context.Context, p rdf.Pattern) ([]rdf.Triple, Explain) {
	_, sp := obs.StartCtx(ctx, "trim.select", patShape(p))
	var e Explain
	out := m.selectQuery(sp, p, nil, &e, nil)
	return out, e
}

// ViewExplainCtx is ViewExplain with the caller's trace attached; the plan
// line becomes the span detail.
func (m *Manager) ViewExplainCtx(ctx context.Context, root rdf.Term) (*rdf.Graph, Explain) {
	_, sp := obs.StartCtx(ctx, "trim.view", root.String())
	return m.viewQuery(sp, root, nil, true)
}

// PathExplainCtx is PathExplain with the caller's trace attached; the plan
// line becomes the span detail.
func (m *Manager) PathExplainCtx(ctx context.Context, start []rdf.Term, predicates ...rdf.Term) ([]rdf.Term, Explain) {
	_, sp := obs.StartCtx(ctx, "trim.path", fmt.Sprintf("start=%d hops=%d", len(start), len(predicates)))
	return m.pathExplain(sp, start, predicates)
}

// ApplyCtx is Apply with the caller's trace attached: the whole atomic
// batch becomes one span carrying its op count.
func (b *Batch) ApplyCtx(ctx context.Context) error {
	_, sp := obs.StartCtx(ctx, "trim.batch.apply", opsDetail(b.Len()))
	return b.apply(sp)
}

// smallOps are the span details of batches of up to eight ops, which a DMI
// write stages, so that applying one formats nothing.
var smallOps = [...]string{"ops=0", "ops=1", "ops=2", "ops=3", "ops=4", "ops=5", "ops=6", "ops=7", "ops=8"}

// opsDetail is a batch span's detail: its op count.
func opsDetail(n int) string {
	if n < len(smallOps) {
		return smallOps[n]
	}
	return fmt.Sprintf("ops=%d", n)
}
