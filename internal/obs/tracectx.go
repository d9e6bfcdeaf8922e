package obs

import "context"

// Context propagation for trace identity. Span values themselves are
// goroutine-local; what crosses API boundaries and goroutine hops is the
// context carrying the current span, from which callees start children.
// ContextWithSpan and StartCtx are the sanctioned context constructors for
// library code (the ctxflow analyzer knows them); nowhere below fabricates
// a deadline or cancellation, only a value.

// spanCtxKey is the private context key for the current span.
type spanCtxKey struct{}

// spanCtx is the context StartCtx returns: the caller's context with one
// more value, the new span. It lives inside its span, so starting a span
// under a context allocates once, and SpanFromContext finds the span
// without walking the chain. Deadline, Done and Err are the parent's, and
// every other value resolves in the parent, as with context.WithValue.
// Its fields are set before StartCtx returns and never change, so any
// number of goroutines may use it.
type spanCtx struct {
	context.Context
	span *Span
}

// Value returns the span for the span key and asks the parent otherwise.
func (c *spanCtx) Value(key any) any {
	if _, ok := key.(spanCtxKey); ok {
		return c.span
	}
	return c.Context.Value(key)
}

// ContextWithSpan returns a context carrying s as the current span. A nil
// ctx is treated as context.Background(), so plain (non-Ctx) entry points
// can delegate to their Ctx variants with nil. A nil span is stored as-is;
// SpanFromContext hands it back and child starts no-op.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	switch c := ctx.(type) {
	case nil:
		return nil
	case *spanCtx:
		return c.span
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartCtx starts a span as a child of the span carried by ctx — or as a
// new root when ctx carries none — and returns ctx re-wrapped around the
// new span. This is the one-liner every *Ctx seam uses:
//
//	ctx, sp := obs.StartCtx(ctx, "dmi.create", id)
//	defer sp.Finish()
//
// A nil ctx is treated as context.Background(). When the tracer is
// disabled the input ctx comes back untouched with a nil span.
func StartCtx(ctx context.Context, op, detail string) (context.Context, *Span) {
	return DefaultTracer.StartCtx(ctx, op, detail)
}

// StartCtx is the method form of the package-level StartCtx, for code
// holding its own Tracer. A parent span recorded by a different tracer is
// ignored: the child becomes a root here rather than linking rings.
func (tr *Tracer) StartCtx(ctx context.Context, op, detail string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !tr.Enabled() {
		return ctx, nil
	}
	var s *Span
	if parent := SpanFromContext(ctx); parent != nil && parent.tr == tr {
		s = parent.Child(op, detail)
	} else {
		s = tr.root(op, detail)
	}
	if s == nil { // the tracer was disabled since the check above
		return ctx, nil
	}
	s.ctx = spanCtx{Context: ctx, span: s}
	return &s.ctx, s
}
