package obs

import (
	"context"
	"time"
)

// Context propagation for trace identity. Span values themselves are
// goroutine-local; what crosses API boundaries and goroutine hops is the
// context carrying the current span, from which callees start children.
// ContextWithSpan and StartCtx are the sanctioned context constructors for
// library code (the ctxflow analyzer knows them); nowhere below fabricates
// a deadline or cancellation, only a value.

// spanCtxKey is the private context key for the current span.
type spanCtxKey struct{}

// spanCtx is the context StartCtx returns: the span itself, seen as the
// caller's context with one more value, the span. Starting a span under a
// context therefore allocates once, and SpanFromContext finds the span
// without walking the chain. Deadline, Done and Err are the parent's, and
// every other value resolves in the parent, as with context.WithValue.
// The span's ctx field is set before StartCtx returns and never changes,
// so any number of goroutines may use it.
type spanCtx Span

// Deadline returns the parent's deadline.
func (c *spanCtx) Deadline() (time.Time, bool) { return c.ctx.Deadline() }

// Done returns the parent's done channel.
func (c *spanCtx) Done() <-chan struct{} { return c.ctx.Done() }

// Err returns the parent's error.
func (c *spanCtx) Err() error { return c.ctx.Err() }

// Value returns the span for the span key and asks the parent otherwise.
func (c *spanCtx) Value(key any) any {
	if _, ok := key.(spanCtxKey); ok {
		return (*Span)(c)
	}
	return c.ctx.Value(key)
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
		return (*Span)(c)
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
	s.ctx = ctx
	return (*spanCtx)(s), s
}
