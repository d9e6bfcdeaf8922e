// Package tracectx exercises the tracectx analyzer: spans born from
// obs.StartCtx must be deferred-finished or escape; discards and plain
// finishes are reported.
package tracectx

import (
	"context"
	"time"

	"fixture/internal/obs"
)

// DeferFinish is the canonical pattern.
func DeferFinish(ctx context.Context) {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "")
	defer sp.Finish()
	_ = ctx
}

// DeferClosure finishes through a deferred func literal, the named-return
// error pattern.
func DeferClosure(ctx context.Context) (err error) {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "")
	defer func() { sp.FinishErr(err) }()
	_ = ctx
	return nil
}

// DeferFinishDur finishes with a duration the op measured from the span's
// start, through a deferred func literal.
func DeferFinishDur(ctx context.Context) (err error) {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "")
	var d time.Duration
	defer func() { sp.FinishDur(d, err) }()
	_ = ctx
	d = time.Since(sp.StartTime())
	return nil
}

// EscapeReturn hands the span to the caller, whose job the finish becomes.
func EscapeReturn(ctx context.Context) (context.Context, *obs.Span) {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "")
	return ctx, sp
}

// op carries a span across a staged operation, like the dmi layer does.
type op struct{ span *obs.Span }

// EscapeStruct stores the span in a struct; the holder finishes it later.
func EscapeStruct(ctx context.Context) op {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "")
	_ = ctx
	return op{span: sp}
}

func finishLater(s *obs.Span) { s.Finish() }

// EscapeArg passes the span to a helper.
func EscapeArg(ctx context.Context) {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "")
	_ = ctx
	finishLater(sp)
}

// ChildSpans may be finished inline (the retry-attempt pattern); only the
// StartCtx root is bound to the defer rule.
func ChildSpans(ctx context.Context) {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "")
	defer sp.Finish()
	_ = ctx
	for i := 0; i < 3; i++ {
		c := sp.Child("fixture.attempt", "")
		c.FinishErr(nil)
	}
}

// DiscardBare drops both results on the floor.
func DiscardBare(ctx context.Context) {
	obs.StartCtx(ctx, "fixture.op", "") // want `obs\.StartCtx result discarded; the span is never finished and never records`
}

// DiscardBlank keeps the context but throws the span away.
func DiscardBlank(ctx context.Context) context.Context {
	ctx, _ = obs.StartCtx(ctx, "fixture.op", "") // want `span from obs\.StartCtx assigned to _; it is never finished and never records`
	return ctx
}

// PlainFinish records only on the happy path.
func PlainFinish(ctx context.Context) error {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "") // want `span sp is finished outside a defer; early returns skip the record`
	if ctx == nil {
		return context.Canceled
	}
	sp.Finish()
	return nil
}

// PlainFinishDur is PlainFinish with a caller-measured duration.
func PlainFinishDur(ctx context.Context) error {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "") // want `span sp is finished outside a defer; early returns skip the record`
	if ctx == nil {
		return context.Canceled
	}
	sp.FinishDur(time.Since(sp.StartTime()), nil)
	return nil
}

// NeverFinished leaks the span entirely.
func NeverFinished(ctx context.Context) {
	ctx, sp := obs.StartCtx(ctx, "fixture.op", "") // want `span sp from obs\.StartCtx is never finished; defer sp\.Finish\(\) \(or FinishErr\) so the span records`
	_ = ctx
	_ = sp.Child("fixture.child", "")
}
