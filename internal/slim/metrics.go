package slim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// DMI instrumentation directly quantifies §6's "cost of interpreting
// manipulations on SLIM Store data": every DMI operation records its
// end-to-end latency (slim.dmi.<op>.ns — validation, triple staging, and
// TRIM time included), the number of triples it touched
// (slim.dmi.triples.touched and the per-op slim.dmi.triples_per_op
// distribution), and success/error counts. Each operation also leaves a
// span in the obs ring buffer, so slimpad -trace shows the store's recent
// manipulation history.
//
// A write's reads count in the TRIM layer, not as DMI ops: a Set or Add
// learns the instance's construct from one rdf:type select, which records
// as a trim.select under the write's span, and runs no Get. A Create still
// ends in a Get of the new instance, which records itself as dmi.get.
var (
	mTriplesTouched = obs.C(obs.NameSlimTriplesTouched)
	mTriplesPerOp   = obs.HSize(obs.NameSlimTriplesPerOp)
)

// dmiOpKind is one DMI operation's span name and latency/total handles.
// They are resolved once, on the op's first call, so a call builds no name
// and takes no registry lock; resolving lazily keeps an op that never runs
// out of the exported metrics.
type dmiOpKind struct {
	op    string // the metric infix ("create", "get", ...)
	once  sync.Once
	span  string
	ns    *obs.Histogram
	total *obs.Counter
}

// The DMI operations, one per metric infix.
var (
	dmiCreate      = &dmiOpKind{op: "create"}
	dmiGet         = &dmiOpKind{op: "get"}
	dmiSet         = &dmiOpKind{op: "set"}
	dmiAdd         = &dmiOpKind{op: "add"}
	dmiUnset       = &dmiOpKind{op: "unset"}
	dmiDelete      = &dmiOpKind{op: "delete"}
	dmiInstancesOf = &dmiOpKind{op: "instancesof"}
	dmiView        = &dmiOpKind{op: "view"}
)

func (k *dmiOpKind) resolve() {
	k.once.Do(func() {
		k.span = "dmi." + k.op
		k.ns = obs.H(fmt.Sprintf(obs.FmtSlimDmiNS, k.op))
		k.total = obs.C(fmt.Sprintf(obs.FmtSlimDmiTotal, k.op))
	})
}

// dmiOp is an in-flight DMI operation; start with startOpCtx, finish with
// done. Its latency is timed from its span's start (obs.Span.StartNS), so
// the histogram and the span share one start and one end read of the
// monotonic clock.
type dmiOp struct {
	kind  *dmiOpKind
	start int64
	span  *obs.Span
}

// startOpCtx opens a DMI op span as a child of the caller's trace (or a
// new root for plain, context-free entry points, which pass nil) and
// returns the context to thread into the TRIM layer, so the store's
// selects and batch applies appear under this op in the trace tree.
func startOpCtx(ctx context.Context, kind *dmiOpKind, detail string) (context.Context, dmiOp) {
	kind.resolve()
	ctx, span := obs.StartCtx(ctx, kind.span, detail)
	return ctx, dmiOp{kind: kind, start: span.StartNS(), span: span}
}

// done records the operation. triples is the number of triples the op
// touched (read or wrote); pass 0 when the op failed before touching any.
func (o dmiOp) done(triples int, err error) {
	d := time.Duration(obs.Nanotime() - o.start)
	o.kind.ns.Observe(int64(d))
	o.kind.total.Inc()
	if err != nil {
		obs.C(fmt.Sprintf(obs.FmtSlimDmiErrors, o.kind.op)).Inc()
		obs.Log().Warn("dmi op failed", "op", o.kind.op, "err", err)
	} else if triples > 0 {
		mTriplesTouched.Add(int64(triples))
		mTriplesPerOp.Observe(int64(triples))
	}
	o.span.FinishDur(d, err)
}
