package obs

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

type ctxTestKey string

// TestSpanContextIsAContext: the context StartCtx returns is held inside
// its span, and still behaves as the parent context with one more value.
func TestSpanContextIsAContext(t *testing.T) {
	tr := NewTracer(64)
	deadline := time.Now().Add(time.Hour)
	base, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	above := context.WithValue(base, ctxTestKey("above"), "a")

	outerCtx, outer := tr.StartCtx(above, "test.outer", "")
	below := context.WithValue(outerCtx, ctxTestKey("below"), "b")
	innerCtx, inner := tr.StartCtx(below, "test.inner", "")
	defer outer.Finish()
	defer inner.Finish()

	if got := SpanFromContext(outerCtx); got != outer {
		t.Errorf("SpanFromContext(outer ctx) = %p, want the outer span %p", got, outer)
	}
	if got := SpanFromContext(below); got != outer {
		t.Errorf("SpanFromContext through a WithValue = %p, want the outer span %p", got, outer)
	}
	if got := SpanFromContext(innerCtx); got != inner {
		t.Errorf("SpanFromContext(inner ctx) = %p, want the innermost span %p", got, inner)
	}
	if inner.parent != outer.id || inner.trace != outer.trace {
		t.Errorf("inner span is not the outer span's child: parent %v trace %v", inner.parent, inner.trace)
	}
	if got := SpanFromContext(ContextWithSpan(innerCtx, nil)); got != nil {
		t.Errorf("ContextWithSpan(ctx, nil) should hide the span, got %p", got)
	}

	for _, c := range []struct {
		key  ctxTestKey
		want any
	}{{"above", "a"}, {"below", "b"}, {"absent", nil}} {
		if got := innerCtx.Value(c.key); got != c.want {
			t.Errorf("inner ctx Value(%q) = %v, want %v", c.key, got, c.want)
		}
	}
	if got, ok := innerCtx.Deadline(); !ok || !got.Equal(deadline) {
		t.Errorf("Deadline = %v, %v; want the parent's %v", got, ok, deadline)
	}
	if innerCtx.Done() != base.Done() || innerCtx.Err() != nil {
		t.Errorf("Done/Err are not the parent's: %v", innerCtx.Err())
	}

	child, stop := context.WithCancel(innerCtx)
	defer stop()
	cancel()
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a WithCancel child of a span context was not cancelled with its ancestor")
	}
	if !errors.Is(child.Err(), context.Canceled) || !errors.Is(innerCtx.Err(), context.Canceled) {
		t.Errorf("after cancel: child Err %v, span ctx Err %v; want context.Canceled", child.Err(), innerCtx.Err())
	}
}

// TestSpanContextSharedAcrossGoroutines: many goroutines start children
// from one span context at once. Run it under -race.
func TestSpanContextSharedAcrossGoroutines(t *testing.T) {
	const workers, each = 8, 50
	tr := NewTracer(workers * each)
	ctx, root := tr.StartCtx(context.Background(), "test.root", "")
	defer root.Finish()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				cctx, sp := tr.StartCtx(ctx, "test.child", "")
				if SpanFromContext(cctx) != sp {
					t.Error("child context does not carry its own span")
				}
				sp.FinishDur(time.Since(sp.StartTime()), nil)
			}
		}()
	}
	wg.Wait()
	recs := tr.Recent()
	if len(recs) != workers*each {
		t.Fatalf("ring holds %d spans, want %d", len(recs), workers*each)
	}
	for _, r := range recs {
		if r.Parent != root.SpanID() || r.Trace != root.TraceID() || r.Depth != 1 {
			t.Fatalf("child %+v is not a direct child of the root", r)
		}
	}
}

// TestFinishDurRecordsCallerDuration: FinishDur records the duration it is
// given, in the trace ring and, for a span at or over the threshold, in
// the slow ring; a span under it stays out of the slow ring.
func TestFinishDurRecordsCallerDuration(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(10 * time.Millisecond)

	_, sp := tr.StartCtx(nil, "test.timed", "")
	sp.FinishDur(42*time.Millisecond, nil)
	_, quiet := tr.StartCtx(nil, "test.quiet", "")
	quiet.FinishDur(time.Millisecond, nil)

	recs := tr.Recent()
	if len(recs) != 2 || recs[0].Dur != 42*time.Millisecond || !recs[0].Start.Equal(sp.StartTime()) {
		t.Fatalf("ring = %+v, want test.timed with its caller's 42ms first", recs)
	}
	slow := tr.SlowOps()
	if len(slow) != 1 || slow[0].Op != "test.timed" || slow[0].Dur != 42*time.Millisecond {
		t.Fatalf("slow ring = %+v, want only test.timed at 42ms", slow)
	}
	var none *Span
	if none.StartTime().IsZero() {
		t.Error("a nil span's StartTime should be the current time")
	}
}

// TestStartCtxAllocatesOnce: a span and the context it hands out are one
// allocation, of 128 bytes: a span that grew past its size class would
// cost every traced op the next class.
func TestStartCtxAllocatesOnce(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := tr.StartCtx(context.Background(), "test.root", "")
	defer root.Finish()
	run := func() {
		_, sp := tr.StartCtx(ctx, "test.child", "")
		sp.Finish()
	}
	if got := testing.AllocsPerRun(100, run); got != 1 {
		t.Errorf("StartCtx and Finish allocate %v times, want 1", got)
	}
	if size := unsafe.Sizeof(Span{}); size != 128 {
		t.Errorf("Span is %d bytes, want 128", size)
	}
	// The bytes, as the allocator counts them: the least of a few tries,
	// so an allocation elsewhere in the process does not count.
	const n = 1000
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	if least > 128 {
		t.Errorf("StartCtx and Finish allocate %d bytes, want 128", least)
	}
}
