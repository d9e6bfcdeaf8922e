package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTracerRingConcurrent drives both lock-free rings under -race:
// writers finish spans, every fifth one slow, while readers call Recent,
// SlowOps, Trace, Index, WriteTraceEvents and /debug/traces, and one
// goroutine resets the rings mid-stream. Every record a reader sees must
// be whole — its fields all from one span — and each snapshot's Seq must
// rise strictly. A span field written after the span is published would
// show up here as a race.
func TestTracerRingConcurrent(t *testing.T) {
	const writers, spans = 4, 2000
	const slowAt = time.Hour
	tr := NewTracer(64)
	tr.SetSlowThreshold(slowAt)
	dur := func(w, i int) time.Duration {
		d := time.Duration(w*spans + i)
		if i%5 == 0 {
			d += slowAt
		}
		return d
	}
	var done atomic.Bool
	var wg, readers sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, root := tr.StartCtx(context.Background(), fmt.Sprintf("ring.w%d", w), "")
			for i := 0; i < spans; i++ {
				_, sp := tr.StartCtx(ctx, fmt.Sprintf("ring.w%d", w), "")
				sp.SetDetail(fmt.Sprintf("w%d-%d", w, i))
				var err error
				if i%7 == 0 {
					err = fmt.Errorf("w%d-%d", w, i)
				}
				sp.FinishDur(dur(w, i), err)
			}
			root.Finish()
		}(w)
	}
	check := func(recs []OpRecord, slowOnly bool) {
		var last uint64
		for _, r := range recs {
			if r.Seq <= last {
				t.Errorf("Seq %d after %d: not strictly rising", r.Seq, last)
				return
			}
			last = r.Seq
			var w, i int
			if r.Depth == 0 {
				continue // a writer's root
			}
			if _, err := fmt.Sscanf(r.Detail, "w%d-%d", &w, &i); err != nil ||
				r.Op != fmt.Sprintf("ring.w%d", w) || r.Dur != dur(w, i) ||
				(i%7 == 0) != (r.Err == r.Detail) || r.Parent == 0 || r.Trace == 0 ||
				(slowOnly && i%5 != 0) {
				t.Errorf("torn record %+v", r)
				return
			}
		}
	}
	mux := NewDiagMux(ServeConfig{Tracer: tr, Registry: NewRegistry()})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for !done.Load() {
				recs := tr.Recent()
				check(recs, false)
				check(tr.SlowOps(), true)
				switch r {
				case 0:
					if len(recs) > 0 {
						tr.Trace(recs[len(recs)-1].Trace)
					}
				case 1:
					tr.Index()
				case 2:
					if err := WriteTraceEvents(io.Discard, recs); err != nil {
						t.Error(err)
					}
				case 3:
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
					var idx TraceIndex
					if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
						t.Errorf("/debug/traces: %v", err)
					}
					for _, s := range idx.Slow {
						if s.DurNS < int64(slowAt) {
							t.Errorf("/debug/traces slow row under the threshold: %+v", s)
						}
					}
				}
			}
		}(r)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !done.Load() {
			time.Sleep(time.Millisecond)
			tr.Reset()
		}
	}()
	wg.Wait()
	done.Store(true)
	readers.Wait()

	// Quiet again, each ring holds its newest spans in order, numbered by
	// its own sequence.
	tr.Reset()
	for i := 0; i < 100; i++ {
		_, sp := tr.StartCtx(nil, "ring.after", fmt.Sprint(i))
		d := time.Duration(0)
		if i%2 == 1 {
			d = slowAt
		}
		sp.FinishDur(d, errors.New("x"))
	}
	recs := tr.Recent()
	if len(recs) != 64 || recs[0].Seq != 37 || recs[63].Seq != 100 || recs[63].Detail != "99" {
		t.Fatalf("after the run: %d records, seq %d..%d", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
	slow := tr.SlowOps()
	if len(slow) != 50 || slow[0].Seq != 1 || slow[0].Detail != "1" || slow[49].Seq != 50 || slow[49].Detail != "99" {
		t.Fatalf("after the run: %d slow records, seq %d..%d", len(slow), slow[0].Seq, slow[len(slow)-1].Seq)
	}
}

// TestSlowSpanLandsOnce: a span at or over the threshold lands in the slow
// ring once, with its op, detail, duration, error and trace ids, whether
// or not its trace was sampled, and obs.slowops.recorded counts it. The
// slow ring numbers its copy itself.
func TestSlowSpanLandsOnce(t *testing.T) {
	tr := NewTracer(16)
	tr.SetSlowThreshold(time.Millisecond)
	for _, rate := range []float64{1, 0} {
		tr.Reset()
		tr.SetSampleRate(rate)
		recorded := mSlowRecorded.Value()
		ctx, root := tr.StartCtx(nil, "test.root", "")
		_, fast := tr.StartCtx(ctx, "test.fast", "")
		fast.FinishDur(time.Microsecond, nil)
		_, sp := tr.StartCtx(ctx, "test.slow", "why")
		sp.FinishDur(5*time.Millisecond, errors.New("boom"))
		root.FinishDur(time.Microsecond, nil)

		slow := tr.SlowOps()
		if len(slow) != 1 {
			t.Fatalf("rate %g: slow ring = %+v, want the one slow span", rate, slow)
		}
		if got := mSlowRecorded.Value() - recorded; got != 1 {
			t.Errorf("rate %g: obs.slowops.recorded rose by %d, want 1", rate, got)
		}
		r := slow[0]
		if r.Seq != 1 || r.Op != "test.slow" || r.Detail != "why" || r.Dur != 5*time.Millisecond ||
			r.Err != "boom" || r.Trace != root.TraceID() || r.Parent != root.SpanID() || r.Depth != 1 {
			t.Fatalf("rate %g: slow record = %+v", rate, r)
		}
		// The trace ring keeps its own numbering: sampled, it holds all
		// three spans, the slow one second; unsampled, only the error span.
		recs := tr.Recent()
		want, seq := 3, uint64(2)
		if rate == 0 {
			want, seq = 1, 1
		}
		if len(recs) != want || recs[seq-1].Op != "test.slow" || recs[seq-1].Seq != seq {
			t.Fatalf("rate %g: trace ring = %+v", rate, recs)
		}
	}
}

// TestSlowRingSurvivesFastSpans: the slow ring is not a filter over the
// trace ring, so a burst of fast spans (one browse read makes ~55) does
// not push a slow span out of it.
func TestSlowRingSurvivesFastSpans(t *testing.T) {
	tr := NewTracer(256)
	tr.SetSlowThreshold(time.Millisecond)
	for i := 0; i < 3; i++ {
		tr.Start("test.slow", fmt.Sprint(i)).FinishDur(2*time.Millisecond, nil)
	}
	for i := 0; i < 1000; i++ {
		tr.Start("test.fast", "").FinishDur(time.Microsecond, nil)
	}
	for _, r := range tr.Recent() {
		if r.Op != "test.fast" {
			t.Fatalf("trace ring still holds %+v after 1,000 fast spans", r)
		}
	}
	idx := tr.Index()
	if len(idx.Slow) != 3 {
		t.Fatalf("slow rows = %+v, want the 3 slow spans", idx.Slow)
	}
	for i, s := range idx.Slow {
		if want := fmt.Sprint(2 - i); s.Op != "test.slow" || s.Detail != want || s.Spans != 0 {
			t.Errorf("slow row %d = %+v, want test.slow %s newest first, its tree gone", i, s, want)
		}
	}
}

func TestSlowOpJournalThreshold(t *testing.T) {
	tr := NewTracer(8)
	if got := tr.SlowThreshold(); got != DefaultSlowOpThreshold {
		t.Fatalf("SlowThreshold = %s, want %s", got, DefaultSlowOpThreshold)
	}
	tr.SetSlowThreshold(10 * time.Millisecond)
	if tr.Slow(time.Millisecond) {
		t.Error("1ms should not be slow at a 10ms threshold")
	}
	if !tr.Slow(10 * time.Millisecond) {
		t.Error("threshold is inclusive: 10ms should be slow")
	}
	tr.SlowOp("fast.op", time.Millisecond, nil, func() string {
		t.Error("a fast op built its detail")
		return ""
	})
	if got := tr.SlowOps(); len(got) != 0 {
		t.Fatalf("fast op journaled: %+v", got)
	}
	tr.SlowOp("slow.op", 25*time.Millisecond, nil, func() string { return "detail" })
	got := tr.SlowOps()
	if len(got) != 1 || got[0].Op != "slow.op" || got[0].Detail != "detail" || got[0].Dur != 25*time.Millisecond {
		t.Fatalf("SlowOps = %+v", got)
	}
	if got[0].Seq != 1 || got[0].Trace != 0 || got[0].Span != 0 {
		t.Fatalf("a spanless slow op = %+v, want seq 1 and no ids", got[0])
	}
	if len(tr.Recent()) != 0 {
		t.Fatal("a spanless slow op reached the trace ring")
	}

	// Zero threshold disables recording entirely.
	tr.SetSlowThreshold(0)
	if tr.Slow(time.Hour) {
		t.Error("zero threshold must disable Slow")
	}
	tr.SlowOp("slow.op", time.Hour, nil, func() string { return "" })
	tr.Start("slow.span", "").FinishDur(time.Hour, nil)
	if got := tr.SlowOps(); len(got) != 1 {
		t.Fatalf("disabled slow ring recorded: %+v", got)
	}
}

func TestSlowOpJournalRingWrap(t *testing.T) {
	tr := NewTracer(3)
	tr.SetSlowThreshold(time.Millisecond)
	for i := 0; i < 5; i++ {
		tr.SlowOp("op", time.Duration(i+2)*time.Millisecond, nil, func() string { return "" })
	}
	got := tr.SlowOps()
	if len(got) != 3 {
		t.Fatalf("ring of 3 holds %d", len(got))
	}
	// Oldest-first: seqs 3, 4, 5 survive.
	for i, wantSeq := range []uint64{3, 4, 5} {
		if got[i].Seq != wantSeq {
			t.Fatalf("SlowOps[%d].Seq = %d, want %d (%+v)", i, got[i].Seq, wantSeq, got)
		}
	}
	tr.Reset()
	if got := tr.SlowOps(); len(got) != 0 {
		t.Fatalf("Reset left %+v", got)
	}
	if tr.SlowThreshold() != time.Millisecond {
		t.Fatal("Reset changed the threshold")
	}
	tr.SlowOp("op", 5*time.Millisecond, nil, func() string { return "" })
	if got := tr.SlowOps(); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("post-Reset seq restart: %+v", got)
	}
}

func TestSlowOpJournalNilSafe(t *testing.T) {
	var tr *Tracer
	tr.SetSlowThreshold(time.Second)
	if tr.SlowThreshold() != 0 || tr.Slow(time.Hour) {
		t.Error("nil tracer must report zero threshold and never slow")
	}
	tr.SlowOp("op", time.Hour, nil, func() string { return "" })
	if got := tr.SlowOps(); got != nil {
		t.Errorf("nil tracer SlowOps = %v", got)
	}
	if idx := tr.Index(); len(idx.Traces) != 0 || len(idx.Slow) != 0 {
		t.Errorf("nil tracer Index = %+v", idx)
	}
	tr.Reset()
}

// TestSlowOpJournalJSON: /debug/traces carries the slow ring as summary
// rows with the threshold; an empty ring is [], never null, and a spanless
// op's row has no trace id.
func TestSlowOpJournalJSON(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(time.Millisecond)
	b, err := json.Marshal(tr.Index())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"slow":[]`) {
		t.Fatalf("empty slow ring must be [], got %s", b)
	}
	tr.SlowOp("trim.select", 5*time.Millisecond, errors.New("boom"), func() string { return "op=select index=subject" })
	b, err = json.Marshal(tr.Index())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"trace_id"`) {
		t.Errorf("a spanless slow op's row carries a trace id: %s", b)
	}
	var decoded TraceIndex
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("/debug/traces JSON does not round-trip: %v\n%s", err, b)
	}
	if decoded.SlowThresholdNS != int64(time.Millisecond) {
		t.Errorf("slow_threshold_ns = %d", decoded.SlowThresholdNS)
	}
	if len(decoded.Slow) != 1 || decoded.Slow[0].Op != "trim.select" || decoded.Slow[0].Err != "boom" ||
		decoded.Slow[0].DurNS != int64(5*time.Millisecond) || decoded.Slow[0].Detail != "op=select index=subject" {
		t.Errorf("slow = %+v", decoded.Slow)
	}
}
