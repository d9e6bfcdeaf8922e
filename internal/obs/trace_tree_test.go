package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStartCtxPropagation drives the cross-goroutine contract under the
// race detector: the context, not the span, crosses goroutine hops, and
// children started on other goroutines still land in the parent's tree.
func TestStartCtxPropagation(t *testing.T) {
	tr := NewTracer(128)
	ctx, root := tr.StartCtx(nil, "test.root", "")
	if root == nil {
		t.Fatal("StartCtx on an enabled tracer returned a nil span")
	}
	if got := SpanFromContext(ctx); got != root {
		t.Fatalf("SpanFromContext = %p, want the root %p", got, root)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			childCtx, child := tr.StartCtx(ctx, "test.child", "")
			_, grand := tr.StartCtx(childCtx, "test.grandchild", "")
			grand.Finish()
			child.Finish()
		}()
	}
	wg.Wait()
	root.Finish()

	recs := tr.TraceOps(root.TraceID())
	if want := 2*workers + 1; len(recs) != want {
		t.Fatalf("trace holds %d records, want %d", len(recs), want)
	}
	spanParents := map[SpanID]SpanID{}
	for _, r := range recs {
		if r.Trace != root.TraceID() {
			t.Fatalf("record %q has trace %s, want %s", r.Op, r.Trace, root.TraceID())
		}
		spanParents[r.Span] = r.Parent
	}
	for _, r := range recs {
		switch r.Op {
		case "test.root":
			if r.Parent != 0 || r.Depth != 0 {
				t.Errorf("root record = %+v", r)
			}
		case "test.child":
			if r.Parent != root.SpanID() || r.Depth != 1 {
				t.Errorf("child record = %+v (root span %s)", r, root.SpanID())
			}
		case "test.grandchild":
			if parent := spanParents[r.Parent]; parent != root.SpanID() || r.Depth != 2 {
				t.Errorf("grandchild record = %+v; its parent's parent = %s, want root %s",
					r, parent, root.SpanID())
			}
		}
	}

	tree := tr.Trace(root.TraceID())
	if tree == nil || len(tree.Roots) != 1 || tree.Spans != 2*workers+1 {
		t.Fatalf("tree = %+v", tree)
	}
	if got := len(tree.Roots[0].Children); got != workers {
		t.Fatalf("root has %d children, want %d", got, workers)
	}
}

// TestStartCtxForeignParent: a span recorded by one tracer does not chain
// into another tracer's ring — the child becomes a fresh root instead.
func TestStartCtxForeignParent(t *testing.T) {
	a, b := NewTracer(8), NewTracer(8)
	ctx, pa := a.StartCtx(nil, "a.root", "")
	_, child := b.StartCtx(ctx, "b.root", "")
	if child.TraceID() == pa.TraceID() {
		t.Fatalf("span on tracer b inherited tracer a's trace id %s", pa.TraceID())
	}
	child.Finish()
	recs := b.Recent()
	if len(recs) != 1 || recs[0].Parent != 0 || recs[0].Depth != 0 {
		t.Fatalf("foreign-parent child recorded as %+v, want a fresh root", recs)
	}
}

// TestSamplingDeterministic locks the rate-0 and rate-1 edges: no coin
// flip, and error spans always record.
func TestSamplingDeterministic(t *testing.T) {
	tr := NewTracer(32)

	tr.SetSampleRate(0)
	for i := 0; i < 10; i++ {
		_, sp := tr.StartCtx(nil, "test.dropped", "")
		if sp.Sampled() {
			t.Fatal("rate 0 sampled a root")
		}
		sp.Finish()
	}
	if recs := tr.Recent(); len(recs) != 0 {
		t.Fatalf("rate 0 recorded %d clean spans", len(recs))
	}
	// Always-on-error: the failing span still lands in the ring.
	_, sp := tr.StartCtx(nil, "test.failure", "")
	sp.FinishErr(errors.New("boom"))
	recs := tr.Recent()
	if len(recs) != 1 || recs[0].Err != "boom" {
		t.Fatalf("rate 0 with error recorded %+v, want the one failing span", recs)
	}

	tr.Reset()
	tr.SetSampleRate(1)
	for i := 0; i < 10; i++ {
		_, sp := tr.StartCtx(nil, "test.kept", "")
		if !sp.Sampled() {
			t.Fatal("rate 1 dropped a root")
		}
		sp.Finish()
	}
	if recs := tr.Recent(); len(recs) != 10 {
		t.Fatalf("rate 1 recorded %d spans, want 10", len(recs))
	}

	// Children inherit the root's decision rather than re-flipping.
	tr.Reset()
	tr.SetSampleRate(0)
	ctx, root := tr.StartCtx(nil, "test.root", "")
	_, child := tr.StartCtx(ctx, "test.child", "")
	if child.Sampled() {
		t.Fatal("child re-sampled under an unsampled root")
	}
	child.Finish()
	root.Finish()
	if recs := tr.Recent(); len(recs) != 0 {
		t.Fatalf("unsampled family recorded %+v", recs)
	}

	// Out-of-range rates clamp.
	tr.SetSampleRate(7)
	if got := tr.SampleRate(); got != 1 {
		t.Fatalf("SetSampleRate(7) → %v, want 1", got)
	}
	tr.SetSampleRate(-3)
	if got := tr.SampleRate(); got != 0 {
		t.Fatalf("SetSampleRate(-3) → %v, want 0", got)
	}
}

// TestOpRecordJSONShape pins the wire format: machine-first timing
// (start_unix_ns, dur_ns) and hex ids, with no RFC3339 start key.
func TestOpRecordJSONShape(t *testing.T) {
	rec := OpRecord{
		Seq: 7, Trace: 0xabcd, Span: 0x12, Parent: 0x11,
		Op: "trim.select", Detail: "s??", Depth: 2,
		Start: time.Unix(100, 250).UTC(), Dur: 1500 * time.Nanosecond,
		Err: "boom",
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{
		"seq":           float64(7),
		"trace_id":      "000000000000abcd",
		"span_id":       "0000000000000012",
		"parent_id":     "0000000000000011",
		"op":            "trim.select",
		"start_unix_ns": float64(100*1e9 + 250),
		"dur_ns":        float64(1500),
		"err":           "boom",
	} {
		if got := m[key]; got != want {
			t.Errorf("json[%q] = %v (%T), want %v", key, got, got, want)
		}
	}
	if _, ok := m["start"]; ok {
		t.Errorf("legacy start key still emitted: %v", m)
	}

	var back OpRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Start.Equal(rec.Start) || back.Dur != rec.Dur || back.Trace != rec.Trace ||
		back.Span != rec.Span || back.Parent != rec.Parent {
		t.Fatalf("round trip = %+v, want %+v", back, rec)
	}

	// The start comes from start_unix_ns alone; an RFC3339 start key is
	// ignored.
	var legacy OpRecord
	if err := json.Unmarshal([]byte(`{"seq":1,"op":"x","start":"2026-01-02T03:04:05Z","start_unix_ns":5,"dur_ns":9}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if want := time.Unix(0, 5); !legacy.Start.Equal(want) {
		t.Fatalf("start = %v, want %v from start_unix_ns", legacy.Start, want)
	}
}

// TestTraceNodeJSONRoundTrip guards against the embedded OpRecord's custom
// marshaller swallowing the Children field.
func TestTraceNodeJSONRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartCtx(nil, "test.root", "")
	_, child := tr.StartCtx(ctx, "test.child", "")
	child.Finish()
	root.Finish()

	tree := tr.Trace(root.TraceID())
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceTree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tree.ID || back.Spans != 2 || len(back.Roots) != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	if len(back.Roots[0].Children) != 1 || back.Roots[0].Children[0].Op != "test.child" {
		t.Fatalf("children lost in round trip: %s", data)
	}
}

// TestTraceAssemblyOrphanPromotion: when the ring wraps past a trace's
// root, the surviving spans are promoted to roots instead of vanishing.
func TestTraceAssemblyOrphanPromotion(t *testing.T) {
	tr := NewTracer(2) // holds two records: the last two children
	ctx, root := tr.StartCtx(nil, "test.root", "")
	var children []*Span
	for i := 0; i < 3; i++ {
		_, c := tr.StartCtx(ctx, "test.child", "")
		children = append(children, c)
	}
	for _, c := range children {
		c.Finish()
	}
	root.Finish() // evicts the first child; the root record evicts the second

	tree := tr.Trace(root.TraceID())
	if tree == nil {
		t.Fatal("trace vanished entirely")
	}
	if tree.Spans != 2 {
		t.Fatalf("retained %d spans, want 2", tree.Spans)
	}
	// The retained child's parent (the root) survives alongside it, so one
	// root with one child; had the root been evicted too, the child would
	// be promoted. Exercise that case as well.
	if len(tree.Roots) != 1 || len(tree.Roots[0].Children) != 1 {
		t.Fatalf("tree = %+v", tree)
	}

	tr2 := NewTracer(1)
	ctx2, root2 := tr2.StartCtx(nil, "test.root", "")
	_, only := tr2.StartCtx(ctx2, "test.child", "")
	only.Finish()
	root2.Finish() // evicts the child... then the root is the only record
	_, late := tr2.StartCtx(ContextWithSpan(nil, root2), "test.late", "")
	late.Finish() // evicts the root: a parentless child remains

	tree2 := tr2.Trace(root2.TraceID())
	if tree2 == nil || len(tree2.Roots) != 1 || tree2.Roots[0].Op != "test.late" {
		t.Fatalf("orphan not promoted: %+v", tree2)
	}
	if tree2.Roots[0].Depth != 1 {
		t.Fatalf("promoted orphan lost its recorded depth: %+v", tree2.Roots[0])
	}
}

// TestTracerRoots covers the /debug/traces index: newest root first, one
// summary per trace, shallowest surviving span as the face.
func TestTracerRoots(t *testing.T) {
	tr := NewTracer(16)
	_, first := tr.StartCtx(nil, "test.first", "")
	first.Finish()
	ctx, second := tr.StartCtx(nil, "test.second", "")
	_, child := tr.StartCtx(ctx, "test.child", "")
	child.Finish()
	second.Finish()

	roots := tr.Index().Traces
	if len(roots) != 2 {
		t.Fatalf("roots = %+v, want 2", roots)
	}
	if roots[0].Op != "test.second" || roots[0].Spans != 2 {
		t.Errorf("newest root = %+v, want test.second with 2 spans", roots[0])
	}
	if roots[1].Op != "test.first" || roots[1].Spans != 1 {
		t.Errorf("older root = %+v, want test.first with 1 span", roots[1])
	}
}

// TestPerfettoGolden locks the trace-event encoding against a golden file:
// phase-X complete events, microsecond timestamps, greedy per-trace track
// assignment, span ids in args.
func TestPerfettoGolden(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	recs := []OpRecord{
		{Seq: 1, Trace: 0xa, Span: 1, Op: "trim.select", Detail: "s??",
			Start: base.Add(10 * time.Microsecond), Dur: 30 * time.Microsecond},
		{Seq: 2, Trace: 0xa, Span: 2, Parent: 3, Op: "trim.create",
			Start: base.Add(50 * time.Microsecond), Dur: 20 * time.Microsecond, Err: "boom"},
		{Seq: 3, Trace: 0xa, Span: 3, Op: "dmi.create", Detail: "Bundle",
			Start: base, Dur: 100 * time.Microsecond},
		// A second trace gets its own disjoint track range.
		{Seq: 4, Trace: 0xb, Span: 4, Op: "core.view", Detail: "simultaneous m1",
			Start: base.Add(5 * time.Microsecond), Dur: 40 * time.Microsecond},
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, recs); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/obs -run Perfetto -update`)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("perfetto encoding drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// Whatever the bytes, the output must remain loadable trace-event JSON.
	var f struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			TS  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			TID int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != len(recs) {
		t.Fatalf("%d events, want %d", len(f.TraceEvents), len(recs))
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" || ev.TID == 0 {
			t.Errorf("malformed event %+v", ev)
		}
	}
}

// TestWriteTraceEventsTrackAssignment: overlapping spans of one trace get
// distinct tracks; sequential spans reuse the first.
func TestWriteTraceEventsTrackAssignment(t *testing.T) {
	base := time.Unix(2000, 0).UTC()
	recs := []OpRecord{
		{Seq: 1, Trace: 0xc, Span: 1, Op: "a", Start: base, Dur: 100 * time.Microsecond},
		{Seq: 2, Trace: 0xc, Span: 2, Op: "b", Start: base.Add(10 * time.Microsecond), Dur: 10 * time.Microsecond},
		{Seq: 3, Trace: 0xc, Span: 3, Op: "c", Start: base.Add(200 * time.Microsecond), Dur: 10 * time.Microsecond},
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, ev := range f.TraceEvents {
		tid[ev.Name] = ev.TID
	}
	if tid["a"] == tid["b"] {
		t.Errorf("overlapping spans share track %d:\n%s", tid["a"], buf.Bytes())
	}
	if tid["a"] != tid["c"] {
		t.Errorf("sequential span c got track %d, want a's track %d", tid["c"], tid["a"])
	}
}

// TestWriteTextIncludesTraceIDs: the -trace text dump leads each line with
// the trace id so interleaved traces group visually.
func TestWriteTextIncludesTraceIDs(t *testing.T) {
	tr := NewTracer(8)
	_, sp := tr.StartCtx(nil, "test.op", "detail")
	sp.Finish()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, sp.TraceID().String()) || !strings.Contains(out, "test.op") {
		t.Fatalf("WriteText output missing trace id or op:\n%s", out)
	}
}
