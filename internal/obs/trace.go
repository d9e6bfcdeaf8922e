package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"
)

// Causal trace trees. Every root span mints a TraceID and a SpanID; child
// spans carry their parent's SpanID, so the flat ring of finished OpRecords
// can be reassembled into the tree of sub-operations one user gesture
// fanned out into (Tracer.Trace). Identity propagates across goroutines
// and layers via context.Context (ContextWithSpan / SpanFromContext /
// StartCtx in tracectx.go), and a reassembled trace exports as Chrome
// trace-event JSON for ui.perfetto.dev (WriteTraceEvents in perfetto.go).

// TraceID identifies one causal tree of spans: all the work one root
// operation fanned out into. It renders as 16 hex digits.
type TraceID uint64

// String renders the id as 16 lower-case hex digits.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the id as a quoted hex string (a raw uint64 would
// lose precision in JSON consumers that read numbers as float64).
func (id TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// UnmarshalJSON parses the quoted hex form.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	v, err := unmarshalHexID(b)
	*id = TraceID(v)
	return err
}

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// SpanID identifies one span within a trace. It renders as 16 hex digits.
type SpanID uint64

// String renders the id as 16 lower-case hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the id as a quoted hex string.
func (id SpanID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// UnmarshalJSON parses the quoted hex form.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	v, err := unmarshalHexID(b)
	*id = SpanID(v)
	return err
}

func unmarshalHexID(b []byte) (uint64, error) {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return 0, err
	}
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad span/trace id %q: %w", s, err)
	}
	return v, nil
}

// spanIDs numbers spans process-wide; ids stay unique within any ring.
var spanIDs atomic.Uint64

func newSpanID() SpanID { return SpanID(spanIDs.Add(1)) }

// newTraceID mints a random trace id, so traces from different processes
// (or tracer resets) do not collide when exports are merged.
func newTraceID() TraceID {
	for {
		if id := TraceID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// OpRecord is one finished operation in the tracer's ring buffer.
type OpRecord struct {
	// Seq numbers finished ops from 1; gaps in a dump mean the ring wrapped.
	Seq uint64
	// Trace identifies the causal tree this span belongs to.
	Trace TraceID
	// Span is this span's id; Parent is the parent span's id (0 for roots).
	Span   SpanID
	Parent SpanID
	// Op names the operation ("dmi.create", "core.view", ...).
	Op string
	// Detail is a free-form argument summary (construct id, mark id, an
	// EXPLAIN plan line, ...).
	Detail string
	// Depth is the span's nesting depth (0 for roots).
	Depth int
	Start time.Time
	Dur   time.Duration
	// Err is the error text for failed ops, empty on success.
	Err string
}

// opRecordJSON is the wire shape of an OpRecord. Timing is machine-first:
// start_unix_ns and dur_ns are plain integer nanoseconds.
type opRecordJSON struct {
	Seq         uint64  `json:"seq"`
	Trace       TraceID `json:"trace_id,omitempty"`
	Span        SpanID  `json:"span_id,omitempty"`
	Parent      SpanID  `json:"parent_id,omitempty"`
	Op          string  `json:"op"`
	Detail      string  `json:"detail,omitempty"`
	Depth       int     `json:"depth"`
	StartUnixNS int64   `json:"start_unix_ns"`
	DurNS       int64   `json:"dur_ns"`
	Err         string  `json:"err,omitempty"`
}

func (r OpRecord) wire() opRecordJSON {
	return opRecordJSON{
		Seq: r.Seq, Trace: r.Trace, Span: r.Span, Parent: r.Parent,
		Op: r.Op, Detail: r.Detail, Depth: r.Depth,
		StartUnixNS: r.Start.UnixNano(), DurNS: int64(r.Dur),
		Err: r.Err,
	}
}

func (w opRecordJSON) record() OpRecord {
	return OpRecord{
		Seq: w.Seq, Trace: w.Trace, Span: w.Span, Parent: w.Parent,
		Op: w.Op, Detail: w.Detail, Depth: w.Depth,
		Start: time.Unix(0, w.StartUnixNS), Dur: time.Duration(w.DurNS), Err: w.Err,
	}
}

// MarshalJSON emits the machine-parseable shape: integer start_unix_ns and
// dur_ns, and hex trace/span/parent ids.
func (r OpRecord) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.wire())
}

// UnmarshalJSON accepts the wire shape.
func (r *OpRecord) UnmarshalJSON(b []byte) error {
	var w opRecordJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = w.record()
	return nil
}

// Sampling counters: roots kept vs. roots skipped by the probabilistic
// sampler. Error spans from unsampled traces are still recorded
// (always-on-error sampling), so dropped counts whole traces, not spans.
var (
	mTraceSampled = C(NameTraceSampled)
	mTraceDropped = C(NameTraceDropped)
)

// mSlowRecorded counts slow-ring entries; it lives in the same registry it
// observes, so scrapes reveal how often the threshold trips.
var mSlowRecorded = C("obs.slowops.recorded")

// DefaultSlowOpThreshold is the slow-op threshold tracers start with: high
// enough that index-served TRIM queries (~µs) never land in the slow ring,
// low enough to catch a full-store scan or a stalled base app.
const DefaultSlowOpThreshold = 10 * time.Millisecond

// spanRing keeps the last len(slots) spans published into it. Publishing
// a span is one atomic add, which numbers it, and one atomic pointer store
// into its slot: no lock and no copy. Readers build OpRecords from the
// spans when they read.
type spanRing struct {
	// seq counts the spans ever published. The span numbered n sits in
	// slots[(n-1) % len(slots)] until span n+len(slots) takes the slot.
	seq   atomic.Uint64
	slots []atomic.Pointer[Span]
}

// publish numbers a finished span and stores it into its slot. The span's
// fields are all written before the store, which is what makes them
// visible to readers.
func (r *spanRing) publish(s *Span) {
	s.seq = r.seq.Add(1)
	r.slots[(s.seq-1)%uint64(len(r.slots))].Store(s)
}

// recent returns the retained spans oldest-first, numbered by strictly
// rising Seq. A span still being published when recent reads its slot is
// left out, as is one a later span has already replaced.
func (r *spanRing) recent() []OpRecord {
	last := r.seq.Load()
	capacity := uint64(len(r.slots))
	first := uint64(1)
	if last > capacity {
		first = last - capacity + 1
	}
	out := make([]OpRecord, 0, last-first+1)
	for n := first; n <= last; n++ {
		if s := r.slots[(n-1)%capacity].Load(); s != nil && s.seq == n {
			out = append(out, s.record())
		}
	}
	return out
}

// reset discards the retained spans and restarts the sequence.
func (r *spanRing) reset() {
	r.seq.Store(0)
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
}

// Tracer keeps finished spans in two rings: a cheap, always-available
// flight recorder. The trace ring holds the last spans of sampled traces,
// plus every span that failed; the binaries dump it with -trace, and the
// diagnostics server reassembles it into per-trace trees. The slow ring
// holds the last ops that met the slow-op threshold, sampled or not: a
// copy of each slow span, so that each ring numbers its own records, and
// the ops that ran without a span (SlowOp). Each ring keeps its own
// capacity's worth of history, so fast spans never push a slow one out.
// All methods are safe for concurrent use and nil-safe, so packages can
// trace unconditionally.
type Tracer struct {
	enabled atomic.Bool
	// sampleBits holds math.Float64bits of the root-sampling rate.
	sampleBits atomic.Uint64
	// slowNS is the slow-op threshold; zero or below keeps the slow ring
	// empty.
	slowNS atomic.Int64
	ring   spanRing
	slow   spanRing
}

// NewTracer returns an enabled tracer whose rings each retain the last
// capacity ops (minimum 1), sampling every root (rate 1), with the default
// slow-op threshold.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{
		ring: spanRing{slots: make([]atomic.Pointer[Span], capacity)},
		slow: spanRing{slots: make([]atomic.Pointer[Span], capacity)},
	}
	t.enabled.Store(true)
	t.sampleBits.Store(math.Float64bits(1))
	t.slowNS.Store(int64(DefaultSlowOpThreshold))
	return t
}

// DefaultTracer is the process-wide flight recorder.
var DefaultTracer = NewTracer(256)

// SetEnabled turns recording on or off. When off, Start returns nil spans
// and the only cost per call site is one atomic load.
func (tr *Tracer) SetEnabled(on bool) {
	if tr != nil {
		tr.enabled.Store(on)
	}
}

// Enabled reports whether the tracer records.
func (tr *Tracer) Enabled() bool { return tr != nil && tr.enabled.Load() }

// SetSampleRate sets the probability that a new root span's trace is
// recorded. 1 (the default) records every trace; 0 records none. Spans of
// an unsampled trace still carry ids and still land in the ring when they
// finish with an error, so failures stay visible at any rate. The rate is
// one atomic store, safe to flip on a live process.
func (tr *Tracer) SetSampleRate(rate float64) {
	if tr == nil {
		return
	}
	rate = math.Min(1, math.Max(0, rate))
	tr.sampleBits.Store(math.Float64bits(rate))
}

// SampleRate returns the current root-sampling rate.
func (tr *Tracer) SampleRate() float64 {
	if tr == nil {
		return 0
	}
	return math.Float64frombits(tr.sampleBits.Load())
}

// sample decides one root span's fate. Rates 0 and 1 are deterministic.
func (tr *Tracer) sample() bool {
	switch rate := tr.SampleRate(); {
	case rate >= 1:
		return true
	case rate <= 0:
		return false
	default:
		return rand.Float64() < rate
	}
}

// Span is an in-flight operation. Spans are not goroutine-safe; a span
// belongs to the goroutine that started it (propagate identity to other
// goroutines through the context StartCtx returned, or ContextWithSpan,
// and start children there). A nil *Span is valid and all its methods
// no-op, so disabled tracing costs nothing at call sites.
//
// A finished span is the tracer's record of the op: its fields are set
// before the span is published into the ring and never change after, so
// readers on other goroutines need no lock. Finish a span once, and call
// SetDetail before finishing it. The struct is 128 bytes, one allocation
// size class; a field added here must fit in it.
type Span struct {
	tr     *Tracer
	op     string
	detail string
	// err is the error text of a span that finished with one.
	err string
	// start is when the span started, on the Nanotime clock; dur is set
	// when it finishes.
	start  int64
	dur    time.Duration
	trace  TraceID
	id     SpanID
	parent SpanID
	// seq numbers the span in its tracer's ring, set as it is published.
	seq     uint64
	depth   int32
	sampled bool
	// ctx is the context the span was started under. The span, as a
	// *spanCtx, is the context StartCtx hands out (tracectx.go), so a span
	// and its context are one allocation.
	ctx context.Context
}

// Start begins a root span, minting a fresh TraceID. Returns nil when the
// tracer is disabled or nil.
func (tr *Tracer) Start(op, detail string) *Span {
	if !tr.Enabled() {
		return nil
	}
	return tr.root(op, detail)
}

func (tr *Tracer) root(op, detail string) *Span {
	s := &Span{
		tr: tr, op: op, detail: detail, start: Nanotime(),
		trace: newTraceID(), id: newSpanID(), sampled: tr.sample(),
	}
	if s.sampled {
		mTraceSampled.Inc()
	} else {
		mTraceDropped.Inc()
	}
	return s
}

// Trace starts a root span on the DefaultTracer.
func Trace(op, detail string) *Span { return DefaultTracer.Start(op, detail) }

// Child begins a nested span one level deeper than s, inheriting s's
// TraceID and sampling decision.
func (s *Span) Child(op, detail string) *Span {
	if s == nil || !s.tr.Enabled() {
		return nil
	}
	return &Span{
		tr: s.tr, op: op, detail: detail, depth: s.depth + 1, start: Nanotime(),
		trace: s.trace, id: newSpanID(), parent: s.id, sampled: s.sampled,
	}
}

// TraceID returns the id of the trace the span belongs to (0 for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// SpanID returns the span's id (0 for nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Sampled reports whether the span's trace is being recorded.
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// SetDetail replaces the span's detail — how EXPLAIN attaches its plan
// line once the query has run. Call before Finish, from the owning
// goroutine.
func (s *Span) SetDetail(detail string) {
	if s != nil {
		s.detail = detail
	}
}

// StartNS returns when the span started, on the Nanotime clock. A nil span
// returns the current reading, so an op can time itself from StartNS
// whether or not it is traced: its latency histogram, its span and the
// store lock it takes then share one start reading of the clock.
func (s *Span) StartNS() int64 {
	if s == nil {
		return Nanotime()
	}
	return s.start
}

// StartTime returns when the span started, as a time of day. A nil span
// returns the current time.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Now()
	}
	return wallTime(s.start)
}

// Finish records the span into the ring buffer.
func (s *Span) Finish() { s.FinishErr(nil) }

// FinishErr records the span, tagging it with the error when non-nil.
// Unsampled spans are recorded only when they carry an error (always-on-
// error sampling). Spans that met the slow-op threshold also land in the
// slow ring regardless of sampling, so every traced layer feeds it for
// free.
func (s *Span) FinishErr(err error) {
	if s == nil {
		return
	}
	s.FinishDur(time.Duration(Nanotime()-s.start), err)
}

// FinishDur is FinishErr with a duration the caller already measured from
// StartNS, for an op that observes its own latency: the op and its span
// then share one end read of the clock.
func (s *Span) FinishDur(dur time.Duration, err error) {
	if s == nil {
		return
	}
	s.dur = dur
	if err != nil {
		s.err = err.Error()
	}
	if s.tr.Slow(dur) {
		c := *s
		s.tr.slow.publish(&c)
		mSlowRecorded.Inc()
	}
	if s.sampled || err != nil {
		s.tr.ring.publish(s)
	}
}

// SetSlowThreshold replaces the slow-op threshold; zero or negative keeps
// the slow ring empty.
func (tr *Tracer) SetSlowThreshold(d time.Duration) {
	if tr != nil {
		tr.slowNS.Store(int64(d))
	}
}

// SlowThreshold returns the slow-op threshold.
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return time.Duration(tr.slowNS.Load())
}

// Slow reports whether an op that took d meets the slow-op threshold: one
// atomic load.
func (tr *Tracer) Slow(d time.Duration) bool {
	if tr == nil {
		return false
	}
	t := tr.slowNS.Load()
	return t > 0 && int64(d) >= t
}

// SlowOp publishes an op that ran without a span of its own (a mark op,
// or a query while its caller was untraced) into the slow ring when dur
// meets the threshold. detail renders the op's detail and runs only then,
// so a fast op builds no string. The entry carries no trace ids.
func (tr *Tracer) SlowOp(op string, dur time.Duration, err error, detail func() string) {
	if !tr.Slow(dur) {
		return
	}
	s := &Span{tr: tr, op: op, detail: detail(), start: Nanotime() - int64(dur), dur: dur}
	if err != nil {
		s.err = err.Error()
	}
	tr.slow.publish(s)
	mSlowRecorded.Inc()
}

// record builds the OpRecord of a published span.
func (s *Span) record() OpRecord {
	return OpRecord{
		Seq: s.seq, Trace: s.trace, Span: s.id, Parent: s.parent,
		Op: s.op, Detail: s.detail, Depth: int(s.depth),
		Start: wallTime(s.start), Dur: s.dur, Err: s.err,
	}
}

// Recent returns the trace ring's ops oldest-first, numbered by strictly
// rising Seq.
func (tr *Tracer) Recent() []OpRecord {
	if tr == nil {
		return nil
	}
	return tr.ring.recent()
}

// SlowOps returns the slow ring's ops oldest-first, numbered by strictly
// rising Seq of their own.
func (tr *Tracer) SlowOps() []OpRecord {
	if tr == nil {
		return nil
	}
	return tr.slow.recent()
}

// Reset discards the ops both rings retain and restarts their sequences,
// keeping the threshold. A span published while Reset runs may survive it
// or not; Recent and SlowOps never report it under a number it does not
// hold.
func (tr *Tracer) Reset() {
	if tr == nil {
		return
	}
	tr.ring.reset()
	tr.slow.reset()
}

// WriteText dumps the retained ops oldest-first, one per line, indented by
// nesting depth — the post-mortem view behind slimpad -trace. Each line
// leads with the op's trace id, so related lines group visually even when
// traces interleave.
func (tr *Tracer) WriteText(w io.Writer) error {
	recs := tr.Recent()
	if _, err := fmt.Fprintf(w, "== recent ops (%d) ==\n", len(recs)); err != nil {
		return err
	}
	for _, r := range recs {
		indent := ""
		for i := 0; i < r.Depth; i++ {
			indent += "  "
		}
		suffix := ""
		if r.Err != "" {
			suffix = " err=" + r.Err
		}
		if _, err := fmt.Fprintf(w, "#%d %s %s%s %s %s%s\n",
			r.Seq, r.Trace, indent, r.Op, r.Detail, r.Dur.Round(time.Microsecond), suffix); err != nil {
			return err
		}
	}
	return nil
}
