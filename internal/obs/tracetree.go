package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Per-trace assembly: the ring holds finished spans flat and interleaved
// across traces; these helpers pull one trace's records out and rebuild
// the parent/child tree for /debug/trace/{id}, trimq trace, and the
// Perfetto exporter.

// TraceNode is one span in a reassembled trace tree.
type TraceNode struct {
	OpRecord
	Children []*TraceNode `json:"children,omitempty"`
}

// traceNodeJSON flattens the record fields next to children. Without it the
// embedded OpRecord's custom MarshalJSON would be promoted to TraceNode and
// silently drop Children.
type traceNodeJSON struct {
	opRecordJSON
	Children []*TraceNode `json:"children,omitempty"`
}

// MarshalJSON emits the record's wire shape with a children array.
func (n TraceNode) MarshalJSON() ([]byte, error) {
	return json.Marshal(traceNodeJSON{opRecordJSON: n.OpRecord.wire(), Children: n.Children})
}

// UnmarshalJSON accepts the same shape.
func (n *TraceNode) UnmarshalJSON(b []byte) error {
	var w traceNodeJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	n.OpRecord = w.opRecordJSON.record()
	n.Children = w.Children
	return nil
}

// TraceTree is a reassembled trace. Roots usually holds one node; it holds
// several when the ring wrapped past a trace's real root (the surviving
// orphans are promoted) or when an unsampled trace recorded only its error
// spans.
type TraceTree struct {
	ID    TraceID      `json:"trace_id"`
	Roots []*TraceNode `json:"roots"`
	// Spans counts the records retained for this trace.
	Spans int `json:"spans"`
}

// TraceOps returns the retained records of one trace, oldest-first, or nil
// when the ring holds none.
func (tr *Tracer) TraceOps(id TraceID) []OpRecord {
	var out []OpRecord
	for _, r := range tr.Recent() {
		if r.Trace == id {
			out = append(out, r)
		}
	}
	return out
}

// Trace reassembles the retained spans of one trace into a tree. Returns
// nil when the ring holds no record of the trace.
func (tr *Tracer) Trace(id TraceID) *TraceTree {
	return assembleTree(id, tr.TraceOps(id))
}

func assembleTree(id TraceID, recs []OpRecord) *TraceTree {
	if len(recs) == 0 {
		return nil
	}
	nodes := make(map[SpanID]*TraceNode, len(recs))
	for _, r := range recs {
		nodes[r.Span] = &TraceNode{OpRecord: r}
	}
	t := &TraceTree{ID: id, Spans: len(recs)}
	for _, r := range recs {
		n := nodes[r.Span]
		if parent, ok := nodes[r.Parent]; ok && r.Parent != 0 {
			parent.Children = append(parent.Children, n)
		} else {
			// True root, or an orphan whose ancestors fell off the ring.
			t.Roots = append(t.Roots, n)
		}
	}
	sortNodes(t.Roots)
	for _, n := range nodes {
		sortNodes(n.Children)
	}
	return t
}

func sortNodes(ns []*TraceNode) {
	sort.Slice(ns, func(i, j int) bool {
		if !ns[i].Start.Equal(ns[j].Start) {
			return ns[i].Start.Before(ns[j].Start)
		}
		return ns[i].Seq < ns[j].Seq
	})
}

// WriteText dumps the tree indented by causal depth, children under their
// parents in start order.
func (t *TraceTree) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== trace %s (%d spans) ==\n", t.ID, t.Spans); err != nil {
		return err
	}
	var walk func(n *TraceNode, indent string) error
	walk = func(n *TraceNode, indent string) error {
		suffix := ""
		if n.Err != "" {
			suffix = " err=" + n.Err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s %s%s\n",
			indent, n.Op, n.Detail, n.Dur.Round(time.Microsecond), suffix); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, indent+"  "); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(r, ""); err != nil {
			return err
		}
	}
	return nil
}

// TraceSummary is one row of the /debug/traces index: a trace's root, or
// one op of the slow ring.
type TraceSummary struct {
	// Trace is 0, and left out, for a slow op that ran without a span.
	Trace  TraceID   `json:"trace_id,omitempty"`
	Op     string    `json:"op"`
	Detail string    `json:"detail,omitempty"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
	Err    string    `json:"err,omitempty"`
	// Spans counts the records the trace ring retains of the whole trace.
	Spans int `json:"spans"`
}

func summary(r OpRecord, spans int) TraceSummary {
	return TraceSummary{
		Trace: r.Trace, Op: r.Op, Detail: r.Detail, Start: r.Start,
		DurNS: int64(r.Dur), Err: r.Err, Spans: spans,
	}
}

// roots summarizes the traces of recs, newest root first, and counts the
// records of each trace. A trace whose root fell off the ring is
// summarized by its oldest surviving span.
func roots(recs []OpRecord) ([]TraceSummary, map[TraceID]int) {
	spanCount := make(map[TraceID]int, len(recs))
	best := make(map[TraceID]OpRecord, len(recs))
	var order []TraceID
	for _, r := range recs {
		if spanCount[r.Trace] == 0 {
			order = append(order, r.Trace)
			best[r.Trace] = r
		}
		spanCount[r.Trace]++
		// Prefer the shallowest span as the trace's face; ties keep the
		// earliest (records arrive finish-ordered, roots finish last).
		if b := best[r.Trace]; r.Depth < b.Depth {
			best[r.Trace] = r
		}
	}
	out := make([]TraceSummary, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		out = append(out, summary(best[id], spanCount[id]))
	}
	return out, spanCount
}

// TraceIndex is the /debug/traces document: the recent trace roots and
// the slow ring, each newest first, in the same rows.
type TraceIndex struct {
	Traces []TraceSummary `json:"traces"`
	// SlowThresholdNS is the slow-op threshold, in nanoseconds.
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
	// Slow holds one row per slow op. A slow span's Spans counts what the
	// trace ring still retains of its trace, so 0 means its tree is gone
	// (or was never sampled).
	Slow []TraceSummary `json:"slow"`
}

// Index reads both rings into the /debug/traces document.
func (tr *Tracer) Index() TraceIndex {
	rows, spans := roots(tr.Recent())
	slow := tr.SlowOps()
	idx := TraceIndex{
		Traces:          rows,
		SlowThresholdNS: int64(tr.SlowThreshold()),
		Slow:            make([]TraceSummary, 0, len(slow)),
	}
	for i := len(slow) - 1; i >= 0; i-- {
		idx.Slow = append(idx.Slow, summary(slow[i], spans[slow[i].Trace]))
	}
	return idx
}
