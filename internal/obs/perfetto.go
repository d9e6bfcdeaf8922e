package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event ("Perfetto JSON") export. The legacy trace-event
// format is the lingua franca of timeline viewers: an object with a
// traceEvents array of "X" (complete) events carrying name/ts/dur in
// microseconds, which ui.perfetto.dev and chrome://tracing both open
// directly. We map each OpRecord to one complete event; causality that
// JSON can't express structurally rides in args.

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args traceEventArgs `json:"args"`
}

type traceEventArgs struct {
	Seq    uint64 `json:"seq"`
	Trace  string `json:"trace_id"`
	Span   string `json:"span_id"`
	Parent string `json:"parent_id,omitempty"`
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
}

// traceEventFile is the top-level JSON object.
type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents encodes the records as Chrome trace-event JSON. Spans
// of one trace are laid out on as few tracks (tid) as their overlap
// allows, so a trace renders as stacked lanes; distinct traces get
// disjoint tid ranges. The cat field is the op's layer prefix ("dmi",
// "trim", "mark", ...), so layers can be toggled in the viewer.
func WriteTraceEvents(w io.Writer, recs []OpRecord) error {
	// Deterministic layout: sort by start time (then seq) before assigning
	// tracks, independent of ring arrival order.
	sorted := make([]OpRecord, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool {
		if !sorted[i].Start.Equal(sorted[j].Start) {
			return sorted[i].Start.Before(sorted[j].Start)
		}
		return sorted[i].Seq < sorted[j].Seq
	})

	// Greedy interval partitioning per trace: place each span on the first
	// track whose last occupant ended before this span starts. Lanes are
	// assigned before track ids so each trace's final lane count is known
	// when the disjoint tid ranges are carved out.
	tracks := make(map[TraceID][]int64) // per-trace lane end times
	lanes := make([]int, len(sorted))
	var order []TraceID
	for i, r := range sorted {
		if _, ok := tracks[r.Trace]; !ok {
			order = append(order, r.Trace)
		}
		startNS := r.Start.UnixNano()
		endNS := startNS + int64(r.Dur)
		lane := -1
		for l, laneEnd := range tracks[r.Trace] {
			if laneEnd <= startNS {
				tracks[r.Trace][l] = endNS
				lane = l
				break
			}
		}
		if lane == -1 {
			tracks[r.Trace] = append(tracks[r.Trace], endNS)
			lane = len(tracks[r.Trace]) - 1
		}
		lanes[i] = lane
	}
	traceBase := make(map[TraceID]int, len(order))
	nextBase := 0
	for _, id := range order {
		traceBase[id] = nextBase
		nextBase += len(tracks[id])
	}

	file := traceEventFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ns"}
	for i, r := range sorted {
		startNS := r.Start.UnixNano()
		lane := lanes[i]

		cat := r.Op
		for i := 0; i < len(cat); i++ {
			if cat[i] == '.' {
				cat = cat[:i]
				break
			}
		}
		ev := traceEvent{
			Name: r.Op, Cat: cat, Ph: "X",
			TS:  float64(startNS) / 1e3,
			Dur: float64(int64(r.Dur)) / 1e3,
			PID: 1, TID: traceBase[r.Trace] + lane + 1,
			Args: traceEventArgs{
				Seq: r.Seq, Trace: r.Trace.String(), Span: r.Span.String(),
				Detail: r.Detail, Err: r.Err,
			},
		}
		if r.Parent != 0 {
			ev.Args.Parent = r.Parent.String()
		}
		file.TraceEvents = append(file.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}
