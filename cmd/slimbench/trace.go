package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/obs"
	"repro/internal/trim"
)

// The traced run records spans from the benchmark's own code: one per user
// action (the client loop), and one per call through the two pluggable
// seams the program offers, base.Application and trim.Backend, via the
// decorators below. Spans are written into memory preallocated before the
// window opens, so recording one is an atomic index bump and a store.

// span categories for child spans.
const (
	catBase = iota
	catBackend
	numCats
)

// owns[c][k] says which action kinds can cause a child span of category
// c: base calls come from clip, open and peek, backend calls from save.
// A child span is linked to the action that contains it in time and can
// own it, which keeps a second client's concurrent reads from claiming it.
var owns = [numCats][numKinds]bool{
	catBase:    {kClip: true, kOpen: true, kPeek: true},
	catBackend: {kSave: true},
}

type span struct {
	start, end int64 // ns since the buffer's epoch
	name       int32 // index into spanBuf.names
	client     int32 // owning client for action spans, -1 for child spans
	kind       int32 // action kind, or child category
	parent     int32 // action span index once linked, -1 otherwise
}

type spanBuf struct {
	epoch time.Time
	spans []span
	next  atomic.Int64
	on    atomic.Bool
	names []string
	// actionName[k] is the span name index of action kind k.
	actionName [numKinds]int32
}

func newSpanBuf(capacity int) *spanBuf {
	b := &spanBuf{}
	b.allocate(capacity)
	for k := kind(0); k < numKinds; k++ {
		b.actionName[k] = b.name("slimpad." + k.String())
	}
	return b
}

// name interns a span name; it is called while building the stack, never
// inside the window.
func (b *spanBuf) name(s string) int32 {
	for i, n := range b.names {
		if n == s {
			return int32(i)
		}
	}
	b.names = append(b.names, s)
	return int32(len(b.names) - 1)
}

// allocate replaces the buffer's memory with room for n spans, empties it
// and starts its clock; record turns recording on and off between slices
// of the traced window. Neither may run while a client is recording.
func (b *spanBuf) allocate(n int) {
	b.spans = make([]span, n)
	b.epoch = time.Now()
	b.next.Store(0)
}

func (b *spanBuf) record(on bool) { b.on.Store(on) }

// recording reports whether spans are being kept; a nil buffer (untraced
// run) never records.
func (b *spanBuf) recording() bool { return b != nil && b.on.Load() }

func (b *spanBuf) add(s span) {
	if i := b.next.Add(1) - 1; i < int64(len(b.spans)) {
		b.spans[i] = s
	}
}

// action records one timed user action while spans are being recorded.
func (b *spanBuf) action(client int, k kind, t0 time.Time, d time.Duration) {
	if !b.recording() {
		return
	}
	start := int64(t0.Sub(b.epoch))
	b.add(span{start: start, end: start + int64(d), name: b.actionName[k], client: int32(client), kind: int32(k), parent: -1})
}

func (b *spanBuf) child(cat int, name int32, t0 time.Time) {
	if !b.on.Load() {
		return
	}
	end := time.Now()
	b.add(span{start: int64(t0.Sub(b.epoch)), end: int64(end.Sub(b.epoch)), name: name, client: -1, kind: int32(cat), parent: -1})
}

// nearlyFull ends a recording slice early rather than drop spans.
func (b *spanBuf) nearlyFull() bool {
	return b.recording() && b.next.Load() >= int64(len(b.spans))*9/10
}

func (b *spanBuf) recorded() []span {
	n := b.next.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

// link assigns each child span to the action containing it and returns
// how many children no action could own.
func (b *spanBuf) link() (orphans int) {
	spans := b.recorded()
	byClient := map[int32][]int32{}
	for i, s := range spans {
		if s.client >= 0 {
			byClient[s.client] = append(byClient[s.client], int32(i))
		}
	}
	for _, idx := range byClient {
		sort.Slice(idx, func(i, j int) bool { return spans[idx[i]].start < spans[idx[j]].start })
	}
	for i := range spans {
		c := &spans[i]
		if c.client >= 0 {
			continue
		}
		for _, idx := range byClient {
			// The last action starting at or before the child.
			j := sort.Search(len(idx), func(j int) bool { return spans[idx[j]].start > c.start }) - 1
			if j < 0 {
				continue
			}
			a := spans[idx[j]]
			if c.end <= a.end && owns[c.kind][a.kind] {
				c.parent = idx[j]
				break
			}
		}
		if c.parent < 0 {
			orphans++
		}
	}
	return orphans
}

// writeTrace writes the spans of the first maxActions actions as Chrome
// trace events: each action is one trace, its base and backend calls its
// children.
func (b *spanBuf) writeTrace(path string, maxActions int) error {
	spans := b.recorded()
	keep := map[int32]bool{}
	var recs []obs.OpRecord
	for i, s := range spans {
		if s.client >= 0 && len(keep) < maxActions {
			keep[int32(i)] = true
		}
	}
	for i, s := range spans {
		root := int32(i)
		depth := 0
		if s.client < 0 {
			root, depth = s.parent, 1
		}
		if !keep[root] {
			continue
		}
		rec := obs.OpRecord{
			Seq:   uint64(i + 1),
			Trace: obs.TraceID(root + 1),
			Span:  obs.SpanID(i + 1),
			Op:    b.names[s.name],
			Depth: depth,
			Start: b.epoch.Add(time.Duration(s.start)),
			Dur:   time.Duration(s.end - s.start),
		}
		if depth == 1 {
			rec.Parent = obs.SpanID(s.parent + 1)
		}
		recs = append(recs, rec)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, recs); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// tracedApp decorates a base application with one span per call. Which
// optional interfaces the result implements mirrors the wrapped app (see
// traceApp), so the Mark Manager registers the same resolvers for it.
type tracedApp struct {
	app                               base.Application
	buf                               *spanBuf
	nSelection, nGoTo, nExtract, nCtx int32
}

func (t *tracedApp) Scheme() string { return t.app.Scheme() }
func (t *tracedApp) Name() string   { return t.app.Name() }

func (t *tracedApp) CurrentSelection() (base.Address, error) {
	t0 := time.Now()
	a, err := t.app.CurrentSelection()
	t.buf.child(catBase, t.nSelection, t0)
	return a, err
}

func (t *tracedApp) GoTo(addr base.Address) (base.Element, error) {
	t0 := time.Now()
	el, err := t.app.GoTo(addr)
	t.buf.child(catBase, t.nGoTo, t0)
	return el, err
}

type tracedExtractor struct{ t *tracedApp }

func (x tracedExtractor) ExtractContent(addr base.Address) (string, error) {
	t0 := time.Now()
	s, err := x.t.app.(base.ContentExtractor).ExtractContent(addr)
	x.t.buf.child(catBase, x.t.nExtract, t0)
	return s, err
}

type tracedContext struct{ t *tracedApp }

func (x tracedContext) ExtractContext(addr base.Address) (string, error) {
	t0 := time.Now()
	s, err := x.t.app.(base.ContextProvider).ExtractContext(addr)
	x.t.buf.child(catBase, x.t.nCtx, t0)
	return s, err
}

// traceApp wraps app so it implements ContentExtractor and ContextProvider
// exactly when app does.
func (b *spanBuf) traceApp(app base.Application) base.Application {
	prefix := "base." + app.Scheme() + "."
	t := &tracedApp{
		app:        app,
		buf:        b,
		nSelection: b.name(prefix + "CurrentSelection"),
		nGoTo:      b.name(prefix + "GoTo"),
		nExtract:   b.name(prefix + "ExtractContent"),
		nCtx:       b.name(prefix + "ExtractContext"),
	}
	_, x := app.(base.ContentExtractor)
	_, c := app.(base.ContextProvider)
	switch {
	case x && c:
		return struct {
			*tracedApp
			tracedExtractor
			tracedContext
		}{t, tracedExtractor{t}, tracedContext{t}}
	case x:
		return struct {
			*tracedApp
			tracedExtractor
		}{t, tracedExtractor{t}}
	case c:
		return struct {
			*tracedApp
			tracedContext
		}{t, tracedContext{t}}
	}
	return t
}

// tracedBackend decorates a durability backend with one span per Save and
// Load; everything else passes through.
type tracedBackend struct {
	trim.Backend
	buf          *spanBuf
	nSave, nLoad int32
}

func (b *spanBuf) traceBackend(inner trim.Backend) trim.Backend {
	return &tracedBackend{Backend: inner, buf: b, nSave: b.name("backend.save"), nLoad: b.name("backend.load")}
}

func (t *tracedBackend) Save() error {
	t0 := time.Now()
	err := t.Backend.Save()
	t.buf.child(catBackend, t.nSave, t0)
	return err
}

func (t *tracedBackend) Load() error {
	t0 := time.Now()
	err := t.Backend.Load()
	t.buf.child(catBackend, t.nLoad, t0)
	return err
}

// spanTotals sums the linked spans of one traced window.
type spanTotals struct {
	actionNS  [numKinds]int64
	actions   [numKinds]int64
	childNS   [numCats][numKinds]int64
	children  [numCats][numKinds]int64
	byName    map[string]int64 // child time per span name
	callsName map[string]int64
	orphans   int
}

func (b *spanBuf) totals() spanTotals {
	t := spanTotals{byName: map[string]int64{}, callsName: map[string]int64{}}
	t.orphans = b.link()
	spans := b.recorded()
	for _, s := range spans {
		d := s.end - s.start
		if s.client >= 0 {
			t.actionNS[s.kind] += d
			t.actions[s.kind]++
			continue
		}
		if s.parent < 0 {
			continue
		}
		k := spans[s.parent].kind
		t.childNS[s.kind][k] += d
		t.children[s.kind][k]++
		t.byName[b.names[s.name]] += d
		t.callsName[b.names[s.name]]++
	}
	return t
}
