package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"

	"repro/internal/obs"
)

// snap is the program's own metric registry (obs.Default: the counters
// and histograms every layer already keeps) and the Go runtime's counters
// at one instant. Per-layer numbers are differences between snapshots.
type snap struct {
	Counters   map[string]int64                 `json:"counters"`
	Histograms map[string]obs.HistogramSnapshot `json:"histograms"`
	mem        runtime.MemStats
	sched      *metrics.Float64Histogram
}

func takeSnap() (snap, error) {
	var s snap
	data, err := obs.Default.MarshalJSON()
	if err != nil {
		return s, fmt.Errorf("reading the obs registry: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("decoding the obs registry: %w", err)
	}
	runtime.ReadMemStats(&s.mem)
	sample := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = sample[0].Value.Float64Histogram()
	}
	return s, nil
}

// delta accumulates the change between pairs of snapshots: over one
// window, or over the recording slices of a traced window.
type delta struct {
	counters, sums, counts       map[string]int64
	gcs, pauseNS, mallocs, bytes uint64
	sched                        []uint64
	buckets                      []float64
}

func (d *delta) add(a, b snap) {
	if d.counters == nil {
		d.counters, d.sums, d.counts = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	for name, v := range b.Counters {
		d.counters[name] += v - a.Counters[name]
	}
	for name, h := range b.Histograms {
		d.sums[name] += h.Sum - a.Histograms[name].Sum
		d.counts[name] += h.Count - a.Histograms[name].Count
	}
	d.gcs += uint64(b.mem.NumGC - a.mem.NumGC)
	d.pauseNS += b.mem.PauseTotalNs - a.mem.PauseTotalNs
	d.mallocs += b.mem.Mallocs - a.mem.Mallocs
	d.bytes += b.mem.TotalAlloc - a.mem.TotalAlloc
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return
	}
	if d.sched == nil {
		d.sched, d.buckets = make([]uint64, len(b.sched.Counts)), b.sched.Buckets
	}
	for i, c := range b.sched.Counts {
		d.sched[i] += c - a.sched.Counts[i]
	}
}

func (d *delta) counter(name string) float64   { return float64(d.counters[name]) }
func (d *delta) histSum(name string) float64   { return float64(d.sums[name]) }
func (d *delta) histCount(name string) float64 { return float64(d.counts[name]) }

// schedP99 returns the 99th percentile of goroutine scheduling latency in
// microseconds, interpolated within the runtime's bucket.
func (d *delta) schedP99() float64 {
	var total uint64
	for _, c := range d.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := math.Ceil(0.99 * float64(total))
	var seen float64
	for i, c := range d.sched {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := d.buckets[i], d.buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return (lo + (hi-lo)*(rank-seen)/float64(c)) * 1e6
		}
		seen += float64(c)
	}
	return 0
}

var baseSchemes = []string{"spreadsheet", "xml", "text", "pdf"}

// dmiOps are the generic DMI's operation names (slim.dmi.<op>.*).
var dmiOps = []string{"create", "get", "set", "add", "unset", "delete", "instancesof", "view"}

// layerSplit divides a traced window's action time among the layers. Base
// and backend time come from the decorators' spans; mark and TRIM time
// from the registry's latency sums; the generic and SLIMPad DMI get the
// remainder. TRIM calls with no latency histogram of their own (Remove,
// RemoveMatching, Count, Has, SetUnique) are part of that remainder.
type layerSplit struct {
	action, base, backend, mark, trim, dmi float64 // ns
	saveTo                                 float64 // mark's share of saves, ns
}

var trimBusy = []string{obs.NameTrimSelectNS, obs.NameTrimCreateNS, obs.NameTrimViewNS, obs.NameTrimBatchApplyNS}

func splitLayers(t spanTotals, reg *delta, trimInSave int64) layerSplit {
	var s layerSplit
	for k := kind(0); k < numKinds; k++ {
		s.action += float64(t.actionNS[k])
		s.base += float64(t.childNS[catBase][k])
		s.backend += float64(t.childNS[catBackend][k])
	}
	var markOps float64
	for _, op := range []string{"create", "resolve"} {
		for _, scheme := range baseSchemes {
			markOps += reg.histSum(fmt.Sprintf(obs.FmtMarkOpNS, op, scheme))
		}
	}
	s.saveTo = float64(t.actionNS[kSave] - t.childNS[catBackend][kSave] - trimInSave)
	s.mark = markOps - s.base + s.saveTo
	for _, name := range trimBusy {
		s.trim += reg.histSum(name)
	}
	s.dmi = s.action - s.base - s.backend - s.mark - s.trim
	return s
}

// selfSum is the layers' total with each clamped at zero. The DMI gets
// the remainder, so the total exceeds the action time only when two layers
// counted the same work (a layer came out negative).
func (s layerSplit) selfSum() float64 {
	sum := 0.0
	for _, ns := range []float64{s.dmi, s.trim, s.mark, s.base, s.backend} {
		sum += math.Max(ns, 0)
	}
	return sum
}

// traceInput is everything the per-layer metrics are computed from.
type traceInput struct {
	spans      spanTotals
	reg        *delta // over the recording slices
	trimInSave int64
	split      layerSplit
	// untracedRate and tracedRate are ops/s without and with tracing.
	untracedRate, tracedRate float64
	loadS, replayS, setupS   float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics, in BENCHMARK.json order.
func layerMetrics(in traceInput) []metric {
	t := in.spans
	reg := in.reg
	s := in.split
	var ops float64
	for k := kind(0); k < numKinds; k++ {
		ops += float64(t.actions[k])
	}
	resolves := float64(t.actions[kOpen] + t.actions[kPeek])
	saves := float64(t.actions[kSave])
	var baseCalls, markCreates, dmiCalls float64
	for k := kind(0); k < numKinds; k++ {
		baseCalls += float64(t.children[catBase][k])
	}
	for _, scheme := range baseSchemes {
		markCreates += reg.histCount(fmt.Sprintf(obs.FmtMarkOpNS, "create", scheme))
	}
	for _, op := range dmiOps {
		dmiCalls += reg.counter(fmt.Sprintf(obs.FmtSlimDmiTotal, op))
	}
	idx := reg.counter(obs.NameTrimIndexSubject) + reg.counter(obs.NameTrimIndexPredicate) +
		reg.counter(obs.NameTrimIndexObject) + reg.counter(obs.NameTrimIndexScan)
	lockTotal, lockContended, lockWait := 0.0, 0.0, 0.0
	for _, mode := range []string{"r", "w"} {
		lockTotal += reg.counter(fmt.Sprintf(obs.FmtLockTotal, obs.LockTrimStore, mode))
		lockContended += reg.counter(fmt.Sprintf(obs.FmtLockContended, obs.LockTrimStore, mode))
		lockWait += reg.histSum(fmt.Sprintf(obs.FmtLockWaitNS, obs.LockTrimStore, mode))
	}
	gcs := float64(reg.gcs)

	out := []metric{
		{"base.calls_per_op", ratio(baseCalls, ops), "count"},
		{"base.share", ratio(s.base, s.action), "ratio"},
	}
	for _, scheme := range baseSchemes {
		out = append(out, metric{"base.goto_share." + scheme, ratio(float64(t.byName["base."+scheme+".GoTo"]), s.action), "ratio"})
	}
	out = append(out,
		metric{"mark.share", ratio(s.mark, s.action), "ratio"},
		metric{"mark.creates_per_op", ratio(markCreates, ops), "count"},
		metric{"mark.resolve_retries_per_open", ratio(reg.counter(obs.NameMarkResolveRetries), resolves), "count"},
		metric{"mark.saveto_share", ratio(float64(t.actionNS[kSave]-t.childNS[catBackend][kSave]), float64(t.actionNS[kSave])), "ratio"},
		metric{"backend.share", ratio(s.backend, s.action), "ratio"},
		metric{"wal.append_bytes_per_save", ratio(reg.counter(obs.NameTrimWALAppendBytes), saves), "B"},
		metric{"wal.syncs_per_save", ratio(reg.counter(obs.NameTrimWALSyncTotal), saves), "count"},
		metric{"wal.sync_share", ratio(reg.histSum(obs.NameTrimWALSyncNS), s.action), "ratio"},
		metric{"wal.replay_share", ratio(in.replayS, in.setupS), "ratio"},
		metric{"trim.share", ratio(s.trim, s.action), "ratio"},
		metric{"trim.self_us_per_op", ratio(s.trim, ops) / 1e3, "us"},
		metric{"trim.select_us", ratio(reg.histSum(obs.NameTrimSelectNS), reg.histCount(obs.NameTrimSelectNS)) / 1e3, "us"},
		metric{"trim.selects_per_op", ratio(reg.counter(obs.NameTrimSelectTotal), ops), "count"},
		metric{"trim.scan_ratio", ratio(reg.counter(obs.NameTrimIndexScan), idx), "ratio"},
		metric{"trim.creates_per_op", ratio(reg.counter(obs.NameTrimCreateTotal), ops), "count"},
		metric{"trim.create_new_ratio", ratio(reg.counter(obs.NameTrimCreateNew), reg.counter(obs.NameTrimCreateTotal)), "ratio"},
		metric{"trim.removes_per_op", ratio(reg.counter(obs.NameTrimRemoveTotal), ops), "count"},
		metric{"trim.remove_hit_ratio", ratio(reg.counter(obs.NameTrimRemoveHit), reg.counter(obs.NameTrimRemoveTotal)), "ratio"},
		metric{"trim.batch_applies_per_op", ratio(reg.counter(obs.NameTrimBatchTotal), ops), "count"},
		metric{"trim.batch_ops_per_apply", ratio(reg.histSum(obs.NameTrimBatchOps), reg.histCount(obs.NameTrimBatchOps)), "count"},
		metric{"trim.write_share", ratio(reg.histSum(obs.NameTrimCreateNS)+reg.histSum(obs.NameTrimBatchApplyNS), s.action), "ratio"},
		metric{"trim.fanout_per_op", ratio(reg.counter(obs.NameTrimObserverFanout), ops), "count"},
		metric{"trim.load_s", in.loadS, "s"},
		metric{"lock.trim.store.contended_ratio", ratio(lockContended, lockTotal), "ratio"},
		metric{"lock.trim.store.wait_share", ratio(lockWait, s.action), "ratio"},
		metric{"dmi.calls_per_op", ratio(dmiCalls, ops), "count"},
		metric{"dmi.triples_touched_per_op", ratio(reg.counter(obs.NameSlimTriplesTouched), ops), "count"},
		metric{"dmi.self_us_per_op", ratio(s.dmi, ops) / 1e3, "us"},
		metric{"dmi.share", ratio(s.dmi, s.action), "ratio"},
		metric{"obs.topk_records_per_op", ratio(reg.counter(obs.NameObsTopRecorded), ops), "count"},
		metric{"obs.trace_overhead_pct", 100 * ratio(in.untracedRate-in.tracedRate, in.untracedRate), "%"},
		metric{"layer.self_sum_ratio", ratio(s.selfSum(), s.action), "ratio"},
		metric{"gc.cycles_per_kop", 1e3 * ratio(gcs, ops), "count"},
		metric{"gc.pause_us_mean", ratio(float64(reg.pauseNS), gcs) / 1e3, "us"},
		metric{"heap.alloc_bytes_per_op", ratio(float64(reg.bytes), ops), "B"},
		metric{"sched.latency_us_p99", reg.schedP99(), "us"},
	)
	return out
}
