package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/clinical"
	"repro/internal/trim"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload untraced and traced with short windows and
// checks the printed result against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all four workloads")
	}
	spec := readBenchmarkFile(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		wl, ok := workloadByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a slimbench workload", w.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := config{
				seed:       7,
				window:     200 * time.Millisecond,
				warmup:     50 * time.Millisecond,
				openBudget: 0,
				trace:      traced,
				slice:      50 * time.Millisecond,
				workDir:    filepath.Join(dir, "work"),
			}
			var out bytes.Buffer
			res, err := runWorkload(cfg, wl, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
				if !metricName.MatchString(m.Name) || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %v is not a valid name and number", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.workDir, "trace", w.Name+".trace.json")); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestDecoratorsKeepBehaviour checks that the tracing decorators are
// transparent: a stack built from them answers OpenScrap and PeekScrap
// exactly as the raw stack does, through the same resolvers, and recovers
// the same triples from the WAL.
func TestDecoratorsKeepBehaviour(t *testing.T) {
	w, err := buildWorld(t.TempDir(), 3, padSpec{patients: 2, days: 2, wal: true, tail: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := w.open(identityApp, identityBackend)
	if err != nil {
		t.Fatal(err)
	}
	rawTriples := raw.app.DMI().Store().Trim().Snapshot()
	if err := raw.close(); err != nil {
		t.Fatal(err)
	}
	buf := newSpanBuf(1 << 12)
	dec, err := w.open(buf.traceApp, buf.traceBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.close()
	if got := dec.app.DMI().Store().Trim().Snapshot(); !got.Equal(rawTriples) {
		t.Fatalf("decorated backend recovered %d triples, raw %d", got.Len(), rawTriples.Len())
	}
	buf.record(true)
	for _, s := range w.scraps {
		elRaw, errRaw := raw.app.OpenScrap(s.id)
		elDec, errDec := dec.app.OpenScrap(s.id)
		if elRaw != elDec || (errRaw == nil) != (errDec == nil) {
			t.Errorf("OpenScrap(%s): raw %+v, %v; decorated %+v, %v", s.id.Value(), elRaw, errRaw, elDec, errDec)
		}
		peekRaw, errRaw := raw.app.PeekScrap(s.id)
		peekDec, errDec := dec.app.PeekScrap(s.id)
		if peekRaw != peekDec || (errRaw == nil) != (errDec == nil) {
			t.Errorf("PeekScrap(%s): raw %q, %v; decorated %q, %v", s.id.Value(), peekRaw, errRaw, peekDec, errDec)
		}
	}
	buf.record(false)
	calls := map[string]int{}
	for _, s := range buf.recorded() {
		calls[buf.names[s.name]]++
	}
	for _, scheme := range baseSchemes {
		// PeekScrap must reach the in-place resolver, which only exists when
		// the decorated app still offers ContentExtractor.
		if calls["base."+scheme+".ExtractContent"] == 0 || calls["base."+scheme+".GoTo"] == 0 {
			t.Errorf("%s: decorated calls %v, want GoTo and ExtractContent spans", scheme, calls)
		}
	}
}

// gotoOnly implements base.Application and none of the optional
// interfaces.
type gotoOnly struct{ base.Application }

func TestTraceAppMirrorsOptionalInterfaces(t *testing.T) {
	w, err := buildWorld(t.TempDir(), 3, padSpec{patients: 1, days: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := newSpanBuf(16)
	plain := buf.traceApp(gotoOnly{w.env.XML})
	if _, ok := plain.(base.ContentExtractor); ok {
		t.Error("decorated app without ContentExtractor claims it")
	}
	if _, ok := plain.(base.ContextProvider); ok {
		t.Error("decorated app without ContextProvider claims it")
	}
	full := buf.traceApp(w.env.XML)
	if _, ok := full.(base.ContentExtractor); !ok {
		t.Error("decorated XML app lost ContentExtractor")
	}
	if _, ok := full.(base.ContextProvider); !ok {
		t.Error("decorated XML app lost ContextProvider")
	}
	if _, ok := buf.traceBackend(trim.NewXMLBackend(trim.NewManager(), "x")).(trim.Backend); !ok {
		t.Error("decorated backend is not a trim.Backend")
	}
}

// noopActor does nothing, so the loop's own cost is all that is measured.
type noopActor struct{}

func (noopActor) prepare(kind) error { return nil }
func (noopActor) do(kind) error      { return nil }
func (noopActor) verify(kind) error  { return nil }

func TestLoopAllocatesNothing(t *testing.T) {
	for _, traced := range []bool{false, true} {
		c := newClient(0, noopActor{}, 1, editMix, true)
		if traced {
			c.spans = newSpanBuf(1 << 20)
			c.spans.record(true)
		}
		if n := testing.AllocsPerRun(1000, func() { c.step(c.pick()) }); n != 0 {
			t.Errorf("traced=%v: one loop step allocates %.1f times", traced, n)
		}
		if n := testing.AllocsPerRun(10, func() { c.run(time.Now().Add(time.Millisecond)) }); n != 0 {
			t.Errorf("traced=%v: a 1ms run allocates %.1f times", traced, n)
		}
	}
}

func TestRecorderQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r recorder
	samples := make([]int64, 200000)
	for i := range samples {
		// Log-normal around 20µs with a long tail, like action latencies.
		samples[i] = int64(20000 * math.Exp(rng.NormFloat64()))
		r.add(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := float64(samples[int(math.Ceil(q*float64(len(samples))))-1])
		got := r.quantile(q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q%.3f: recorder %.0f, sorted reference %.0f", q, got, want)
		}
	}
	if got := r.beyond(0.99); got != 2000 {
		t.Errorf("beyond(0.99) = %d, want 2000", got)
	}
}

func TestBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<40 + 12345, 1<<62 + 7} {
		i := bucketOf(v)
		lo, w := bucketRange(i)
		if v < lo || v >= lo+w || (v >= subCount && float64(w) > float64(lo)/128) {
			t.Errorf("value %d in bucket %d = [%d, %d)", v, i, lo, lo+w)
		}
	}
}

// TestHostProbeIsOneCycle checks that the probe's chase passes every entry
// before it returns to the start, so no sample runs around a short loop
// that stays in cache.
func TestHostProbeIsOneCycle(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	seen := make([]bool, probeEntries)
	i := int32(0)
	for n := 0; n < probeEntries; n++ {
		if seen[i] {
			t.Fatalf("entry %d reached twice within %d steps", i, n)
		}
		seen[i] = true
		i = p.next[i]
	}
	if i != 0 {
		t.Fatalf("after %d steps the chase is at %d, not back at 0", probeEntries, i)
	}
	if rate := p.rate(); !(hostFactor([]float64{rate}) > 0) {
		t.Fatalf("one sample gave rate %v", rate)
	}
}

func TestCollidingMRNsAreRejected(t *testing.T) {
	spec := padSpec{patients: 200, days: 1}
	for seed := int64(0); seed < 1000; seed++ {
		ps := clinical.GenerateHistory(seed, spec.patients, spec.days)
		err := checkMRNs(seed, ps)
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "share MRN") {
			t.Fatalf("collision error %q does not say what collided", err)
		}
		derived, err := clinicalSeedFor(seed, spec)
		if err != nil {
			t.Fatal(err)
		}
		if derived == seed || checkMRNs(derived, clinical.GenerateHistory(derived, spec.patients, spec.days)) != nil {
			t.Fatalf("seed %d collides, but clinicalSeedFor returned %d", seed, derived)
		}
		if again, _ := clinicalSeedFor(seed, spec); again != derived {
			t.Fatalf("clinicalSeedFor(%d) is not deterministic: %d then %d", seed, derived, again)
		}
		return
	}
	t.Fatal("no seed below 1000 produced colliding MRNs; the test needs another search range")
}
