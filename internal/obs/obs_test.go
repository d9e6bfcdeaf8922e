package obs

import (
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.concurrent")
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	// Same-name lookups share the counter.
	if r.Counter("test.concurrent") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist", []int64{10, 100, 1000})
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(int64(w*100 + 1)) // spread across buckets
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Fatalf("count = %d, want %d", s.Count, workers*each)
	}
	var inBuckets int64
	for _, b := range s.Buckets {
		inBuckets += b
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket total = %d, count = %d", inBuckets, s.Count)
	}
	if len(s.Buckets) != len(s.Bounds)+1 {
		t.Fatalf("buckets = %d, want bounds+1 = %d", len(s.Buckets), len(s.Bounds)+1)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.buckets", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 2} // le_10, le_100, inf
	for i, n := range want {
		if s.Buckets[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], n, s.Buckets)
		}
	}
	// rank(0.5 * 6) = 3rd smallest = 11, which lives in the le_100 bucket.
	if q := s.Quantile(0.5); q != 100 {
		t.Errorf("p50 = %d, want 100", q)
	}
	if q := s.Quantile(0.33); q != 10 {
		t.Errorf("p33 = %d, want 10", q)
	}
	if q := s.Quantile(1.0); q != 100 {
		t.Errorf("p100 upper bound = %d, want 100 (largest finite)", q)
	}
}

func TestRegistryExportDeterministic(t *testing.T) {
	r := NewRegistry()
	// Create in non-sorted order.
	r.Counter("z.last").Add(3)
	r.Counter("a.first").Add(1)
	r.Counter("m.middle").Add(2)
	r.Histogram("z.hist", SizeBounds).Observe(4)
	r.Histogram("a.hist", SizeBounds).Observe(2)

	var one, two strings.Builder
	if err := r.WriteText(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatalf("non-deterministic text export:\n%s\nvs\n%s", one.String(), two.String())
	}
	text := one.String()
	if !strings.HasPrefix(text, "== obs metrics ==\n") {
		t.Fatalf("missing header: %q", text)
	}
	ia, im, iz := strings.Index(text, "a.first"), strings.Index(text, "m.middle"), strings.Index(text, "z.last")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("counters not sorted: a=%d m=%d z=%d\n%s", ia, im, iz, text)
	}
	if ah, zh := strings.Index(text, "a.hist"), strings.Index(text, "z.hist"); !(iz < ah && ah < zh) {
		t.Fatalf("histograms not sorted after counters:\n%s", text)
	}

	j1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("non-deterministic JSON export")
	}
	var decoded struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(j1, &decoded); err != nil {
		t.Fatalf("invalid JSON export: %v", err)
	}
	if decoded.Counters["m.middle"] != 2 || decoded.Histograms["a.hist"].Count != 1 {
		t.Fatalf("JSON export values wrong: %s", j1)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("outer", "r")
	child := root.Child("inner", "c")
	grand := child.Child("innermost", "g")
	grand.Finish()
	child.Finish()
	root.Finish()

	recs := tr.Recent()
	if len(recs) != 3 {
		t.Fatalf("recorded %d ops, want 3", len(recs))
	}
	// Finish order: deepest first.
	wantOps := []string{"innermost", "inner", "outer"}
	wantDepth := []int{2, 1, 0}
	for i, r := range recs {
		if r.Op != wantOps[i] || r.Depth != wantDepth[i] {
			t.Errorf("rec %d = %s depth=%d, want %s depth=%d", i, r.Op, r.Depth, wantOps[i], wantDepth[i])
		}
		if r.Seq != uint64(i+1) {
			t.Errorf("rec %d seq = %d, want %d", i, r.Seq, i+1)
		}
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start("op", "d").Finish()
	}
	recs := tr.Recent()
	if len(recs) != 4 {
		t.Fatalf("retained %d ops, want 4", len(recs))
	}
	for i, r := range recs {
		if want := uint64(7 + i); r.Seq != want {
			t.Errorf("rec %d seq = %d, want %d (oldest-first)", i, r.Seq, want)
		}
	}
	var dump strings.Builder
	if err := tr.WriteText(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "== recent ops (4) ==") || !strings.Contains(dump.String(), "#10 ") {
		t.Fatalf("dump = %q", dump.String())
	}
}

func TestTracerDisabledAndNil(t *testing.T) {
	tr := NewTracer(4)
	tr.SetEnabled(false)
	if s := tr.Start("op", ""); s != nil {
		t.Fatal("disabled tracer returned a live span")
	}
	// All nil-receiver paths must be safe no-ops.
	var nilSpan *Span
	nilSpan.Finish()
	nilSpan.FinishErr(nil)
	if c := nilSpan.Child("x", ""); c != nil {
		t.Fatal("nil span produced a child")
	}
	var nilTracer *Tracer
	nilTracer.SetEnabled(true)
	if nilTracer.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if recs := nilTracer.Recent(); recs != nil {
		t.Fatal("nil tracer has records")
	}
	tr.SetEnabled(true)
	tr.Start("op", "").Finish()
	if len(tr.Recent()) != 1 {
		t.Fatal("re-enabled tracer did not record")
	}
	tr.Reset()
	if len(tr.Recent()) != 0 {
		t.Fatal("reset tracer still has records")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Start("op", "d")
				sp.Child("child", "").Finish()
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	recs := tr.Recent()
	if len(recs) != 32 {
		t.Fatalf("retained %d, want 32", len(recs))
	}
	if recs[len(recs)-1].Seq != 1600 {
		t.Fatalf("last seq = %d, want 1600", recs[len(recs)-1].Seq)
	}
}

func TestLogNilSafeDefault(t *testing.T) {
	if LogEnabled() {
		t.Fatal("logging enabled before SetLogger")
	}
	// Must not panic and must build no records.
	Log().Info("dropped", "k", "v")

	var buf strings.Builder
	SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	defer SetLogger(nil)
	if !LogEnabled() {
		t.Fatal("logging not enabled after SetLogger")
	}
	Log().Info("kept", "k", "v")
	if !strings.Contains(buf.String(), "kept") {
		t.Fatalf("log output = %q", buf.String())
	}
	SetLogger(nil)
	if LogEnabled() {
		t.Fatal("logging still enabled after SetLogger(nil)")
	}
}

func TestStartCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i % 7
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("profile file is empty")
	}
	// A second profile while none is running must work.
	stop2, err := StartCPUProfile(filepath.Join(t.TempDir(), "cpu2.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}
