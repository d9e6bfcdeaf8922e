package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestReadSpaceSnapshot(t *testing.T) {
	s := ReadSpace()
	if s.HeapInuseBytes == 0 || s.TotalBytes == 0 {
		t.Fatalf("heap/total bytes zero: %+v", s)
	}
	if s.TotalBytes < s.HeapInuseBytes {
		t.Fatalf("total %d < heap in use %d", s.TotalBytes, s.HeapInuseBytes)
	}
	if s.TimeUnixNS == 0 {
		t.Fatal("missing timestamp")
	}
	// A second read yields an allocation rate (allocating between reads to
	// guarantee a delta).
	_ = make([]byte, 1<<20)
	if s2 := ReadSpace(); s2.AllocRateBytesPerSec < 0 {
		t.Fatalf("negative alloc rate: %+v", s2)
	}
	if G(NameSpaceHeapInuse).Value() == 0 || G(NameSpaceTotal).Value() == 0 {
		t.Fatal("space gauges not republished")
	}
}

func TestSpaceCheckBudget(t *testing.T) {
	check := SpaceCheck()
	prev := SetMemBudget(0)
	defer SetMemBudget(prev)
	if err := check(context.Background()); err != nil {
		t.Fatalf("no budget: check failed: %v", err)
	}
	SetMemBudget(1) // any live process exceeds one byte of heap
	if err := check(context.Background()); err == nil {
		t.Fatal("1-byte budget: check passed")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("unexpected error: %v", err)
	}
	SetMemBudget(1 << 62)
	if err := check(context.Background()); err != nil {
		t.Fatalf("huge budget: check failed: %v", err)
	}
	if got := SetMemBudget(-5); got != 1<<62 {
		t.Fatalf("SetMemBudget returned %d, want previous 1<<62", got)
	}
	if MemBudget() != 0 {
		t.Fatalf("negative budget not clamped to 0: %d", MemBudget())
	}
}

func TestSpaceSourcesRegistry(t *testing.T) {
	ss := NewSpaceSources()
	ss.Register("a", func() any { return 1 })
	ss.Register("b", func() any { return map[string]int{"x": 2} })
	rep := ss.Report()
	if len(rep) != 2 || rep["a"] != 1 {
		t.Fatalf("Report = %+v", rep)
	}
	ss.Unregister("a")
	if rep := ss.Report(); len(rep) != 1 {
		t.Fatalf("after Unregister: %+v", rep)
	}
	// Replacing re-registers under the same name.
	ss.Register("b", func() any { return 3 })
	if rep := ss.Report(); rep["b"] != 3 {
		t.Fatalf("replace: %+v", rep)
	}
}

// TestDebugSpaceEndpoint drives /debug/space through the mux: the payload
// carries the runtime snapshot and every registered source.
func TestDebugSpaceEndpoint(t *testing.T) {
	ss := NewSpaceSources()
	ss.Register("test.store", func() any {
		return map[string]any{"triples": 42, "duplication_ratio": 2.5}
	})
	srv := httptest.NewServer(NewDiagMux(ServeConfig{Space: ss}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/space")
	if err != nil {
		t.Fatalf("GET /debug/space: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Runtime SpaceInfo                  `json:"runtime"`
		Sources map[string]json.RawMessage `json:"sources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Runtime.HeapInuseBytes == 0 {
		t.Fatalf("runtime snapshot empty: %+v", body.Runtime)
	}
	var src struct {
		Triples          int     `json:"triples"`
		DuplicationRatio float64 `json:"duplication_ratio"`
	}
	if err := json.Unmarshal(body.Sources["test.store"], &src); err != nil {
		t.Fatalf("source report: %v", err)
	}
	if src.Triples != 42 || src.DuplicationRatio != 2.5 {
		t.Fatalf("source report missing: %s", body.Sources["test.store"])
	}
}
