package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trim"
)

func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestStatsJSON(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-json", "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Triples    int `json:"triples"`
		IndexSPO   int `json:"index_spo"`
		Generation int `json:"generation"`
	}
	if err := json.Unmarshal([]byte(out.String()), &stats); err != nil {
		t.Fatalf("stats -json not JSON: %v\n%s", err, out.String())
	}
	if stats.Triples == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestServedJSONIsOneDocument: a -json command under -serve prints one
// JSON value and nothing after it, so a consumer can decode its output.
func TestServedJSONIsOneDocument(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-serve", "127.0.0.1:0", "-json", "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := obs.ActiveServer(); s == nil {
		t.Fatal("-serve left no active server")
	} else {
		t.Cleanup(func() { s.Close() })
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	var stats map[string]any
	if err := dec.Decode(&stats); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
	}
	if rest, _ := io.ReadAll(dec.Buffered()); strings.TrimSpace(string(rest)) != "" || dec.More() {
		t.Fatalf("stdout holds more than one JSON value; after it: %q", rest)
	}
}

func TestExplainSelect(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "explain", "select", "?", "?", "?"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"op=select", "index=scan", "candidates=", "matched=", "wall="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explain output missing %q: %s", want, out.String())
		}
	}

	// A bound subject must report an indexed plan, not a scan.
	out.Reset()
	if err := run([]string{"-store", path, "explain", "select", "inst:Bundle-000001", "?", "?"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "index=subject") {
		t.Fatalf("bound-subject explain chose: %s", out.String())
	}
}

func TestExplainJSON(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-json", "explain", "select", "?", "rdf:type", "pad:Bundle"}, &out); err != nil {
		t.Fatal(err)
	}
	var e struct {
		Op         string `json:"op"`
		Index      string `json:"index"`
		Candidates int    `json:"candidates"`
		Matched    int    `json:"matched"`
		StoreSize  int    `json:"store_size"`
	}
	if err := json.Unmarshal([]byte(out.String()), &e); err != nil {
		t.Fatalf("explain -json not JSON: %v\n%s", err, out.String())
	}
	if e.Op != "select" || e.Index == "" || e.Matched != 2 || e.Candidates < e.Matched {
		t.Fatalf("explain = %+v", e)
	}
}

func TestExplainViewAndPath(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "explain", "view", "inst:Bundle-000001"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "op=view") {
		t.Fatalf("explain view: %s", out.String())
	}
	out.Reset()
	if err := run([]string{"-store", path, "explain", "path", "inst:Bundle-000001", "pad:nestedBundle"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "op=path") || !strings.Contains(out.String(), "matched=1") {
		t.Fatalf("explain path: %s", out.String())
	}
}

func TestExplainErrors(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	for _, args := range [][]string{
		{"-store", path, "explain"},
		{"-store", path, "explain", "select", "?"},
		{"-store", path, "explain", "view"},
		{"-store", path, "explain", "path", "inst:Bundle-000001"},
		{"-store", path, "explain", "stats"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// TestServeWithMetrics is the -serve + -metrics flag combination: the
// command runs, the diagnostics server stays up for scraping, /metrics
// exposes the trim family, readiness reflects the loaded store, and an
// injected persistence fault flips /healthz to 503.
func TestServeWithMetrics(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-serve", "127.0.0.1:0", "-metrics", "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	s := obs.ActiveServer()
	if s == nil {
		t.Fatal("-serve left no active server")
	}
	t.Cleanup(func() { s.Close() })
	// The URL goes to stderr, when the binary stays up; the command's
	// output holds only what the command printed.
	if strings.Contains(out.String(), s.URL()) {
		t.Errorf("output carries the diagnostics URL: %s", out.String())
	}
	// -metrics still prints the text dump alongside -serve.
	if !strings.Contains(out.String(), "counter trim.load.triples") {
		t.Errorf("-metrics dump missing: %s", out.String())
	}

	code, body := scrape(t, s.URL(), "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "trim_load_triples") {
		t.Fatalf("/metrics status %d:\n%s", code, body)
	}
	if code, body := scrape(t, s.URL(), "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz status %d:\n%s", code, body)
	}
	if code, body := scrape(t, s.URL(), "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d:\n%s", code, body)
	}

	// The workload-analytics endpoints: /debug/load reports the window
	// sampler -serve started, /debug/top the query-shape sketch.
	code, body = scrape(t, s.URL(), "/debug/load")
	if code != http.StatusOK {
		t.Fatalf("/debug/load status %d:\n%s", code, body)
	}
	var load struct {
		Running bool `json:"running"`
		Samples int  `json:"samples"`
		Windows map[string]struct {
			WindowNS int64 `json:"window_ns"`
		} `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &load); err != nil {
		t.Fatalf("/debug/load not JSON: %v\n%s", err, body)
	}
	if !load.Running || load.Samples < 1 || len(load.Windows) != 2 {
		t.Fatalf("/debug/load = %+v", load)
	}
	code, body = scrape(t, s.URL(), "/debug/top")
	if code != http.StatusOK || !strings.Contains(body, `"capacity"`) {
		t.Fatalf("/debug/top status %d:\n%s", code, body)
	}
	// The contention endpoint: the tracked store lock records every
	// acquisition (uncontended ones observe a zero wait), so after loading
	// a store the trim.store wait histogram is never empty.
	code, body = scrape(t, s.URL(), "/debug/contention")
	if code != http.StatusOK {
		t.Fatalf("/debug/contention status %d:\n%s", code, body)
	}
	var cont struct {
		Locks []struct {
			Name  string `json:"name"`
			Write struct {
				Total       int64 `json:"total"`
				WaitSamples int64 `json:"wait_samples"`
			} `json:"write"`
		} `json:"locks"`
	}
	if err := json.Unmarshal([]byte(body), &cont); err != nil {
		t.Fatalf("/debug/contention not JSON: %v\n%s", err, body)
	}
	foundStoreLock := false
	for _, l := range cont.Locks {
		if l.Name == obs.LockTrimStore && l.Write.Total > 0 && l.Write.WaitSamples > 0 {
			foundStoreLock = true
		}
	}
	if !foundStoreLock {
		t.Fatalf("/debug/contention has no active %s entry:\n%s", obs.LockTrimStore, body)
	}
	// The windowed rates are /debug/load's, not /metrics': the 1m window
	// counts the store load.
	if code, body := scrape(t, s.URL(), "/metrics"); code != http.StatusOK || strings.Contains(body, "_rate1m") {
		t.Fatalf("/metrics carries windowed rate families (status %d):\n%.2000s", code, body)
	}
	code, body = scrape(t, s.URL(), "/debug/load")
	var loaded struct {
		Windows map[string]struct {
			Counters map[string]struct {
				Delta int64 `json:"delta"`
			} `json:"counters"`
		} `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &loaded); err != nil || code != http.StatusOK {
		t.Fatalf("/debug/load status %d: %v\n%s", code, err, body)
	}
	if _, ok := loaded.Windows["1m"].Counters[obs.NameTrimLoadTriples]; !ok {
		t.Fatalf("/debug/load 1m window missing %s:\n%.2000s", obs.NameTrimLoadTriples, body)
	}

	// The space endpoint: the runtime memory classes plus the trim store's
	// deep report under the source name the command registered.
	code, body = scrape(t, s.URL(), "/debug/space")
	if code != http.StatusOK {
		t.Fatalf("/debug/space status %d:\n%s", code, body)
	}
	var space struct {
		Runtime struct {
			HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
		} `json:"runtime"`
		Sources map[string]struct {
			Triples          int     `json:"triples"`
			DuplicationRatio float64 `json:"duplication_ratio"`
			BytesPerTriple   float64 `json:"bytes_per_triple"`
		} `json:"sources"`
	}
	if err := json.Unmarshal([]byte(body), &space); err != nil {
		t.Fatalf("/debug/space not JSON: %v\n%s", err, body)
	}
	if space.Runtime.HeapInuseBytes == 0 {
		t.Fatalf("/debug/space runtime snapshot empty:\n%s", body)
	}
	st := space.Sources[obs.SpaceSourceTrimStore]
	if st.Triples == 0 || st.DuplicationRatio <= 1 || st.BytesPerTriple <= 0 {
		t.Fatalf("/debug/space %s report = %+v:\n%s", obs.SpaceSourceTrimStore, st, body)
	}
	// The obs.space health flip: a 1-byte heap budget degrades /healthz,
	// clearing it restores 200.
	prevBudget := obs.SetMemBudget(1)
	code, body = scrape(t, s.URL(), "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "fail "+obs.HealthObsSpace) {
		obs.SetMemBudget(prevBudget)
		t.Fatalf("/healthz under mem budget: status %d:\n%s", code, body)
	}
	obs.SetMemBudget(prevBudget)
	if code, _ := scrape(t, s.URL(), "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after clearing mem budget: status %d", code)
	}

	// The acceptance path: a staged persistence fault flips liveness.
	prev := trim.SetPersistFault(func(stage trim.PersistStage, _ string) error {
		if stage == trim.StageTempWrite {
			return errors.New("injected: device gone")
		}
		return nil
	})
	defer trim.SetPersistFault(prev)
	code, body = scrape(t, s.URL(), "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "fail trim.persist") {
		t.Fatalf("/healthz under fault: status %d:\n%s", code, body)
	}
	trim.SetPersistFault(prev)
	if code, _ := scrape(t, s.URL(), "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after clearing fault: status %d", code)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if obs.ActiveServer() != nil {
		t.Fatal("Close did not release the server slot")
	}
	// A later command can claim the slot again.
	out.Reset()
	if err := run([]string{"-store", path, "-serve", "127.0.0.1:0", "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if s2 := obs.ActiveServer(); s2 == nil {
		t.Fatal("second -serve run left no active server")
	} else {
		s2.Close()
	}
}
