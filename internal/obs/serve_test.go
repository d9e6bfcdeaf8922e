package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// diagConfig builds a fully non-default ServeConfig so endpoint tests
// never touch the process-wide registries shared with other tests.
func diagConfig() (ServeConfig, *Registry, *HealthRegistry, *HealthRegistry) {
	reg := NewRegistry()
	health := NewHealthRegistry()
	ready := NewHealthRegistry()
	cfg := ServeConfig{
		Registry: reg,
		Tracer:   NewTracer(8),
		Health:   health,
		Ready:    ready,
	}
	cfg.Tracer.SetSlowThreshold(time.Millisecond)
	return cfg, reg, health, ready
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestDiagMuxMetrics(t *testing.T) {
	cfg, reg, _, _ := diagConfig()
	reg.Counter("trim.create.total").Add(7)
	reg.Histogram("trim.select.ns", LatencyBounds).Observe(1500)
	srv := httptest.NewServer(NewDiagMux(cfg))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"trim_create_total 7",
		"# TYPE trim_select_ns histogram",
		`trim_select_ns_bucket{le="+Inf"} 1`,
		"trim_select_ns_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("/metrics.json not JSON: %v\n%s", err, body)
	}
}

func TestDiagMuxHealth(t *testing.T) {
	cfg, _, health, ready := diagConfig()
	health.Register("store.writable", func(context.Context) error { return nil })
	ready.Register("store.loaded", func(context.Context) error { return errors.New("store is empty") })
	srv := httptest.NewServer(NewDiagMux(cfg))
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d:\n%s", code, body)
	}
	if !strings.Contains(body, "ok   store.writable") {
		t.Errorf("/healthz body:\n%s", body)
	}

	code, body = get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d, want 503:\n%s", code, body)
	}
	if !strings.Contains(body, "fail store.loaded: store is empty") {
		t.Errorf("/readyz body:\n%s", body)
	}

	// The check set is live: loading the store flips readiness.
	ready.Register("store.loaded", func(context.Context) error { return nil })
	if code, _ = get(t, srv, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after fix: status %d", code)
	}
}

func TestDiagMuxDebugEndpoints(t *testing.T) {
	cfg, _, _, _ := diagConfig()
	span := cfg.Tracer.Start("test.op", "detail")
	span.Finish()
	slow := cfg.Tracer.Start("slow.span", "why")
	slow.FinishDur(5*time.Millisecond, nil)
	cfg.Tracer.SlowOp("slow.op", 5*time.Millisecond, nil, func() string { return "spanless" })
	srv := httptest.NewServer(NewDiagMux(cfg))
	defer srv.Close()

	// /debug/traces answers both "which traces ran" and "which ops were
	// slow", in the same rows.
	code, body := get(t, srv, "/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	var idx TraceIndex
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("/debug/traces not JSON: %v\n%s", err, body)
	}
	if len(idx.Traces) != 2 || idx.Traces[0].Op != "slow.span" || idx.Traces[1].Op != "test.op" {
		t.Fatalf("/debug/traces roots: %+v", idx.Traces)
	}
	if idx.SlowThresholdNS != int64(time.Millisecond) || len(idx.Slow) != 2 ||
		idx.Slow[0].Op != "slow.op" || idx.Slow[0].Detail != "spanless" || idx.Slow[0].Spans != 0 ||
		idx.Slow[1].Op != "slow.span" || idx.Slow[1].Trace != slow.TraceID() || idx.Slow[1].Spans != 1 {
		t.Fatalf("/debug/traces slow rows: threshold %d %+v", idx.SlowThresholdNS, idx.Slow)
	}

	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	// The routes /debug/traces and /debug/load took over are gone.
	for _, gone := range []string{"/debug/trace", "/debug/slowops", "/debug/flight", "/debug/vars"} {
		if code, _ := get(t, srv, gone); code == http.StatusOK {
			t.Errorf("%s still answers", gone)
		}
	}

	code, body = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "SLIM diagnostics") {
		t.Fatalf("index: status %d body:\n%s", code, body)
	}
	if code, _ := get(t, srv, "/no/such/page"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

// TestServeSingleton covers the -serve lifecycle: the active-server slot,
// the second-server error, and slot release on Close.
func TestServeSingleton(t *testing.T) {
	if ActiveServer() != nil {
		t.Fatal("active server leaked from another test")
	}
	cfg, reg, _, _ := diagConfig()
	reg.Counter("core.test.total").Inc()
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ActiveServer() != s {
		t.Fatal("Serve did not register the active server")
	}
	if _, err := Serve("127.0.0.1:0", cfg); err == nil {
		t.Fatal("second Serve must fail while one is active")
	}

	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "core_test_total 1") {
		t.Fatalf("scrape:\n%s", body)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ActiveServer() != nil {
		t.Fatal("Close did not release the active-server slot")
	}
	s2, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	s2.Close()
}
