package main

import (
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trim"
)

// TestServeWithMetrics covers the -serve + -metrics flag combination on
// slimpad: building the demo pad drives the whole stack (DMI -> SLIM store
// -> TRIM, plus mark creation), so the scrape must expose the trim, slim,
// and mark metric families, and the pad's health probes must answer — with
// /healthz flipping to 503 under an injected persistence fault.
func TestServeWithMetrics(t *testing.T) {
	pad := filepath.Join(t.TempDir(), "rounds.xml")
	var out strings.Builder
	if err := run([]string{"demo", "-out", pad, "-patients", "1",
		"-serve", "127.0.0.1:0", "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	s := obs.ActiveServer()
	if s == nil {
		t.Fatal("-serve left no active server")
	}
	defer s.Close()
	// The URL goes to stderr, when the binary stays up; the command's
	// output holds only what the command printed.
	if strings.Contains(out.String(), s.URL()) {
		t.Errorf("output carries the diagnostics URL: %s", out.String())
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(s.URL() + path)
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

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, family := range []string{"trim_create_total", "slim_dmi_", "mark_dispatch_"} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing the %s family:\n%.2000s", family, body)
		}
	}

	// The workload-analytics endpoints: the demo build drove the full
	// stack, so the window sampler and the query-shape sketch both answer.
	if code, body := get("/debug/load"); code != http.StatusOK || !strings.Contains(body, `"windows"`) {
		t.Fatalf("/debug/load status %d:\n%s", code, body)
	}
	if code, body := get("/debug/top"); code != http.StatusOK || !strings.Contains(body, `"entries"`) {
		t.Fatalf("/debug/top status %d:\n%s", code, body)
	}
	// The demo build mutated the TRIM store and the mark manager through
	// their tracked locks, so the contention endpoint lists both by name.
	if code, body := get("/debug/contention"); code != http.StatusOK ||
		!strings.Contains(body, `"`+obs.LockTrimStore+`"`) ||
		!strings.Contains(body, `"`+obs.LockMarkManager+`"`) {
		t.Fatalf("/debug/contention status %d:\n%s", code, body)
	}

	// The pad's RegisterHealth also registered the store as a space source,
	// so /debug/space reports the runtime classes plus the trim.store deep
	// report.
	if code, body := get("/debug/space"); code != http.StatusOK ||
		!strings.Contains(body, `"runtime"`) ||
		!strings.Contains(body, `"`+obs.SpaceSourceTrimStore+`"`) ||
		!strings.Contains(body, `"duplication_ratio"`) {
		t.Fatalf("/debug/space status %d:\n%s", code, body)
	}
	// obs.space flips /healthz while the in-use heap exceeds the budget.
	prevBudget := obs.SetMemBudget(1)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "fail "+obs.HealthObsSpace) {
		obs.SetMemBudget(prevBudget)
		t.Fatalf("/healthz under mem budget: status %d:\n%s", code, body)
	}
	obs.SetMemBudget(prevBudget)
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after clearing mem budget: status %d", code)
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "slimpad.store") {
		t.Fatalf("/readyz status %d:\n%s", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "slimpad.persist") {
		t.Fatalf("/healthz status %d:\n%s", code, body)
	}

	prev := trim.SetPersistFault(func(stage trim.PersistStage, _ string) error {
		if stage == trim.StageTempWrite {
			return errors.New("injected: disk full")
		}
		return nil
	})
	defer trim.SetPersistFault(prev)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "fail slimpad.persist") {
		t.Fatalf("/healthz under fault: status %d:\n%s", code, body)
	}
	trim.SetPersistFault(prev)
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after clearing fault: status %d", code)
	}
}
