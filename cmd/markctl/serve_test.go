package main

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mark"
	"repro/internal/obs"
)

func TestDoctorJSON(t *testing.T) {
	dir := t.TempDir()
	csv := writeFile(t, dir, "meds.csv", "Drug,Dose\nFurosemide,40mg\n")
	marks := filepath.Join(dir, "marks.xml")
	var out strings.Builder
	if err := run([]string{"mark", "-marks", marks, "-scheme", "spreadsheet", "-doc", csv, "-at", "Meds!A2"}, &out); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"doctor", "-marks", marks, "-doc", csv, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Report struct {
			Checked int `json:"checked"`
			Healthy int `json:"healthy"`
			Marks   []struct {
				ID     string `json:"id"`
				Health string `json:"health"`
			} `json:"marks"`
		} `json:"report"`
		Quarantine []mark.QuarantineEntry `json:"quarantine"`
	}
	if err := json.Unmarshal([]byte(out.String()), &decoded); err != nil {
		t.Fatalf("doctor -json not JSON: %v\n%s", err, out.String())
	}
	if decoded.Report.Checked != 1 || decoded.Report.Healthy != 1 || len(decoded.Report.Marks) != 1 {
		t.Fatalf("report = %+v", decoded.Report)
	}
	if decoded.Quarantine == nil || len(decoded.Quarantine) != 0 {
		t.Fatalf("quarantine = %+v, want empty array", decoded.Quarantine)
	}

	// Without the base document the mark cannot resolve but serves its
	// excerpt: degraded, not dangling, so the command still succeeds and
	// the JSON shows the downgrade.
	out.Reset()
	if err := run([]string{"doctor", "-marks", marks, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var degraded struct {
		Report struct {
			Degraded int `json:"degraded"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(out.String()), &degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Report.Degraded != 1 {
		t.Fatalf("docless doctor report = %s", out.String())
	}
}

// TestServeWithMetrics covers the -serve + -metrics flag combination on
// markctl: the server outlives the command, /metrics exposes the mark
// family, and the health endpoints answer.
func TestServeWithMetrics(t *testing.T) {
	dir := t.TempDir()
	csv := writeFile(t, dir, "meds.csv", "Drug,Dose\nFurosemide,40mg\n")
	marks := filepath.Join(dir, "marks.xml")
	var out strings.Builder
	if err := run([]string{"mark", "-marks", marks, "-scheme", "spreadsheet", "-doc", csv, "-at", "Meds!A2"}, &out); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"resolve", "-marks", marks, "-id", "mark-000001", "-doc", csv,
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

	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "mark_resolve_spreadsheet_ns") {
		t.Fatalf("/metrics status %d:\n%s", resp.StatusCode, body)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(s.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d:\n%s", path, resp.StatusCode, body)
		}
	}

	// The workload-analytics endpoints answer on markctl's server too,
	// and the sketch holds the resolve shape the command just recorded.
	for _, path := range []string{"/debug/load", "/debug/top"} {
		resp, err := http.Get(s.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d:\n%s", path, resp.StatusCode, body)
		}
		if path == "/debug/top" && !strings.Contains(string(body), "mark.resolve scheme=spreadsheet") {
			t.Fatalf("/debug/top missing the resolve shape:\n%s", body)
		}
	}

	// The resolve went through the mark manager's tracked lock, so the
	// contention endpoint lists it with recorded acquisitions.
	resp, err = http.Get(s.URL() + "/debug/contention")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"`+obs.LockMarkManager+`"`) {
		t.Fatalf("/debug/contention status %d:\n%s", resp.StatusCode, body)
	}

	// markctl holds no triple store, so /debug/space carries only the
	// runtime memory classes — and the obs.space budget flip still works,
	// since the check is process-level.
	resp, err = http.Get(s.URL() + "/debug/space")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"heap_inuse_bytes"`) {
		t.Fatalf("/debug/space status %d:\n%s", resp.StatusCode, body)
	}
	prevBudget := obs.SetMemBudget(1)
	resp, err = http.Get(s.URL() + "/healthz")
	if err != nil {
		obs.SetMemBudget(prevBudget)
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	obs.SetMemBudget(prevBudget)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "fail "+obs.HealthObsSpace) {
		t.Fatalf("/healthz under mem budget: status %d:\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after clearing mem budget: status %d", resp.StatusCode)
	}
}
