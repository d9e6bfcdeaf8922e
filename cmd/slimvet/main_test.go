package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// The module itself carries no findings, so the driver is exercised on the
// errwrap analyzer's fixture package: seeded %v/%s wraps, a stable
// non-empty target that keeps each subtest from analyzing the whole
// module. (htmldoc, pdfdoc, the base/* editors and metamodel, the previous
// targets, were paid down.)
const debtPkg = "./internal/analysis/testdata/src/fixture/internal/errwrap"

// cleanPkg is a fixture package with no findings.
const cleanPkg = "./internal/analysis/testdata/src/fixture/internal/obs"

func runDriver(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListDescribesAnalyzers(t *testing.T) {
	code, stdout, _ := runDriver(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{
		"lockguard", "errwrap", "ctxflow", "obscoverage", "metricnames",
		"aliasguard", "lockorder", "atomichygiene", "gorolife",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout)
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	code, _, stderr := runDriver(t, "-enable", "nosuch", debtPkg)
	if code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr missing unknown-analyzer message:\n%s", stderr)
	}
}

// TestSeededViolationsFailTextMode pins the gating behavior: known
// violations exit non-zero and print file:line:col plus the analyzer
// name.
func TestSeededViolationsFailTextMode(t *testing.T) {
	code, stdout, stderr := runDriver(t, debtPkg)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	lineRe := regexp.MustCompile(`internal/analysis/testdata/src/fixture/internal/errwrap/[a-z]+\.go:\d+:\d+: .+ \(errwrap\)`)
	if !lineRe.MatchString(stdout) {
		t.Errorf("text output missing file:line:col ... (analyzer) findings:\n%s", stdout)
	}
}

// TestJSONReportShape pins the -json contract documented in
// docs/STATIC_ANALYSIS.md: module, analyzers, diagnostics, files,
// suppressed, timing.
func TestJSONReportShape(t *testing.T) {
	code, stdout, stderr := runDriver(t, "-json", debtPkg)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	var r struct {
		Module      string            `json:"module"`
		Analyzers   []string          `json:"analyzers"`
		Diagnostics []json.RawMessage `json:"diagnostics"`
		Files       int               `json:"files"`
		Suppressed  *int              `json:"suppressed"`
		TimingNS    map[string]int64  `json:"timing_ns"`
	}
	if err := json.Unmarshal([]byte(stdout), &r); err != nil {
		t.Fatalf("output is not the report JSON shape: %v\n%s", err, stdout)
	}
	if r.Module != "repro" {
		t.Errorf("module = %q, want %q", r.Module, "repro")
	}
	if len(r.Analyzers) != 10 {
		t.Errorf("analyzers = %v, want all ten", r.Analyzers)
	}
	if len(r.Diagnostics) == 0 {
		t.Errorf("diagnostics empty; the fixture's seeded findings should appear")
	}
	if r.Files == 0 {
		t.Errorf("files = 0; the report must count analyzed files")
	}
	if r.Suppressed == nil {
		t.Errorf("suppressed missing from report")
	}
	if len(r.TimingNS) != len(r.Analyzers) {
		t.Errorf("timing_ns has %d entries, want one per analyzer (%d): %v",
			len(r.TimingNS), len(r.Analyzers), r.TimingNS)
	}
	var d struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(r.Diagnostics[0], &d); err != nil {
		t.Fatalf("diagnostic shape: %v", err)
	}
	if d.Analyzer == "" || d.File == "" || d.Line == 0 || d.Message == "" {
		t.Errorf("diagnostic missing fields: %s", r.Diagnostics[0])
	}
	if strings.Contains(d.File, "\\") || strings.HasPrefix(d.File, "/") {
		t.Errorf("diagnostic file must be module-root-relative with forward slashes: %q", d.File)
	}
}

// TestVerboseSummary pins the -v one-liner on stderr: package, file,
// finding and suppressed counts, and per-analyzer wall time.
func TestVerboseSummary(t *testing.T) {
	code, _, stderr := runDriver(t, "-v", debtPkg)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	summaryRe := regexp.MustCompile(`slimvet: \d+ package\(s\), \d+ file\(s\): \d+ finding\(s\) \(\d+ suppressed\) in \d+ms`)
	if !summaryRe.MatchString(stderr) {
		t.Errorf("-v summary line missing or malformed:\n%s", stderr)
	}
	if !strings.Contains(stderr, "errwrap=") || !strings.Contains(stderr, "aliasguard=") {
		t.Errorf("-v summary missing per-analyzer timings:\n%s", stderr)
	}
}

// TestModuleIsClean runs slimvet over a package with no findings (the obs
// stand-in the analyzer fixtures import): it reports the package clean and
// exits 0. The zero-finding gate over the whole module is
// internal/analysis's TestRepoHasNoFindings, plus make lint; a second
// whole-module type-check here would only repeat it.
func TestModuleIsClean(t *testing.T) {
	code, stdout, stderr := runDriver(t, cleanPkg)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !regexp.MustCompile(`^slimvet: \d+ package\(s\) clean\n$`).MatchString(stdout) {
		t.Errorf("clean summary missing:\n%s", stdout)
	}
}

// TestEnableRestrictsAnalyzers runs only ctxflow over the debt package:
// the errwrap findings disappear and the run is clean.
func TestEnableRestrictsAnalyzers(t *testing.T) {
	code, stdout, stderr := runDriver(t, "-json", "-enable", "ctxflow", debtPkg)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stdout: %s, stderr: %s)", code, stdout, stderr)
	}
	var r struct {
		Analyzers   []string          `json:"analyzers"`
		Diagnostics []json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(stdout), &r); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if len(r.Analyzers) != 1 || r.Analyzers[0] != "ctxflow" {
		t.Errorf("analyzers = %v, want [ctxflow]", r.Analyzers)
	}
	if len(r.Diagnostics) != 0 {
		t.Errorf("ctxflow-only run should be clean on the errwrap fixture, got %d findings", len(r.Diagnostics))
	}
}
