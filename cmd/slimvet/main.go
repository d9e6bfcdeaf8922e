// Command slimvet runs SLIM's convention analyzers (internal/analysis) over
// the module's packages and gates on any finding. It is the third standing
// CI lane next to the race tests and the fault sweep: `make lint`
// (docs/STATIC_ANALYSIS.md).
//
// Usage:
//
//	slimvet [flags] [packages]
//
//	slimvet ./...                  # analyze the whole module (the default)
//	slimvet -list                  # describe the analyzers
//	slimvet -disable ctxflow ./... # run all but one analyzer
//	slimvet -json ./...            # machine-readable report
//
// Exit status: 0 when clean, 1 when any finding exists, 2 on usage or load
// errors. Package patterns are module-root-relative; slimvet can run from
// any directory inside the module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -json output shape; CI integrations rely on it
// (docs/STATIC_ANALYSIS.md documents the contract).
type report struct {
	Module    string   `json:"module"`
	Analyzers []string `json:"analyzers"`
	// Diagnostics is every finding; any one fails the run.
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	// Files is the number of source files analyzed.
	Files int `json:"files"`
	// Suppressed counts findings silenced by slimvet:ignore annotations.
	Suppressed int `json:"suppressed"`
	// TimingNS is each analyzer's wall time in nanoseconds, summed across
	// packages — the lint-cost ledger as analyzers accumulate.
	TimingNS map[string]int64 `json:"timing_ns"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slimvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit the report as JSON")
		enable  = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable = fs.String("disable", "", "comma-separated analyzers to skip")
		list    = fs.Bool("list", false, "list the analyzers and exit")
		verbose = fs.Bool("v", false, "print a one-line run summary (files, findings, suppressed, per-analyzer time) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "slimvet:", err)
		return 2
	}

	loader, err := analysis.NewLoader()
	if err != nil {
		fmt.Fprintln(stderr, "slimvet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "slimvet:", err)
		return 2
	}
	diags, runInfo, err := loader.RunDetailed(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "slimvet:", err)
		return 2
	}

	if *verbose {
		fmt.Fprintln(stderr, summaryLine(len(pkgs), runInfo, diags))
	}

	if *jsonOut {
		names := make([]string, 0, len(analyzers))
		for _, a := range analyzers {
			names = append(names, a.Name)
		}
		r := report{
			Module:      loader.ModulePath,
			Analyzers:   names,
			Diagnostics: diags,
			Files:       runInfo.Files,
			Suppressed:  runInfo.Suppressed,
			TimingNS:    runInfo.AnalyzerNS,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(stderr, "slimvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
		if len(diags) == 0 {
			fmt.Fprintf(stdout, "slimvet: %d package(s) clean\n", len(pkgs))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// summaryLine renders the -v one-liner: enough to watch lint cost and
// suppression creep without parsing the JSON report.
func summaryLine(pkgs int, info analysis.RunInfo, diags []analysis.Diagnostic) string {
	names := make([]string, 0, len(info.AnalyzerNS))
	var totalNS int64
	for name, ns := range info.AnalyzerNS {
		names = append(names, name)
		totalNS += ns
	}
	sort.Strings(names)
	var times strings.Builder
	for i, name := range names {
		if i > 0 {
			times.WriteString(" ")
		}
		fmt.Fprintf(&times, "%s=%dms", name, info.AnalyzerNS[name]/1e6)
	}
	return fmt.Sprintf("slimvet: %d package(s), %d file(s): %d finding(s) (%d suppressed) in %dms [%s]",
		pkgs, info.Files, len(diags), info.Suppressed, totalNS/1e6, times.String())
}

// selectAnalyzers applies -enable/-disable to the registry.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	selected := analysis.All()
	if enable != "" {
		selected = nil
		for _, name := range splitList(enable) {
			a, ok := analysis.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			selected = append(selected, a)
		}
	}
	if disable != "" {
		drop := map[string]bool{}
		for _, name := range splitList(disable) {
			if _, ok := analysis.ByName(name); !ok {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			drop[name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range selected {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return selected, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
