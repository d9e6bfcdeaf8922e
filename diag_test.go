// Diagnostics-server coverage over the full stack: after driving SLIMPad
// (DMI -> SLIM store -> TRIM, with marks) and a core.System viewing flow,
// one /metrics scrape must expose every layer's metric family in valid
// Prometheus exposition (docs/OBSERVABILITY.md).
package repro_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/base/spreadsheet"
	"repro/internal/clinical"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slimpad"
)

func TestMetricsCoverAllLayers(t *testing.T) {
	// SLIMPad over clinical data: DMI ops (slim.*), triple storage (trim.*),
	// and mark creation/resolution (mark.*).
	env, err := clinical.NewEnvironment(2026, 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := slimpad.NewApp(env.Marks)
	if err != nil {
		t.Fatal(err)
	}
	_, root, err := app.NewPad("Rounds")
	if err != nil {
		t.Fatal(err)
	}
	b, err := app.DMI().CreateBundle(env.Patients[0].Name, slimpad.Coordinate{X: 0, Y: 0}, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.DMI().AddNestedBundle(root.ID(), b.ID()); err != nil {
		t.Fatal(err)
	}
	if err := env.SelectMed(env.Patients[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := app.ClipSelection(b.ID(), "spreadsheet", "", slimpad.Coordinate{X: 8, Y: 8}); err != nil {
		t.Fatal(err)
	}

	// A core.System viewing flow (core.*).
	sys := core.NewSystem()
	sheets := spreadsheet.NewApp()
	wb := spreadsheet.NewWorkbook("meds.xls")
	if _, err := wb.LoadCSV("Meds", "Drug\nFurosemide\n"); err != nil {
		t.Fatal(err)
	}
	if err := sheets.AddWorkbook(wb); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterBase(sheets); err != nil {
		t.Fatal(err)
	}
	if err := sheets.Open("meds.xls"); err != nil {
		t.Fatal(err)
	}
	r, err := spreadsheet.ParseRange("A2")
	if err != nil {
		t.Fatal(err)
	}
	if err := sheets.SelectRange("Meds", r); err != nil {
		t.Fatal(err)
	}
	m, err := sys.Marks.CreateFromSelection(spreadsheet.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ViewMark(core.Simultaneous, m.ID); err != nil {
		t.Fatal(err)
	}

	// Bracket the workload with two samples so /debug/load reports a
	// populated (if zero-rate) window.
	obs.DefaultSampler.SampleNow()
	obs.DefaultSampler.SampleNow()

	// Scrape the default registry the way -serve exposes it.
	srv := httptest.NewServer(obs.NewDiagMux(obs.ServeConfig{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, family := range []string{"trim_", "mark_", "slim_dmi_", "core_view_"} {
		if !strings.Contains(text, "\n"+family) && !strings.HasPrefix(text, family) {
			t.Errorf("/metrics missing the %s family", family)
		}
	}

	// Every sample line must satisfy the exposition grammar.
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+]+$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
	}

	// /debug/load serves the windowed rates and delta percentiles as JSON,
	// covering every layer's counters and histograms.
	resp, err = http.Get(srv.URL + "/debug/load")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var load struct {
		Samples int `json:"samples"`
		Windows map[string]struct {
			Counters map[string]struct {
				Delta int64 `json:"delta"`
			} `json:"counters"`
			Histograms map[string]struct {
				P99 int64 `json:"p99"`
			} `json:"histograms"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(body, &load); err != nil {
		t.Fatalf("/debug/load not JSON: %v\n%s", err, body)
	}
	if load.Samples < 2 {
		t.Fatalf("/debug/load samples = %d, want >= 2", load.Samples)
	}
	for _, label := range []string{"1m", "5m"} {
		win, ok := load.Windows[label]
		if !ok {
			t.Fatalf("/debug/load missing the %s window", label)
		}
		if _, ok := win.Counters["trim.create.total"]; !ok {
			t.Errorf("/debug/load %s window missing trim.create.total", label)
		}
		for _, hist := range []string{"trim.select.ns", "mark.resolve.spreadsheet.ns"} {
			if _, ok := win.Histograms[hist]; !ok {
				t.Errorf("/debug/load %s window missing %s", label, hist)
			}
		}
	}
}
