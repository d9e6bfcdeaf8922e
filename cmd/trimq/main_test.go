package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metamodel"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trim"
)

func storeFile(t *testing.T) string {
	t.Helper()
	m := trim.NewManager()
	if err := metamodel.Encode(metamodel.BundleScrapModel(), m); err != nil {
		t.Fatal(err)
	}
	b1 := rdf.IRI(rdf.NSInst + "Bundle-000001")
	b2 := rdf.IRI(rdf.NSInst + "Bundle-000002")
	m.Create(rdf.T(b1, rdf.RDFType, rdf.IRI(metamodel.ConstructBundle)))
	m.Create(rdf.T(b2, rdf.RDFType, rdf.IRI(metamodel.ConstructBundle)))
	m.Create(rdf.T(b1, rdf.IRI(metamodel.ConnNestedBundle), b2))
	m.Create(rdf.T(b2, rdf.IRI(metamodel.ConnBundleName), rdf.String("inner")))
	path := filepath.Join(t.TempDir(), "store.xml")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStats(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triples=") {
		t.Fatalf("stats output = %q", out.String())
	}
}

func TestModels(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "models"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pad:model (Bundle-Scrap): 7 constructs, 11 connectors") {
		t.Fatalf("models output = %q", out.String())
	}
}

func TestSelect(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "select", "?", "rdf:type", "pad:Bundle"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-- 2 triple(s)") {
		t.Fatalf("select output = %q", out.String())
	}
	// Literal term.
	out.Reset()
	if err := run([]string{"-store", path, "select", "?", "pad:bundleName", `"inner"`}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-- 1 triple(s)") {
		t.Fatalf("literal select output = %q", out.String())
	}
}

func TestView(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "view", "inst:Bundle-000001"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "inst:Bundle-000002") {
		t.Fatalf("view output missing nested bundle:\n%s", out.String())
	}
}

func TestPathCommand(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "path", "inst:Bundle-000001", "pad:nestedBundle", "pad:bundleName"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"inner"`) || !strings.Contains(out.String(), "-- 1 result(s)") {
		t.Fatalf("path output = %q", out.String())
	}
	if err := run([]string{"-store", path, "path", "inst:Bundle-000001"}, &out); err == nil {
		t.Error("path without predicates accepted")
	}
	if err := run([]string{"-store", path, "path", "nosuch:x", "rdf:type"}, &out); err == nil {
		t.Error("bad start term accepted")
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	m := trim.NewManager()
	m.Create(rdf.T(rdf.IRI("http://x/s"), rdf.IRI("http://x/p"), rdf.String("v")))
	path := filepath.Join(t.TempDir(), "store.nt")
	if err := m.SaveNTriples(path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-store", path, "-nt", "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triples=1") {
		t.Fatalf("nt stats = %q", out.String())
	}
}

func TestErrors(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	cases := [][]string{
		{},                              // no -store
		{"-store", path},                // no command
		{"-store", path, "bogus"},       // unknown command
		{"-store", path, "select", "?"}, // wrong arity
		{"-store", path, "select", "?", "nosuchprefix:x", "?"}, // bad qname
		{"-store", path, "view"},                               // missing resource
		{"-store", "/nonexistent.xml", "stats"},                // missing file
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestParseTerm(t *testing.T) {
	pm := rdf.NewPrefixMap()
	if term, err := parseTerm(pm, "?"); err != nil || !term.IsZero() {
		t.Errorf("wildcard = %v, %v", term, err)
	}
	if term, err := parseTerm(pm, `"lit"`); err != nil || term != rdf.String("lit") {
		t.Errorf("literal = %v, %v", term, err)
	}
	if term, err := parseTerm(pm, "_:b1"); err != nil || term != rdf.Blank("b1") {
		t.Errorf("blank = %v, %v", term, err)
	}
	if term, err := parseTerm(pm, "rdf:type"); err != nil || term != rdf.RDFType {
		t.Errorf("qname = %v, %v", term, err)
	}
	if term, err := parseTerm(pm, "http://full/iri"); err != nil || term != rdf.IRI("http://full/iri") {
		t.Errorf("full iri = %v, %v", term, err)
	}
}

func TestMetricsFlag(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-metrics", "select", "?", "rdf:type", "pad:Bundle"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "== obs metrics ==") {
		t.Fatalf("missing registry header:\n%s", text)
	}
	// The load counts as creates and the query as a select; both nonzero.
	for _, want := range []string{"counter trim.create.total", "counter trim.select.total", "histogram trim.select.ns"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "counter trim.create.total 0\n") || strings.Contains(text, "counter trim.select.total 0\n") {
		t.Fatalf("expected nonzero create/select counters:\n%s", text)
	}
}

func TestProfileFlag(t *testing.T) {
	path := storeFile(t)
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var out strings.Builder
	if err := run([]string{"-store", path, "-profile", prof, "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("profile not created: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("profile file is empty")
	}
}

// TestTopWorkload: `top` replays the -workload file and ranks the
// recorded query shapes by count, with comments and blank lines skipped.
// The sketch is process-wide, so the test resets it first.
func TestTopWorkload(t *testing.T) {
	obs.DefaultTopQueries.Reset()
	path := storeFile(t)
	wl := filepath.Join(t.TempDir(), "queries.txt")
	workload := `# bundle scan, three times
select ? rdf:type pad:Bundle
select ? rdf:type pad:Bundle

select ? rdf:type pad:Bundle
view inst:Bundle-000001
path inst:Bundle-000001 pad:nestedBundle
`
	if err := os.WriteFile(wl, []byte(workload), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-store", path, "-workload", wl, "top"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if !strings.Contains(lines[0], "select ?po") || !strings.Contains(lines[0], "pred=") {
		t.Fatalf("top entry is not the repeated select:\n%s", text)
	}
	if !strings.Contains(lines[0], "       3") {
		t.Fatalf("repeated select should count 3:\n%s", text)
	}
	if !strings.Contains(text, "-- 3 shape(s), 5 op(s) recorded, 0 evicted") {
		t.Fatalf("top footer = %q", text)
	}

	// -k truncates the listing but not the footer's shape count.
	out.Reset()
	if err := run([]string{"-store", path, "-workload", wl, "-k", "1", "top"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "±"); got != 1 {
		t.Fatalf("-k 1 listed %d entries:\n%s", got, out.String())
	}
}

// TestTopJSON: -json emits the whole sketch document.
func TestTopJSON(t *testing.T) {
	obs.DefaultTopQueries.Reset()
	path := storeFile(t)
	wl := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(wl, []byte("view inst:Bundle-000001\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-store", path, "-workload", wl, "-json", "top"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Capacity int `json:"capacity"`
		Recorded int `json:"recorded"`
		Entries  []struct {
			Key   string `json:"key"`
			Count int    `json:"count"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("top -json not JSON: %v\n%s", err, out.String())
	}
	if doc.Recorded != 1 || len(doc.Entries) != 1 || doc.Entries[0].Key != "view index=subject" {
		t.Fatalf("top -json doc = %+v", doc)
	}
}

// TestTopWorkloadErrors: a missing workload file and a malformed query
// line both fail, the latter with the file:line position.
func TestTopWorkloadErrors(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-workload", "no-such-file.txt", "top"}, &out); err == nil {
		t.Fatal("missing workload file succeeded")
	}
	wl := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(wl, []byte("view inst:X\ndelete everything\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-store", path, "-workload", wl, "top"}, &out)
	if err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("bad workload err = %v, want line position", err)
	}
}

// TestTopCountsEveryShapeExactly: selects over 200 predicates, more keys
// than the space-saving sketch's 128 slots, each counted a known number of
// times. `top -json` and /debug/top report every count exactly, with
// nothing evicted.
func TestTopCountsEveryShapeExactly(t *testing.T) {
	obs.DefaultTopQueries.Reset()
	const preds = 200
	m := trim.NewManager()
	want := map[string]int{}
	var wl strings.Builder
	for i := 0; i < preds; i++ {
		p := fmt.Sprintf("inst:p%03d", i)
		if _, err := m.Create(rdf.T(rdf.IRI(rdf.NSInst+"s"), rdf.IRI(rdf.NSInst+p[5:]), rdf.Integer(int64(i)))); err != nil {
			t.Fatal(err)
		}
		n := 1 + i%4
		for j := 0; j < n; j++ {
			fmt.Fprintf(&wl, "select ? %s ?\n", p)
		}
		want["select ?p? index=predicate pred="+rdf.NSInst+p[5:]] = n
	}
	dir := t.TempDir()
	path, queries := filepath.Join(dir, "store.xml"), filepath.Join(dir, "queries.txt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(queries, []byte(wl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-store", path, "-workload", queries, "-json", "top"}, &out); err != nil {
		t.Fatal(err)
	}
	obs.DefaultTopQueries.Reset()
	if err := run([]string{"-store", path, "-serve", "127.0.0.1:0", "-workload", queries, "top"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := obs.ActiveServer()
	if s == nil {
		t.Fatal("-serve left no active server")
	}
	defer s.Close()
	code, body := scrape(t, s.URL(), "/debug/top")
	if code != 200 {
		t.Fatalf("/debug/top status %d:\n%s", code, body)
	}
	for name, doc := range map[string]string{"top -json": out.String(), "/debug/top": body} {
		var top struct {
			Evicted *int64 `json:"evicted"`
			Entries []struct {
				Key      string `json:"key"`
				Count    int    `json:"count"`
				ErrBound int    `json:"err_bound"`
			} `json:"entries"`
		}
		if err := json.Unmarshal([]byte(doc), &top); err != nil {
			t.Fatalf("%s: not JSON: %v", name, err)
		}
		if top.Evicted == nil || *top.Evicted != 0 {
			t.Errorf("%s: evicted = %v, want 0", name, top.Evicted)
		}
		got := map[string]int{}
		for _, e := range top.Entries {
			if _, ok := want[e.Key]; ok {
				got[e.Key] = e.Count
				if e.ErrBound != 0 {
					t.Errorf("%s: %q err_bound %d", name, e.Key, e.ErrBound)
				}
			}
		}
		if len(got) != preds {
			t.Errorf("%s: reports %d of the %d predicate shapes", name, len(got), preds)
		}
		for key, n := range want {
			if got[key] != n {
				t.Errorf("%s: %q counted %d, want %d", name, key, got[key], n)
			}
		}
	}
}
