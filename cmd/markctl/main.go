// markctl exercises the Mark Manager against real files on disk: it loads a
// document into the matching base substrate, creates a mark at a given
// address, resolves marks, and persists the mark set as an XML triple file.
//
// Usage:
//
//	markctl mark    -marks marks.xml -scheme spreadsheet -doc meds.csv -at 'Meds!A2:C2'
//	markctl mark    -marks marks.xml -scheme xml  -doc lab.xml  -at '/report/panel[1]/result[2]'
//	markctl mark    -marks marks.xml -scheme text -doc note.txt -at 's2/p1'
//	markctl mark    -marks marks.xml -scheme pdf  -doc scan.txt -at 'page1/lines3-5'
//	markctl mark    -marks marks.xml -scheme html -doc page.html -at '#results'
//	markctl list    -marks marks.xml
//	markctl resolve -marks marks.xml -id mark-000001 -doc meds.csv
//	markctl doctor  -marks marks.xml -doc meds.csv -doc lab.xml
//	markctl doctor  -marks marks.xml -json
//	markctl top     -marks marks.xml -doc meds.csv -doc lab.xml
//
// Documents load under their base filename; CSV files become a workbook
// with one sheet named "Meds". The doctor command diagnoses every stored
// mark against the given base documents (scheme inferred from extension,
// or prefix with "scheme:"): healthy, drifted, degraded (unresolvable but
// excerpt-backed), or dangling (docs/ROBUSTNESS.md). It exits non-zero
// when any mark is dangling. The top command dereferences every stored
// mark through the instrumented resilient resolver and prints the
// heavy-hitter shape counts: resolve traffic ranked by mark scheme and resolver
// — the same ranking a served store exposes at /debug/top
// (docs/OBSERVABILITY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/base"
	"repro/internal/base/htmldoc"
	"repro/internal/base/pdfdoc"
	"repro/internal/base/spreadsheet"
	"repro/internal/base/textdoc"
	"repro/internal/base/xmldoc"
	"repro/internal/mark"
	"repro/internal/obs"
	"repro/internal/trim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "markctl:", err)
		os.Exit(1)
	}
	if s := obs.ActiveServer(); s != nil {
		fmt.Fprintf(os.Stderr, "markctl: serving diagnostics at %s (interrupt to exit)\n", s.URL())
		obs.AwaitInterrupt(context.Background())
		s.Close()
	}
}

// docList collects repeated -doc flags for the doctor command.
type docList []string

func (d *docList) String() string { return strings.Join(*d, ",") }
func (d *docList) Set(v string) error {
	*d = append(*d, v)
	return nil
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("need a command: mark | list | resolve | extract | doctor | top")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	marksFile := fs.String("marks", "marks.xml", "mark store file (XML triples)")
	scheme := fs.String("scheme", "", "base scheme: spreadsheet|xml|text|pdf|html")
	var docs docList
	fs.Var(&docs, "doc", "base document file to load (doctor accepts it repeated, optionally scheme:path)")
	at := fs.String("at", "", "address path within the document")
	id := fs.String("id", "", "mark id (for resolve)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (doctor, top)")
	topK := fs.Int("k", 20, "with top: list at most this many resolve shapes")
	var cli obs.CLI
	cli.Bind(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := cli.Start(); err != nil {
		return err
	}
	doc := ""
	if len(docs) > 0 {
		doc = docs[0]
	}
	var err error
	switch cmd {
	case "doctor":
		err = doctor(*marksFile, docs, *jsonOut, out)
	case "top":
		err = top(*marksFile, docs, *jsonOut, *topK, out)
	default:
		err = execute(cmd, *marksFile, *scheme, doc, *at, *id, out)
	}
	if ferr := cli.Finish(out); err == nil {
		err = ferr
	}
	return err
}

// doctor loads the mark store plus the given base documents and prints the
// Mark Manager's health report. Marks whose scheme has no loaded document
// are diagnosed as degraded/dangling rather than failing the command; the
// command errors only when a mark is dangling (no live referent AND no
// cached excerpt), so scripts can gate on the exit code.
func doctor(marksFile string, docs []string, jsonOut bool, out io.Writer) error {
	mm := mark.NewManager()
	store := trim.NewManager()
	if err := mm.LoadFile(store, marksFile); err != nil {
		return err
	}
	for _, d := range docs {
		scheme, path := splitDoc(d)
		app, _, err := loadDoc(scheme, path)
		if err != nil {
			return err
		}
		if err := mm.RegisterApplication(app); err != nil {
			return err
		}
	}
	// Health probes for -serve: ready once the mark store is loaded,
	// healthy while no mark sits in quarantine.
	obs.DefaultReady.Register(obs.HealthMarkStore, store.LoadedCheck())
	obs.DefaultHealth.Register(obs.HealthMarkQuarantine, mm.QuarantineCheck(1))
	report := mm.Doctor(context.Background())
	if jsonOut {
		quarantine := mm.Quarantined()
		if quarantine == nil {
			quarantine = []mark.QuarantineEntry{}
		}
		if err := obs.EncodeJSON(out, struct {
			Report     mark.HealthReport      `json:"report"`
			Quarantine []mark.QuarantineEntry `json:"quarantine"`
		}{report, quarantine}); err != nil {
			return err
		}
		if report.Dangling > 0 {
			return fmt.Errorf("%d dangling mark(s)", report.Dangling)
		}
		return nil
	}
	fmt.Fprint(out, report)
	// The quarantine is the dangling-reference list (§5's ComMentor
	// problem): every mark whose referent could not be reached, whether or
	// not a cached excerpt still serves reads.
	for _, q := range mm.Quarantined() {
		excerpt := "no excerpt cached"
		if q.HasExcerpt {
			excerpt = "excerpt cached"
		}
		fmt.Fprintf(out, "dangling reference %s %s (%s; %s)\n", q.ID, q.Address, excerpt, q.Reason)
	}
	if report.Dangling > 0 {
		return fmt.Errorf("%d dangling mark(s)", report.Dangling)
	}
	return nil
}

// top loads the mark store plus the given base documents, dereferences
// every stored mark through the instrumented resilient resolver, and
// prints the process-wide heavy-hitter shape counts. Shapes are keyed by
// scheme and resolver, so the ranking shows which base-information types
// carry the resolve traffic. Unresolvable marks still count — their shapes
// are recorded before the resolve fails — so the ranking reflects
// attempted traffic, not just successes.
func top(marksFile string, docs []string, jsonOut bool, k int, out io.Writer) error {
	mm := mark.NewManager()
	store := trim.NewManager()
	if err := mm.LoadFile(store, marksFile); err != nil {
		return err
	}
	for _, d := range docs {
		scheme, path := splitDoc(d)
		app, _, err := loadDoc(scheme, path)
		if err != nil {
			return err
		}
		if err := mm.RegisterApplication(app); err != nil {
			return err
		}
	}
	obs.DefaultReady.Register(obs.HealthMarkStore, store.LoadedCheck())
	obs.DefaultHealth.Register(obs.HealthMarkQuarantine, mm.QuarantineCheck(1))
	ctx := context.Background()
	failed := 0
	marks := mm.Marks()
	for _, m := range marks {
		if _, err := mm.ResolveCtx(ctx, m.ID); err != nil {
			failed++
		}
	}
	if jsonOut {
		return obs.EncodeJSON(out, obs.DefaultTopQueries)
	}
	entries := obs.DefaultTopQueries.Top(k)
	for i, e := range entries {
		fmt.Fprintf(out, "%3d  %8d  ±%-5d  %s\n", i+1, e.Count, e.ErrBound, e.Key)
	}
	fmt.Fprintf(out, "-- %d shape(s) over %d resolve(s) (%d failed)\n", len(entries), len(marks), failed)
	return nil
}

// splitDoc splits an optional "scheme:path" doctor document argument; with
// no scheme prefix the scheme is inferred from the file extension.
func splitDoc(arg string) (scheme, path string) {
	for _, s := range []string{spreadsheet.Scheme, xmldoc.Scheme, textdoc.Scheme, pdfdoc.Scheme, htmldoc.Scheme} {
		if strings.HasPrefix(arg, s+":") {
			return s, strings.TrimPrefix(arg, s+":")
		}
	}
	switch strings.ToLower(filepath.Ext(arg)) {
	case ".csv":
		return spreadsheet.Scheme, arg
	case ".xml":
		return xmldoc.Scheme, arg
	case ".html", ".htm":
		return htmldoc.Scheme, arg
	case ".pdf":
		return pdfdoc.Scheme, arg
	default:
		return textdoc.Scheme, arg
	}
}

func execute(cmd, marksFile, scheme, doc, at, id string, out io.Writer) error {
	mm := mark.NewManager()
	store := trim.NewManager()
	if err := mm.LoadFile(store, marksFile); err != nil {
		return err
	}
	// Health probes for -serve (mirrors doctor): readiness tracks the mark
	// store, liveness the persistence path and the quarantine.
	obs.DefaultReady.Register(obs.HealthMarkStore, store.LoadedCheck())
	obs.DefaultHealth.Register(obs.HealthMarkPersist, trim.WritableCheck(marksFile))
	obs.DefaultHealth.Register(obs.HealthMarkQuarantine, mm.QuarantineCheck(1))

	switch cmd {
	case "list":
		for _, m := range mm.Marks() {
			fmt.Fprintf(out, "%s  %s\n", m.ID, m.Address)
		}
		fmt.Fprintf(out, "-- %d mark(s)\n", mm.Len())
		return nil

	case "mark":
		if scheme == "" || doc == "" || at == "" {
			return fmt.Errorf("mark needs -scheme, -doc, and -at")
		}
		app, name, err := loadDoc(scheme, doc)
		if err != nil {
			return err
		}
		if err := mm.RegisterApplication(app); err != nil {
			return err
		}
		// Drive the viewer to the address (validating it), so the mark is
		// created from a genuine current selection.
		if _, err := app.GoTo(base.Address{Scheme: scheme, File: name, Path: at}); err != nil {
			return err
		}
		m, err := mm.CreateFromSelection(scheme)
		if err != nil {
			return err
		}
		if err := mm.SaveFile(store, marksFile); err != nil {
			return err
		}
		fmt.Fprintf(out, "created %s -> %s\n", m.ID, m.Address)
		if m.Excerpt != "" {
			fmt.Fprintf(out, "  excerpt: %.70q\n", m.Excerpt)
		}
		return nil

	case "extract":
		// The §6 "extract content" behavior: fetch the marked element's
		// current content without driving any viewer; falls back to the
		// stored excerpt when the base document is unavailable.
		if id == "" {
			return fmt.Errorf("extract needs -id")
		}
		if doc != "" {
			m, err := mm.Mark(id)
			if err != nil {
				return err
			}
			app, _, err := loadDoc(m.Address.Scheme, doc)
			if err != nil {
				return err
			}
			if err := mm.RegisterApplication(app); err != nil {
				return err
			}
		}
		content, err := mm.ExtractContent(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", content)
		return nil

	case "resolve":
		if id == "" || doc == "" {
			return fmt.Errorf("resolve needs -id and -doc (to reload the base document)")
		}
		m, err := mm.Mark(id)
		if err != nil {
			return err
		}
		app, _, err := loadDoc(m.Address.Scheme, doc)
		if err != nil {
			return err
		}
		if err := mm.RegisterApplication(app); err != nil {
			return err
		}
		// The instrumented resilient path: the resolve lands in the causal
		// trace and the heavy-hitter shape counts, same as a served store.
		el, err := mm.ResolveCtx(context.Background(), id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s resolves to %s\n  content: %q\n  context: %q\n", id, el.Address, el.Content, el.Context)
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// loadDoc reads the file and loads it into a fresh base application of the
// scheme, returning the app and the document's library name.
func loadDoc(scheme, path string) (base.Application, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	name := filepath.Base(path)
	text := string(data)
	switch scheme {
	case spreadsheet.Scheme:
		app := spreadsheet.NewApp()
		w := spreadsheet.NewWorkbook(name)
		if _, err := w.LoadCSV("Meds", text); err != nil {
			return nil, "", err
		}
		if err := app.AddWorkbook(w); err != nil {
			return nil, "", err
		}
		return app, name, nil
	case xmldoc.Scheme:
		app := xmldoc.NewApp()
		if _, err := app.LoadString(name, text); err != nil {
			return nil, "", err
		}
		return app, name, nil
	case textdoc.Scheme:
		app := textdoc.NewApp()
		if _, err := app.LoadString(name, text); err != nil {
			return nil, "", err
		}
		return app, name, nil
	case pdfdoc.Scheme:
		app := pdfdoc.NewApp()
		if _, err := app.LoadString(name, text, 0); err != nil {
			return nil, "", err
		}
		return app, name, nil
	case htmldoc.Scheme:
		app := htmldoc.NewApp()
		if _, err := app.LoadString(name, text); err != nil {
			return nil, "", err
		}
		return app, name, nil
	default:
		return nil, "", fmt.Errorf("unknown scheme %q", scheme)
	}
}
