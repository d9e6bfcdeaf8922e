package slimpad

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/base/spreadsheet"
	"repro/internal/base/xmldoc"
	"repro/internal/mark"
	"repro/internal/trim"
)

const labXML = `<report>
  <patient>John Smith</patient>
  <panel name="electrolytes">
    <result code="Na">140</result>
    <result code="K">4.1</result>
    <result code="Cl">103</result>
  </panel>
</report>`

// fixture wires a SLIMPad app to spreadsheet and XML base applications,
// reproducing the Fig. 4 environment.
type fixture struct {
	app    *App
	sheets *spreadsheet.App
	xmlApp *xmldoc.App
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sheets := spreadsheet.NewApp()
	w := spreadsheet.NewWorkbook("meds.xls")
	if _, err := w.LoadCSV("Meds", "Drug,Dose,Route\nFurosemide,40mg,IV\nInsulin,5u,SC\n"); err != nil {
		t.Fatal(err)
	}
	if err := sheets.AddWorkbook(w); err != nil {
		t.Fatal(err)
	}
	xmlApp := xmldoc.NewApp()
	if _, err := xmlApp.LoadString("lab.xml", labXML); err != nil {
		t.Fatal(err)
	}
	mm := mark.NewManager()
	if err := mm.RegisterApplication(sheets); err != nil {
		t.Fatal(err)
	}
	if err := mm.RegisterApplication(xmlApp); err != nil {
		t.Fatal(err)
	}
	app, err := NewApp(mm)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{app: app, sheets: sheets, xmlApp: xmlApp}
}

func TestNewPadHasRoot(t *testing.T) {
	f := newFixture(t)
	pad, root, err := f.app.NewPad("Rounds")
	if err != nil {
		t.Fatal(err)
	}
	if pad.PadName() != "Rounds" {
		t.Errorf("name = %q", pad.PadName())
	}
	r, ok := pad.RootBundle()
	if !ok || r != root.ID() {
		t.Fatalf("root = %v, %v", r, ok)
	}
}

func TestClipSelectionFromSpreadsheet(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	// The user selects Furosemide in the meds workbook.
	f.sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("A2")
	if err := f.sheets.SelectRange("Meds", r); err != nil {
		t.Fatal(err)
	}
	scrap, err := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "", Coordinate{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Label defaults to the marked content.
	if scrap.ScrapName() != "Furosemide" {
		t.Errorf("label = %q", scrap.ScrapName())
	}
	// The scrap is inside the bundle.
	b, _ := f.app.DMI().Bundle(root.ID())
	if len(b.Scraps()) != 1 {
		t.Fatal("scrap not in bundle")
	}
}

func TestClipSelectionExplicitLabel(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	f.sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("B2")
	f.sheets.SelectRange("Meds", r)
	scrap, err := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "lasix dose", Coordinate{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if scrap.ScrapName() != "lasix dose" {
		t.Errorf("label = %q", scrap.ScrapName())
	}
}

func TestClipSelectionErrors(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	// No selection in the base app.
	if _, err := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "x", Coordinate{0, 0}); err == nil {
		t.Fatal("clip without selection succeeded")
	}
	// Unknown scheme.
	if _, err := f.app.ClipSelection(root.ID(), "fortran", "x", Coordinate{0, 0}); err == nil {
		t.Fatal("clip from unknown scheme succeeded")
	}
}

func TestOpenScrapReestablishesContext(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	f.xmlApp.Open("lab.xml")
	if err := f.xmlApp.SelectExpr("/report/panel/result[2]"); err != nil {
		t.Fatal(err)
	}
	scrap, err := f.app.ClipSelection(root.ID(), xmldoc.Scheme, "K+", Coordinate{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// The user browses elsewhere...
	f.xmlApp.SelectExpr("/report/patient")
	// ...then double-clicks the scrap.
	el, err := f.app.OpenScrap(scrap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if el.Content != "4.1" {
		t.Errorf("Content = %q", el.Content)
	}
	// The lab report is now open with the result highlighted.
	sel, err := f.xmlApp.CurrentSelection()
	if err != nil || sel.Path != "/report[1]/panel[1]/result[2]" {
		t.Errorf("viewer selection = %v, %v", sel, err)
	}
}

func TestOpenScrapWithoutMarks(t *testing.T) {
	f := newFixture(t)
	// Construct a degenerate scrap directly via the generic store to
	// bypass the DMI guard, then confirm OpenScrap reports it.
	d := f.app.DMI()
	s, err := d.CreateScrap("x", Coordinate{0, 0}, "ghost-mark")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.app.OpenScrap(s.ID()); err == nil {
		t.Fatal("resolving a ghost mark succeeded")
	}
}

func TestPeekScrap(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	f.sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("A3")
	f.sheets.SelectRange("Meds", r)
	scrap, _ := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "", Coordinate{0, 0})
	// Move the viewer away; peek must not move it back.
	r1, _ := spreadsheet.ParseRange("A1")
	f.sheets.SelectRange("Meds", r1)
	content, err := f.app.PeekScrap(scrap.ID())
	if err != nil || content != "Insulin" {
		t.Fatalf("Peek = %q, %v", content, err)
	}
	sel, _ := f.sheets.CurrentSelection()
	if sel.Path != "Meds!A1" {
		t.Error("peek moved the viewer")
	}
}

func TestRefreshScrapDetectsDrift(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	f.sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("B2")
	f.sheets.SelectRange("Meds", r)
	scrap, _ := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "dose", Coordinate{0, 0})

	changed, err := f.app.RefreshScrap(scrap.ID())
	if err != nil || changed {
		t.Fatalf("no-change refresh = %v, %v", changed, err)
	}
	// The base document changes behind the pad's back.
	w, _ := f.sheets.Workbook("meds.xls")
	s, _ := w.Sheet("Meds")
	cell, _ := spreadsheet.ParseCell("B2")
	s.Set(cell, "80mg")
	changed, err = f.app.RefreshScrap(scrap.ID())
	if err != nil || !changed {
		t.Fatalf("drift refresh = %v, %v", changed, err)
	}
}

func TestTreeRendering(t *testing.T) {
	f := newFixture(t)
	pad, root, _ := f.app.NewPad("Rounds")
	john, _ := f.app.DMI().CreateBundle("John Smith", Coordinate{16, 24}, 300, 200)
	f.app.DMI().AddNestedBundle(root.ID(), john.ID())
	f.sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("A2:C2")
	f.sheets.SelectRange("Meds", r)
	if _, err := f.app.ClipSelection(john.ID(), spreadsheet.Scheme, "Furosemide 40mg IV", Coordinate{20, 40}); err != nil {
		t.Fatal(err)
	}
	tree, err := f.app.Tree(pad.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`SLIMPad "Rounds"`, "[John Smith]", "* Furosemide 40mg IV", "spreadsheet://meds.xls#Meds!A2:C2"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// A pad with no root renders gracefully.
	bare, _ := f.app.DMI().CreateSlimPad("bare")
	tree2, err := f.app.Tree(bare.ID())
	if err != nil || !strings.Contains(tree2, "no root bundle") {
		t.Errorf("bare tree = %q, %v", tree2, err)
	}
}

func TestTreeRendersExtensions(t *testing.T) {
	f := newFixture(t)
	pad, root, _ := f.app.NewPad("Rounds")
	d := f.app.DMI()
	s1, _ := d.CreateScrap("K+ 3.1", Coordinate{0, 0}, "m1")
	s2, _ := d.CreateScrap("KCl 40meq", Coordinate{0, 0}, "m2")
	d.AddScrapToBundle(root.ID(), s1.ID())
	d.AddScrapToBundle(root.ID(), s2.ID())
	d.AnnotateScrap(s1.ID(), "recheck at 18:00")
	d.LinkScraps(s1.ID(), s2.ID())
	d.MarkAsTemplate(root.ID(), "rounds-template")
	tree, err := f.app.Tree(pad.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(template "rounds-template")`,
		". note: recheck at 18:00",
		". see: KCl 40meq",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestPadStats(t *testing.T) {
	f := newFixture(t)
	pad, root, _ := f.app.NewPad("Rounds")
	john, _ := f.app.DMI().CreateBundle("John Smith", Coordinate{0, 0}, 10, 10)
	f.app.DMI().AddNestedBundle(root.ID(), john.ID())
	f.sheets.Open("meds.xls")
	for _, ref := range []string{"A2", "A3"} {
		r, _ := spreadsheet.ParseRange(ref)
		f.sheets.SelectRange("Meds", r)
		if _, err := f.app.ClipSelection(john.ID(), spreadsheet.Scheme, "", Coordinate{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := f.app.PadStats(pad.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Bundles != 2 || st.Scraps != 2 || st.Marks != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Pad without root: zero stats.
	bare, _ := f.app.DMI().CreateSlimPad("bare")
	st2, err := f.app.PadStats(bare.ID())
	if err != nil || st2 != (Stats{}) {
		t.Fatalf("bare stats = %+v, %v", st2, err)
	}
}

func TestAppSaveLoadWithMarks(t *testing.T) {
	f := newFixture(t)
	pad, root, _ := f.app.NewPad("Rounds")
	f.sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("A2")
	f.sheets.SelectRange("Meds", r)
	scrap, _ := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "", Coordinate{0, 0})
	_ = pad

	path := filepath.Join(t.TempDir(), "pad.xml")
	if err := f.app.Save(path); err != nil {
		t.Fatal(err)
	}

	// A second session (fresh app, fresh mark manager, same base apps).
	mm2 := mark.NewManager()
	mm2.RegisterApplication(f.sheets)
	app2, err := NewApp(mm2)
	if err != nil {
		t.Fatal(err)
	}
	pads, err := app2.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 1 {
		t.Fatalf("pads = %d", len(pads))
	}
	// The scrap still opens its base element.
	el, err := app2.OpenScrap(scrap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if el.Content != "Furosemide" {
		t.Errorf("Content after reload = %q", el.Content)
	}
}

// walCounter is a WAL backend that records, at every Save, how many
// captured ops the save is about to commit.
type walCounter struct {
	*trim.WALStore
	commits []int
}

func (w *walCounter) Save() error {
	w.commits = append(w.commits, w.Pending())
	return w.WALStore.Save()
}

// TestSaveWithCommitsOnlyTheEdit: on a WAL-backed pad, a save after one
// scrap move commits the move's two triple changes and nothing for the
// marks it left alone.
func TestSaveWithCommitsOnlyTheEdit(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	f.sheets.Open("meds.xls")
	var scraps []Scrap
	for _, cell := range []string{"A2", "B2", "A3"} {
		r, _ := spreadsheet.ParseRange(cell)
		f.sheets.SelectRange("Meds", r)
		s, err := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "", Coordinate{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		scraps = append(scraps, s)
	}
	path := filepath.Join(t.TempDir(), "pad.wal")
	ws, err := trim.OpenWAL(f.app.DMI().Store().Trim(), path, trim.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	b := &walCounter{WALStore: ws}
	if err := f.app.SaveWith(b); err != nil {
		t.Fatal(err)
	}
	if err := f.app.DMI().MoveScrap(scraps[1].ID(), Coordinate{40, 12}); err != nil {
		t.Fatal(err)
	}
	if err := f.app.SaveWith(b); err != nil {
		t.Fatal(err)
	}
	if got := b.commits[len(b.commits)-1]; got != 2 {
		t.Fatalf("save after one move committed %d op(s), want the move's 2", got)
	}
	live := f.app.DMI().Store().Trim().Snapshot()
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	// The log holds the whole pad: a fresh session recovers it, marks too.
	mm2 := mark.NewManager()
	mm2.RegisterApplication(f.sheets)
	app2, err := NewApp(mm2)
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := trim.OpenWAL(app2.DMI().Store().Trim(), path, trim.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if _, err := app2.LoadWith(ws2); err != nil {
		t.Fatal(err)
	}
	if !app2.DMI().Store().Trim().Snapshot().Equal(live) {
		t.Fatal("recovered pad differs from the saved one")
	}
	if !reflect.DeepEqual(mm2.Marks(), f.app.Marks().Marks()) {
		t.Fatalf("recovered marks %v, want %v", mm2.Marks(), f.app.Marks().Marks())
	}
}

func TestCheckReportsDanglingMarks(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	s, _ := f.app.DMI().CreateScrap("ghost", Coordinate{0, 0}, "mark-does-not-exist")
	f.app.DMI().AddScrapToBundle(root.ID(), s.ID())
	problems, err := f.app.Check()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range problems {
		if strings.Contains(p, "dangling-mark") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dangling mark not reported: %v", problems)
	}
}

func TestCheckCleanPad(t *testing.T) {
	f := newFixture(t)
	_, root, _ := f.app.NewPad("Rounds")
	f.sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("A2")
	f.sheets.SelectRange("Meds", r)
	if _, err := f.app.ClipSelection(root.ID(), spreadsheet.Scheme, "", Coordinate{0, 0}); err != nil {
		t.Fatal(err)
	}
	problems, err := f.app.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean pad has problems: %v", problems)
	}
}

func TestAccessors(t *testing.T) {
	f := newFixture(t)
	if f.app.Marks() == nil || f.app.DMI() == nil {
		t.Fatal("accessors broken")
	}
}
