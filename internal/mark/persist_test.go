package mark

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/base"
	"repro/internal/rdf"
	"repro/internal/trim"
)

func sampleMarks() []Mark {
	return []Mark{
		{ID: "mark-000001", Address: base.Address{Scheme: "spreadsheet", File: "meds.xls", Path: "Meds!A2"}, Excerpt: "Furosemide"},
		{ID: "mark-000002", Address: base.Address{Scheme: "xml", File: "lab.xml", Path: "/report[1]/panel[1]/result[2]"}, Excerpt: "4.1"},
		{ID: "mark-000003", Address: base.Address{Scheme: "pdf", File: "echo.pdf", Path: "page2/lines5-8"}},
	}
}

func TestSaveLoadTriples(t *testing.T) {
	mm := NewManager()
	for _, m := range sampleMarks() {
		if err := mm.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	// Typed classes present (one subclass of Mark per base type, Fig. 3).
	if !store.Has(rdf.T(MarkIRI("mark-000001"), rdf.RDFType, SchemeClass("spreadsheet"))) {
		t.Error("missing SpreadsheetMark typing")
	}
	if !store.Has(rdf.T(MarkIRI("mark-000002"), rdf.RDFType, SchemeClass("xml"))) {
		t.Error("missing XmlMark typing")
	}

	back := NewManager()
	if err := back.LoadFrom(store); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm.Marks(), back.Marks()) {
		t.Fatalf("marks differ:\n%v\n%v", mm.Marks(), back.Marks())
	}
}

func TestLoadAdvancesSequence(t *testing.T) {
	mm := NewManager()
	for _, m := range sampleMarks() {
		mm.Add(m)
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	back := NewManager()
	if err := back.LoadFrom(store); err != nil {
		t.Fatal(err)
	}
	// A fresh creation must not collide with loaded ids.
	app := &echoApp{selection: base.Address{Scheme: "echo", File: "f", Path: "p"}}
	back.RegisterApplication(app)
	m, err := back.CreateFromSelection("echo")
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "mark-000004" {
		t.Fatalf("new id = %q, want mark-000004", m.ID)
	}
}

func TestSaveToReplacesStale(t *testing.T) {
	mm := NewManager()
	m := sampleMarks()[0]
	mm.Add(m)
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	// Change the excerpt and save again: no duplicate triples.
	mm.Remove(m.ID)
	m.Excerpt = "Furosemide 40mg"
	mm.Add(m)
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	excerpts := store.Objects(MarkIRI(m.ID), PropExcerpt)
	if len(excerpts) != 1 || excerpts[0].Value() != "Furosemide 40mg" {
		t.Fatalf("excerpts after re-save = %v", excerpts)
	}
}

func TestLoadFromCorruptStore(t *testing.T) {
	store := trim.NewManager()
	// A mark typed but missing its scheme property.
	iri := MarkIRI("mark-000009")
	store.Create(rdf.T(iri, rdf.RDFType, ClassMark))
	store.Create(rdf.T(iri, PropFile, rdf.String("f")))
	store.Create(rdf.T(iri, PropPath, rdf.String("p")))
	mm := NewManager()
	if err := mm.LoadFrom(store); err == nil {
		t.Fatal("load of scheme-less mark succeeded")
	}
	// A mark resource with a non-standard IRI.
	store2 := trim.NewManager()
	store2.Create(rdf.T(rdf.IRI("http://elsewhere/mark"), rdf.RDFType, ClassMark))
	if err := mm.LoadFrom(store2); err == nil {
		t.Fatal("load of foreign-IRI mark succeeded")
	}
}

func TestMarksSurviveXMLFile(t *testing.T) {
	// Full persistence path: marks -> triples -> XML file -> triples -> marks.
	mm := NewManager()
	for _, m := range sampleMarks() {
		mm.Add(m)
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "marks.xml")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	store2 := trim.NewManager()
	if err := store2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	back := NewManager()
	if err := back.LoadFrom(store2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm.Marks(), back.Marks()) {
		t.Fatal("marks did not survive XML persistence")
	}
}

func TestSchemeClass(t *testing.T) {
	if SchemeClass("spreadsheet").Value() != rdf.NSMark+"SpreadsheetMark" {
		t.Errorf("SchemeClass = %v", SchemeClass("spreadsheet"))
	}
	if SchemeClass("") != ClassMark {
		t.Errorf("empty scheme class = %v", SchemeClass(""))
	}
}

// driftApp is a base application whose content the test edits, so that
// Refresh has drift to pick up. It is safe for concurrent use.
type driftApp struct {
	mu      sync.Mutex
	sel     string            // selected path; guarded by mu
	content map[string]string // content by path; guarded by mu
}

func newDriftApp() *driftApp { return &driftApp{content: make(map[string]string)} }

func (d *driftApp) Scheme() string { return "drift" }
func (d *driftApp) Name() string   { return "drift" }

func (d *driftApp) CurrentSelection() (base.Address, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return base.Address{Scheme: "drift", File: "f", Path: d.sel}, nil
}

func (d *driftApp) GoTo(a base.Address) (base.Element, error) {
	c, err := d.ExtractContent(a)
	return base.Element{Address: a, Content: c}, err
}

func (d *driftApp) ExtractContent(a base.Address) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.content[a.Path], nil
}

// set writes the content at path and, when sel is true, selects it.
func (d *driftApp) set(path, content string, sel bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.content[path] = content
	if sel {
		d.sel = path
	}
}

// storedIDs returns the ids of the mark:Mark resources in store, sorted.
func storedIDs(store *trim.Manager) []string {
	ids := []string{}
	for _, subj := range store.Subjects(rdf.RDFType, ClassMark) {
		ids = append(ids, strings.TrimPrefix(subj.Value(), rdf.NSMark+"id/"))
	}
	sort.Strings(ids)
	return ids
}

// reload loads store into a fresh manager and returns its marks.
func reload(t *testing.T, store *trim.Manager) []Mark {
	t.Helper()
	back := NewManager()
	if err := back.LoadFrom(store); err != nil {
		t.Fatal(err)
	}
	return back.Marks()
}

// sortedMarks returns the model's marks sorted by id, as Marks does.
func sortedMarks(model map[string]Mark) []Mark {
	out := make([]Mark, 0, len(model))
	for _, m := range model {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sortedIDs returns the ids of marks already sorted by id.
func sortedIDs(ms []Mark) []string {
	ids := make([]string, 0, len(ms))
	for _, m := range ms {
		ids = append(ids, m.ID)
	}
	return ids
}

func TestRemovedMarkLeavesStore(t *testing.T) {
	mm := NewManager()
	for _, m := range sampleMarks() {
		mm.Add(m)
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	mm.Remove("mark-000002")
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	if got := reload(t, store); !reflect.DeepEqual(got, mm.Marks()) {
		t.Fatalf("reloaded %d mark(s), want the %d left after Remove:\n%v", len(got), mm.Len(), got)
	}
}

// TestSaveToMatchesModel drives a seeded random mix of creates, adds,
// removes, refreshes, saves and loads over two stores, and checks the
// manager and both stores against plain maps of what each should hold.
func TestSaveToMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	app := newDriftApp()
	mm := NewManager()
	if err := mm.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	stores := []*trim.Manager{trim.NewManager(), trim.NewManager()}
	saved := []map[string]Mark{{}, {}}
	live := map[string]Mark{}
	// pick returns a live id, or now and then one that is not live.
	pick := func() string {
		ids := make([]string, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		if len(ids) == 0 || rng.Intn(8) == 0 {
			return "mark-999999"
		}
		sort.Strings(ids)
		return ids[rng.Intn(len(ids))]
	}
	content := func() string { return []string{"", "v1", "v2"}[rng.Intn(3)] }
	for step := 0; step < 1000; step++ {
		switch op := rng.Intn(20); {
		case op < 5:
			app.set(fmt.Sprintf("p%d", rng.Intn(16)), content(), true)
			m, err := mm.CreateFromSelection("drift")
			if err != nil {
				t.Fatalf("step %d: create: %v", step, err)
			}
			live[m.ID] = m
		case op < 7:
			m := Mark{
				ID:      fmt.Sprintf("ext-%d", rng.Intn(24)),
				Address: base.Address{Scheme: "drift", File: "f", Path: fmt.Sprintf("p%d", rng.Intn(16))},
				Excerpt: content(),
			}
			_, dup := live[m.ID]
			if err := mm.Add(m); (err != nil) != dup {
				t.Fatalf("step %d: Add(%s) = %v with the id live=%v", step, m.ID, err, dup)
			}
			if !dup {
				live[m.ID] = m
			}
		case op < 12:
			id := pick()
			_, ok := live[id]
			if got := mm.Remove(id); got != ok {
				t.Fatalf("step %d: Remove(%s) = %v, want %v", step, id, got, ok)
			}
			delete(live, id)
		case op < 16:
			id := pick()
			m, ok := live[id]
			if ok {
				app.set(m.Address.Path, content(), false)
			}
			got, _, err := mm.Refresh(id)
			if (err == nil) != ok {
				t.Fatalf("step %d: Refresh(%s) = %v with the id live=%v", step, id, err, ok)
			}
			if ok {
				m.Excerpt = got
				live[id] = m
			}
		case op < 18:
			i := rng.Intn(len(stores))
			if err := mm.SaveTo(stores[i]); err != nil {
				t.Fatalf("step %d: SaveTo(store %d): %v", step, i, err)
			}
			saved[i] = maps.Clone(live)
			want := sortedMarks(live)
			if got, ids := storedIDs(stores[i]), sortedIDs(want); !reflect.DeepEqual(got, ids) {
				t.Fatalf("step %d: store %d holds marks %v, want %v", step, i, got, ids)
			}
			if got := reload(t, stores[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: store %d reloads as\n%v\nwant\n%v", step, i, got, want)
			}
		default:
			i := rng.Intn(len(stores))
			if err := mm.LoadFrom(stores[i]); err != nil {
				t.Fatalf("step %d: LoadFrom(store %d): %v", step, i, err)
			}
			live = maps.Clone(saved[i])
		}
		if got, want := mm.Marks(), sortedMarks(live); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: manager holds\n%v\nwant\n%v", step, got, want)
		}
	}
}

// TestRefreshRacingSaveTo refreshes marks while another goroutine saves
// them: once both stop, one more save must store every mark's last
// excerpt.
func TestRefreshRacingSaveTo(t *testing.T) {
	app := newDriftApp()
	mm := NewManager()
	if err := mm.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	const marks, rounds = 8, 200
	for i := 0; i < marks; i++ {
		app.set(fmt.Sprintf("p%d", i), "v0", true)
		if _, err := mm.CreateFromSelection("drift"); err != nil {
			t.Fatal(err)
		}
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	ids := sortedIDs(mm.Marks())
	stop := make(chan struct{})
	saved := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				saved <- nil
				return
			default:
			}
			if err := mm.SaveTo(store); err != nil {
				saved <- err
				return
			}
		}
	}()
	for r := 1; r <= rounds; r++ {
		for i, id := range ids {
			app.set(fmt.Sprintf("p%d", i), fmt.Sprintf("v%d", r), false)
			if _, _, err := mm.Refresh(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	for _, m := range reload(t, store) {
		if want := fmt.Sprintf("v%d", rounds); m.Excerpt != want {
			t.Errorf("%s stored excerpt %q, want %q", m.ID, m.Excerpt, want)
		}
	}
}

// TestCreateRemovePairsLeaveNoRecord: marks created and removed again
// between two saves leave nothing for the next save to write, so the
// change record stays bounded however long a session runs without saving.
func TestCreateRemovePairsLeaveNoRecord(t *testing.T) {
	mm := NewManager()
	if err := mm.RegisterApplication(&echoApp{selection: base.Address{Scheme: "echo", File: "f", Path: "p"}}); err != nil {
		t.Fatal(err)
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		m, err := mm.CreateFromSelection("echo")
		if err != nil {
			t.Fatal(err)
		}
		mm.Remove(m.ID)
	}
	mm.mu.RLock()
	n := len(mm.changed)
	mm.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d id(s) recorded after create/remove pairs, want 0", n)
	}
}

// TestFailedSaveStagesAgain: a save that fails leaves the store unchanged
// and keeps its changes for the next save.
func TestFailedSaveStagesAgain(t *testing.T) {
	mm := NewManager()
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	good := sampleMarks()[0]
	mm.Add(good)
	// An excerpt that is not UTF-8 fails the triple validation.
	bad := Mark{ID: "mark-000777", Address: good.Address, Excerpt: "\xff"}
	mm.Add(bad)
	if err := mm.SaveTo(store); err == nil {
		t.Fatal("save of an invalid mark succeeded")
	}
	if store.Len() != 0 {
		t.Fatalf("failed save left %d triple(s) in the store", store.Len())
	}
	mm.Remove(bad.ID)
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	if got := reload(t, store); !reflect.DeepEqual(got, []Mark{good}) {
		t.Fatalf("store reloads as %v, want only %s", got, good.ID)
	}
}

// TestUnsyncedSaveReconciles: a save to a store the manager has not synced
// with, or after a failed load, deletes the stored marks the manager does
// not hold.
func TestUnsyncedSaveReconciles(t *testing.T) {
	other := NewManager()
	for _, m := range sampleMarks() {
		other.Add(m)
	}
	store := trim.NewManager()
	if err := other.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	mm := NewManager()
	mine := Mark{ID: "mark-000100", Address: base.Address{Scheme: "echo", File: "f", Path: "p"}}
	mm.Add(mine)
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	if got := reload(t, store); !reflect.DeepEqual(got, []Mark{mine}) {
		t.Fatalf("store reloads as %v, want only %s", got, mine.ID)
	}

	// A foreign mark slips into the synced store; a failed load unsyncs
	// the manager, so the next save removes it again.
	for _, tr := range markTriples(sampleMarks()[1]) {
		if _, err := store.Create(tr); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := trim.NewManager()
	corrupt.Create(rdf.T(rdf.IRI("http://elsewhere/mark"), rdf.RDFType, ClassMark))
	if err := mm.LoadFrom(corrupt); err == nil {
		t.Fatal("load of a foreign-IRI mark succeeded")
	}
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	if got := reload(t, store); !reflect.DeepEqual(got, []Mark{mine}) {
		t.Fatalf("after a failed load, store reloads as %v, want only %s", got, mine.ID)
	}
}
