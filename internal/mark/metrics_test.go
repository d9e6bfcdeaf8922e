package mark

import (
	"context"
	"errors"
	"testing"

	"repro/internal/base"
	"repro/internal/base/spreadsheet"
	"repro/internal/obs"
)

// failingModule resolves nothing: every Resolve errors, so tests can drive
// the per-scheme failure counters deterministically.
type failingModule struct{}

func (failingModule) Scheme() string { return "failing" }
func (failingModule) CreateMark(id string) (Mark, error) {
	return Mark{ID: id, Address: base.Address{Scheme: "failing", File: "f", Path: "p"}}, nil
}
func (failingModule) Resolve(Mark) (base.Element, error) {
	return base.Element{}, errors.New("base application is gone")
}

func TestFailedResolveBumpsSchemeErrorCounter(t *testing.T) {
	errs := obs.C("mark.resolve.failing.errors")
	dispatch := obs.C("mark.dispatch.failing")
	lat := obs.H("mark.resolve.failing.ns")
	errs0, disp0, lat0 := errs.Value(), dispatch.Value(), lat.Count()

	mm := NewManager()
	if err := mm.RegisterModule(failingModule{}); err != nil {
		t.Fatal(err)
	}
	m, err := mm.CreateFromSelection("failing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Resolve(m.ID); err == nil {
		t.Fatal("resolve unexpectedly succeeded")
	}
	if got := errs.Value() - errs0; got != 1 {
		t.Errorf("mark.resolve.failing.errors delta = %d, want 1", got)
	}
	if got := dispatch.Value() - disp0; got != 2 { // create + resolve both dispatch
		t.Errorf("mark.dispatch.failing delta = %d, want 2", got)
	}
	if got := lat.Count() - lat0; got != 1 {
		t.Errorf("mark.resolve.failing.ns observations delta = %d, want 1", got)
	}
}

func TestResolveUnknownMarkCountsUnderUnknownScheme(t *testing.T) {
	unknown := obs.C("mark.resolve.unknown.errors")
	u0 := unknown.Value()
	mm := NewManager()
	if _, err := mm.Resolve("mark-999999"); !errors.Is(err, ErrUnknownMark) {
		t.Fatalf("err = %v, want ErrUnknownMark", err)
	}
	if got := unknown.Value() - u0; got != 1 {
		t.Errorf("mark.resolve.unknown.errors delta = %d, want 1", got)
	}
}

func TestSuccessfulResolveCountsNoError(t *testing.T) {
	mm, sheets, _ := managerWithApps(t)
	errs := obs.C("mark.resolve.spreadsheet.errors")
	lat := obs.H("mark.resolve.spreadsheet.ns")
	create := obs.H("mark.create.spreadsheet.ns")
	errs0, lat0, create0 := errs.Value(), lat.Count(), create.Count()

	sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("A2")
	if err := sheets.SelectRange("Meds", r); err != nil {
		t.Fatal(err)
	}
	m, err := mm.CreateFromSelection(spreadsheet.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Resolve(m.ID); err != nil {
		t.Fatal(err)
	}
	if got := errs.Value() - errs0; got != 0 {
		t.Errorf("error counter bumped on success: delta = %d", got)
	}
	if got := lat.Count() - lat0; got != 1 {
		t.Errorf("mark.resolve.spreadsheet.ns delta = %d, want 1", got)
	}
	if got := create.Count() - create0; got != 1 {
		t.Errorf("mark.create.spreadsheet.ns delta = %d, want 1", got)
	}
}

// TestResolveShapeKeys: a resilient resolve counts the shape
// "mark.resolve scheme=<scheme> resolver=<resolver>", byte for byte the
// key it built per call before, once per call; an unknown mark counts
// under scheme "unknown". The key is built once per (scheme, resolver).
func TestResolveShapeKeys(t *testing.T) {
	mm := NewManager()
	if err := mm.RegisterModule(failingModule{}); err != nil {
		t.Fatal(err)
	}
	m, err := mm.CreateFromSelection("failing")
	if err != nil {
		t.Fatal(err)
	}
	count := func(key string) int64 {
		for _, e := range obs.DefaultTopQueries.Top(0) {
			if e.Key == key {
				return e.Count
			}
		}
		return 0
	}
	obs.DefaultTopQueries.Reset()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		mm.ResolveCtx(ctx, m.ID)
	}
	mm.ResolveWithCtx(ctx, m.ID, ResolveInPlace)
	mm.ResolveCtx(ctx, "mark-999999")
	for key, want := range map[string]int64{
		"mark.resolve scheme=failing resolver=context": 3,
		"mark.resolve scheme=failing resolver=inplace": 1,
		"mark.resolve scheme=unknown resolver=context": 1,
	} {
		if got := count(key); got != want {
			t.Errorf("%q counted %d, want %d", key, got, want)
		}
	}
	if resolveShape("failing", ResolveContext) != resolveShape("failing", ResolveContext) {
		t.Error("one (scheme, resolver) gave two shape counts")
	}
}

// TestResolveAllocations guards a resolve's instrumentation: its latency
// histogram and dispatch counter are looked up once per (op, scheme), and
// its slow-ring detail is built only for a slow resolve, so recording a
// resolve builds no metric name and no string.
func TestResolveAllocations(t *testing.T) {
	mm, sheets, _ := managerWithApps(t)
	sheets.Open("meds.xls")
	r, _ := spreadsheet.ParseRange("A2")
	if err := sheets.SelectRange("Meds", r); err != nil {
		t.Fatal(err)
	}
	m, err := mm.CreateFromSelection(spreadsheet.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := mm.Resolve(m.ID); err != nil {
			t.Fatal(err)
		}
	})
	if got > 5 {
		t.Errorf("Resolve allocates %v times, want at most 5", got)
	}
}
