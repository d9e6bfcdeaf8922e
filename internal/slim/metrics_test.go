package slim

import (
	"fmt"
	"testing"

	"repro/internal/metamodel"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// TestDMIOpMetrics: every DMI op records its latency, count, errors and
// span under its own slim.dmi.<op>.* names and dmi.<op> span name.
func TestDMIOpMetrics(t *testing.T) {
	d := newBundleScrapDMI(t)
	createNS := obs.H(fmt.Sprintf(obs.FmtSlimDmiNS, "create"))
	createTotal := obs.C(fmt.Sprintf(obs.FmtSlimDmiTotal, "create"))
	createErrors := obs.C(fmt.Sprintf(obs.FmtSlimDmiErrors, "create"))
	getErrors := obs.C(fmt.Sprintf(obs.FmtSlimDmiErrors, "get"))
	ns0, total0, cerr0, gerr0 := createNS.Snapshot().Count, createTotal.Value(), createErrors.Value(), getErrors.Value()

	b, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "John Smith"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(rdf.IRI("http://nowhere/x")); err == nil {
		t.Fatal("Get of a missing instance succeeded")
	}
	if got := createNS.Snapshot().Count - ns0; got != 1 {
		t.Errorf("slim.dmi.create.ns gained %d observation(s), want 1", got)
	}
	if got := createTotal.Value() - total0; got != 1 {
		t.Errorf("slim.dmi.create.total rose by %d, want 1", got)
	}
	if got := createErrors.Value() - cerr0; got != 0 {
		t.Errorf("slim.dmi.create.errors rose by %d, want 0", got)
	}
	if got := getErrors.Value() - gerr0; got != 1 {
		t.Errorf("slim.dmi.get.errors rose by %d, want 1", got)
	}
	found := false
	for _, rec := range obs.DefaultTracer.Recent() {
		if rec.Op == "dmi.create" && rec.Detail == metamodel.ConstructBundle {
			found = true
		}
	}
	if !found {
		t.Errorf("no dmi.create span for %s in the trace ring", b.ID.Value())
	}
}

// TestDMIGetAllocations guards a DMI read's allocation count. Of the 4,
// the instrumentation's share is the two spans (the op's and its TRIM
// select's); the rest is the select's result, which the Object keeps, and
// the Object. It was 10, when the Object held a map of per-connector
// slices, and 17 before that, when each span took a second allocation for
// its context, a select built its shape key and span detail, and a result
// grew from nil.
func TestDMIGetAllocations(t *testing.T) {
	d := newBundleScrapDMI(t)
	obj, err := d.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName:   "b",
		metamodel.ConnBundlePos:    "1,2",
		metamodel.ConnBundleWidth:  100,
		metamodel.ConnBundleHeight: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = 4
	got := testing.AllocsPerRun(100, func() {
		if _, err := d.Get(obj.ID); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("DMI Get allocates %v times, want at most %d", got, want)
	}
}

// TestDMISetAllocations guards a DMI write's allocation count. Of the 4,
// the instrumentation's share is three spans: the op's, its rdf:type
// select's and its batch apply's. The staged Set is the fourth. The store
// allocates nothing: this store holds its bundle's one bundleName triple,
// and the swap keeps the predicate's id, so its cardinality record and
// cached shape keys stay rather than being built again on every Set.
func TestDMISetAllocations(t *testing.T) {
	d := newBundleScrapDMI(t)
	obj, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b"})
	if err != nil {
		t.Fatal(err)
	}
	const want = 4
	got := testing.AllocsPerRun(100, func() {
		if err := d.Set(obj.ID, metamodel.ConnBundleName, "renamed"); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("DMI Set allocates %v times, want at most %d", got, want)
	}
}
