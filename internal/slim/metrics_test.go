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
