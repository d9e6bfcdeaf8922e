package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoHasNoFindings runs the full analyzer set over the real module
// and holds it to zero findings anywhere in ./..., the same gate `make
// lint` applies with `slimvet ./...`, pinned as a test so `go test ./...`
// catches drift too.
func TestRepoHasNoFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	l, err := NewLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("Load ./... found only %d packages; discovery is broken", len(pkgs))
	}
	diags, err := l.Run(pkgs, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding in ./... (the module is held to zero): %s", d)
	}
}

// TestLockOrderCycleWithTrackedMutexes is the tracked-lock regression: the
// obs.TrackedMutex drop-ins must participate in the acquisition graph
// exactly like sync.Mutex, so an inconsistent order between two tracked
// locks is reported from both sides. The lockorder fixture's Tracked
// scenario is the input; this test pins that the findings come from the
// tracked pair specifically, not just the plain-mutex scenarios.
func TestLockOrderCycleWithTrackedMutexes(t *testing.T) {
	l := newFixtureLoader(t)
	dir := filepath.Join(fixtureRoot(t, l), "lockorder")
	pkg, err := l.LoadDir(dir, "fixture/internal/lockorder")
	if err != nil {
		t.Fatalf("load lockorder fixture: %v", err)
	}
	diags, err := l.Run([]*Package{pkg}, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatalf("run lockorder: %v", err)
	}
	var forward, backward bool
	for _, d := range diags {
		if strings.Contains(d.Message, "Tracked.tn is acquired while holding Tracked.tm") {
			forward = true
		}
		if strings.Contains(d.Message, "Tracked.tm is acquired while holding Tracked.tn") {
			backward = true
		}
	}
	if !forward || !backward {
		t.Errorf("tracked-mutex cycle not reported from both sides (forward=%v backward=%v):\n%s",
			forward, backward, diagDump(diags))
	}
}
