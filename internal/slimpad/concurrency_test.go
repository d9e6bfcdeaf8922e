package slimpad

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// Concurrent pad manipulation: multiple clinicians working on one shared
// pad must never corrupt the store (the shared-bundle use case of §2:
// "sharing bundles to establish collectively maintained, situated
// awareness").
func TestConcurrentPadManipulation(t *testing.T) {
	d := newDMI(t)
	pad, err := d.CreateSlimPad("shared")
	if err != nil {
		t.Fatal(err)
	}
	root, err := d.CreateBundle("root", Coordinate{}, 800, 600)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetRootBundle(pad.ID(), root.ID()); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b, err := d.CreateBundle(fmt.Sprintf("w%d-b%d", w, i), Coordinate{X: w, Y: i}, 10, 10)
				if err != nil {
					errs <- err
					return
				}
				if err := d.AddNestedBundle(root.ID(), b.ID()); err != nil {
					errs <- err
					return
				}
				s, err := d.CreateScrap(fmt.Sprintf("w%d-s%d", w, i), Coordinate{X: i, Y: w}, fmt.Sprintf("mark-w%d-%d", w, i))
				if err != nil {
					errs <- err
					return
				}
				if err := d.AddScrapToBundle(b.ID(), s.ID()); err != nil {
					errs <- err
					return
				}
				// Interleave reads.
				if _, err := d.Bundle(b.ID()); err != nil {
					errs <- err
					return
				}
				if err := d.MoveScrap(s.ID(), Coordinate{X: i * 2, Y: w * 2}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := d.Bundle(root.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NestedBundles()) != workers*perWorker {
		t.Fatalf("nested bundles = %d, want %d", len(got.NestedBundles()), workers*perWorker)
	}
	// The store still conforms.
	vios, err := d.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 0 {
		t.Fatalf("violations after concurrent use: %d (first: %v)", len(vios), vios[0])
	}
}

// TestMoveRacingDeleteLeavesNoOrphan: a move racing the delete of its
// scrap either lands before the delete, which then removes it, or fails
// with no instance. The move's Set requires the scrap's rdf:type triple in
// the lock hold that writes the position; checked in a hold of its own,
// the delete could run in between and leave a position with no scrap.
// Each round races four pairs, so the scheduler spreads them over the
// CPUs rather than running one goroutine of a pair to completion first.
func TestMoveRacingDeleteLeavesNoOrphan(t *testing.T) {
	d := newDMI(t)
	const pairs = 4
	for round := 0; round < 250; round++ {
		var scraps [pairs]Scrap
		for i := range scraps {
			s, err := d.CreateScrap(fmt.Sprintf("s%d-%d", round, i), Coordinate{}, fmt.Sprintf("mark-%d-%d", round, i))
			if err != nil {
				t.Fatal(err)
			}
			scraps[i] = s
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		var moveErrs, deleteErrs [pairs]error
		for i, s := range scraps {
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				moveErrs[i] = d.MoveScrap(s.ID(), Coordinate{X: round, Y: i})
			}()
			go func() {
				defer wg.Done()
				<-start
				deleteErrs[i] = d.DeleteScrap(s.ID())
			}()
		}
		close(start)
		wg.Wait()
		for i, s := range scraps {
			if deleteErrs[i] != nil {
				t.Fatalf("round %d: delete: %v", round, deleteErrs[i])
			}
			if left := d.Store().Trim().Select(rdf.P(s.ID(), rdf.Zero, rdf.Zero)); len(left) != 0 {
				t.Fatalf("round %d: %d triples left of the deleted scrap (move error %v): %v", round, len(left), moveErrs[i], left)
			}
			if err := moveErrs[i]; err != nil && !strings.Contains(err.Error(), "no instance") {
				t.Fatalf("round %d: move: %v, want nil or no instance", round, err)
			}
		}
	}
	vios, err := d.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 0 {
		t.Fatalf("%d violations after racing moves and deletes (first: %v)", len(vios), vios[0])
	}
}
