package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTracerRingConcurrent drives the lock-free ring under -race: writers
// finish spans while readers call Recent, Trace, Roots and
// WriteTraceEvents, and one goroutine resets the ring mid-stream. Every
// record a reader sees must be whole — its fields all from one span — and
// each snapshot's Seq must rise strictly. A span field written after the
// span is published would show up here as a race.
func TestTracerRingConcurrent(t *testing.T) {
	const writers, spans = 4, 2000
	tr := NewTracer(64)
	var done atomic.Bool
	var wg, readers sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, root := tr.StartCtx(context.Background(), fmt.Sprintf("ring.w%d", w), "")
			for i := 0; i < spans; i++ {
				_, sp := tr.StartCtx(ctx, fmt.Sprintf("ring.w%d", w), "")
				sp.SetDetail(fmt.Sprintf("w%d-%d", w, i))
				sp.SkipJournal()
				var err error
				if i%7 == 0 {
					err = fmt.Errorf("w%d-%d", w, i)
				}
				sp.FinishDur(time.Duration(w*spans+i), err)
			}
			root.Finish()
		}(w)
	}
	check := func(recs []OpRecord) {
		var last uint64
		for _, r := range recs {
			if r.Seq <= last {
				t.Errorf("Seq %d after %d: not strictly rising", r.Seq, last)
				return
			}
			last = r.Seq
			var w, i int
			if r.Depth == 0 {
				continue // a writer's root
			}
			if _, err := fmt.Sscanf(r.Detail, "w%d-%d", &w, &i); err != nil ||
				r.Op != fmt.Sprintf("ring.w%d", w) || r.Dur != time.Duration(w*spans+i) ||
				(i%7 == 0) != (r.Err == r.Detail) || r.Parent == 0 || r.Trace == 0 {
				t.Errorf("torn record %+v", r)
				return
			}
		}
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for !done.Load() {
				recs := tr.Recent()
				check(recs)
				switch r {
				case 0:
					if len(recs) > 0 {
						tr.Trace(recs[len(recs)-1].Trace)
					}
				case 1:
					tr.Roots()
				case 2:
					if err := WriteTraceEvents(io.Discard, recs); err != nil {
						t.Error(err)
					}
				}
			}
		}(r)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !done.Load() {
			time.Sleep(time.Millisecond)
			tr.Reset()
		}
	}()
	wg.Wait()
	done.Store(true)
	readers.Wait()

	// Quiet again, the ring holds the newest spans in order.
	tr.Reset()
	for i := 0; i < 100; i++ {
		_, sp := tr.StartCtx(nil, "ring.after", fmt.Sprint(i))
		sp.FinishErr(errors.New("x"))
	}
	recs := tr.Recent()
	if len(recs) != 64 || recs[0].Seq != 37 || recs[63].Seq != 100 || recs[63].Detail != "99" {
		t.Fatalf("after the run: %d records, seq %d..%d", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
}
