package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTrackedMutexCounts: every acquisition lands in the wait histogram
// (uncontended ones as a zero), so the sample count equals the
// acquisition count.
func TestTrackedMutexCounts(t *testing.T) {
	m := NewTrackedMutex("test.lock.counts")
	for i := 0; i < 10; i++ {
		m.Lock()
		m.Unlock()
	}
	st, ok := LockProfile("test.lock.counts")
	if !ok {
		t.Fatal("lock not in the table")
	}
	if st.Write.Total != 10 || st.Write.WaitSamples != 10 {
		t.Fatalf("total=%d wait_samples=%d, want 10/10", st.Write.Total, st.Write.WaitSamples)
	}
	if st.Read != nil {
		t.Fatalf("plain mutex reports read stats: %+v", st.Read)
	}
	if st.Write.Contended != 0 {
		t.Fatalf("uncontended loop counted %d contended acquisitions", st.Write.Contended)
	}
}

// blockPack holds m, lets n goroutines pile up blocked on Lock for
// holdFor, then releases them and waits for the chain to drain. Every
// released locker records a contended wait of at least holdFor.
func blockPack(m *TrackedMutex, n int, holdFor time.Duration) {
	m.Lock()
	var started sync.WaitGroup
	var done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			started.Done()
			m.Lock()
			m.Unlock()
		}()
	}
	started.Wait()
	// The goroutines have announced themselves; give them time to reach
	// the blocking Lock before the release.
	time.Sleep(holdFor)
	m.Unlock()
	done.Wait()
}

// TestTrackedMutexContention: blocked Locks increment the contended
// counter and push the wait quantiles into real territory.
func TestTrackedMutexContention(t *testing.T) {
	m := NewTrackedMutex("test.lock.contention")
	blockPack(m, 20, 20*time.Millisecond)
	st, _ := LockProfile("test.lock.contention")
	if st.Write.Contended < 15 {
		t.Fatalf("contended=%d, want most of the 20 blocked lockers", st.Write.Contended)
	}
	if st.Write.WaitP95NS <= int64(time.Millisecond) {
		t.Fatalf("p95 wait %d, want > 1ms after 20ms blocks", st.Write.WaitP95NS)
	}
	if st.Write.HoldP99NS <= 0 {
		t.Fatalf("p99 hold %d, want > 0 after a 20ms hold", st.Write.HoldP99NS)
	}
}

// TestTrackedRWMutexReaderOutwaitsSpin: a reader blocked by a writer for
// far longer than readSpin still gets the lock once the writer leaves, and
// its one recorded wait covers both the spin and the park.
func TestTrackedRWMutexReaderOutwaitsSpin(t *testing.T) {
	m := NewTrackedRWMutex("test.lock.readspin")
	const holdFor = 20 * time.Millisecond
	m.Lock()
	var started sync.WaitGroup
	started.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		started.Done()
		m.RLock()
		m.RUnlock()
	}()
	started.Wait()
	time.Sleep(holdFor)
	m.Unlock()
	<-done
	st, _ := LockProfile("test.lock.readspin")
	if st.Read == nil || st.Read.Total != 1 || st.Read.Contended != 1 {
		t.Fatalf("read stats %+v, want one contended acquisition", st.Read)
	}
	if st.Read.WaitMeanNS < float64(holdFor/2) {
		t.Fatalf("recorded read wait %.0fns, want about the %v the writer held", st.Read.WaitMeanNS, holdFor)
	}
}

// TestTrackedRWMutexRace hammers the lock from concurrent readers and
// writers; under -race this doubles as the data-race check for the
// tracked bookkeeping itself.
func TestTrackedRWMutexRace(t *testing.T) {
	m := NewTrackedRWMutex("test.lock.race")
	shared := 0
	var wg sync.WaitGroup
	const writers, readers, iters = 4, 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				shared++
				m.Unlock()
			}
		}()
	}
	sink := 0
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < iters; i++ {
				m.RLock()
				local += shared
				m.RUnlock()
			}
			m.Lock()
			sink += local
			m.Unlock()
		}()
	}
	wg.Wait()
	if shared != writers*iters {
		t.Fatalf("shared=%d, want %d (lost updates)", shared, writers*iters)
	}
	st, _ := LockProfile("test.lock.race")
	if st.Write.Total != writers*iters+readers {
		t.Fatalf("write total=%d, want %d", st.Write.Total, writers*iters+readers)
	}
	if st.Read == nil || st.Read.Total != readers*iters {
		t.Fatalf("read stats=%+v, want total %d", st.Read, readers*iters)
	}
	if st.Read.WaitSamples != st.Read.Total {
		t.Fatalf("read wait_samples=%d, want %d", st.Read.WaitSamples, st.Read.Total)
	}
}

// TestLockTableJSON: the table renders the /debug/contention document,
// sorted by name, aggregating same-named locks into one entry.
func TestLockTableJSON(t *testing.T) {
	tab := NewLockTable()
	m1 := NewTrackedMutex("test.table.b")
	tab.add("test.table.b", &m1.w, nil)
	rw := NewTrackedRWMutex("test.table.a")
	tab.add("test.table.a", &rw.w, &rw.r)
	// A duplicate registration shares the first entry instead of
	// clobbering it.
	m2 := NewTrackedMutex("test.table.b")
	tab.add("test.table.b", &m2.w, nil)

	m1.Lock()
	m1.Unlock()
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Locks []struct {
			Name  string `json:"name"`
			Write struct {
				Total int64 `json:"total"`
			} `json:"write"`
			Read *struct{} `json:"read"`
		} `json:"locks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("table JSON: %v\n%s", err, data)
	}
	if len(doc.Locks) != 2 || doc.Locks[0].Name != "test.table.a" || doc.Locks[1].Name != "test.table.b" {
		t.Fatalf("locks = %s", data)
	}
	if doc.Locks[0].Read == nil || doc.Locks[1].Read != nil {
		t.Fatalf("read presence wrong: %s", data)
	}
	if doc.Locks[1].Write.Total < 1 {
		t.Fatalf("write total not recorded: %s", data)
	}
}

// TestContentionCheck: healthy below the threshold, degraded with the
// offending lock named once a blocked acquisition pushes p95 wait past
// it.
func TestContentionCheck(t *testing.T) {
	tab := NewLockTable()
	m := NewTrackedMutex("test.check.hot")
	tab.add("test.check.hot", &m.w, nil)

	check := ContentionCheck(tab, time.Millisecond)
	if err := check(context.Background()); err != nil {
		t.Fatalf("idle table degraded: %v", err)
	}

	blockPack(m, 20, 20*time.Millisecond)

	err := check(context.Background())
	if err == nil || !strings.Contains(err.Error(), "test.check.hot") {
		t.Fatalf("check after 20ms block = %v, want the hot lock named", err)
	}
	// A generous threshold stays healthy on the same history.
	if err := ContentionCheck(tab, time.Minute)(context.Background()); err != nil {
		t.Fatalf("minute threshold degraded: %v", err)
	}
}
