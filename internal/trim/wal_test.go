package trim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rdf"
)

// openWALT opens a WAL backend over a fresh manager, failing the test on
// error.
func openWALT(t *testing.T, path string, opts WALOptions) (*Manager, *WALStore) {
	t.Helper()
	m := NewManager()
	ws, err := OpenWAL(m, path, opts)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	t.Cleanup(func() { ws.Close() })
	return m, ws
}

// requireRecovered reopens the WAL at path into a fresh manager and fails
// unless the recovered contents equal want.
func requireRecovered(t *testing.T, label, path string, want *rdf.Graph) {
	t.Helper()
	m := NewManager()
	ws, err := OpenWAL(m, path, WALOptions{})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer ws.Close()
	if got := m.Snapshot(); !got.Equal(want) {
		t.Fatalf("%s: recovered %d triple(s), want %d (contents differ)", label, m.Len(), want.Len())
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 25)
	m.Remove(rdf.T(rdf.IRI("http://t/s3"), rdf.IRI("http://t/p3"), rdf.String("v3")))
	if ws.Pending() == 0 {
		t.Fatal("mutations were not captured")
	}
	if err := ws.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if ws.Pending() != 0 {
		t.Fatalf("%d ops still pending after Commit", ws.Pending())
	}
	requireRecovered(t, "round trip", path, m.Snapshot())
}

func TestWALBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 10)
	b := m.NewBatch()
	if err := b.RemoveMatching(rdf.P(rdf.IRI("http://t/s1"), rdf.Zero, rdf.Zero)); err != nil {
		t.Fatal(err)
	}
	if err := b.Create(rdf.T(rdf.IRI("http://t/new"), rdf.RDFType, rdf.IRI("http://t/Thing"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, "batch", path, m.Snapshot())
}

// TestWALCommitRetryIdempotent fails the fsync so Commit errors after the
// record may already be in the file, then retries: the retry appends a
// duplicate record, and recovery must still converge to exactly the final
// state (no loss, no duplicates from re-replay).
func TestWALCommitRetryIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 8)
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	m.Create(rdf.T(rdf.IRI("http://t/x"), rdf.IRI("http://t/p"), rdf.String("batch2")))
	m.Remove(rdf.T(rdf.IRI("http://t/s2"), rdf.IRI("http://t/p2"), rdf.String("v2")))

	defer SetPersistFault(SetPersistFault(func(s PersistStage, _ string) error {
		if s == StageWALSync {
			return fmt.Errorf("injected at %s", s)
		}
		return nil
	}))
	if err := ws.Commit(); err == nil {
		t.Fatal("Commit survived injected fsync fault")
	}
	if ws.Pending() == 0 {
		t.Fatal("pending ops dropped on failed Commit")
	}
	SetPersistFault(nil)
	// Retry succeeds and may write the ops a second time.
	if err := ws.Commit(); err != nil {
		t.Fatalf("retry Commit: %v", err)
	}
	requireRecovered(t, "after retry", path, m.Snapshot())
}

func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{CompactEvery: 3})
	for i := 0; i < 3; i++ {
		m.Create(rdf.T(rdf.IRI(fmt.Sprintf("http://t/r%d", i)), rdf.IRI("http://t/p"), rdf.String("v")))
		if err := ws.Save(); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	// The third Save crossed the threshold: snapshot written, log reset.
	if n := ws.RecordsSinceCompact(); n != 0 {
		t.Fatalf("RecordsSinceCompact = %d after threshold, want 0", n)
	}
	if _, err := os.Stat(path + SnapshotSuffix); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	rep, err := WALCheck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || !rep.SnapshotOK {
		t.Fatalf("post-compaction WALCheck = %+v, want empty intact log + ok snapshot", rep)
	}
	requireRecovered(t, "compacted", path, m.Snapshot())

	// Post-compaction mutations land in the fresh log and recovery layers
	// them over the snapshot.
	m.Create(rdf.T(rdf.IRI("http://t/after"), rdf.IRI("http://t/p"), rdf.String("v")))
	if err := ws.Save(); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, "snapshot+log", path, m.Snapshot())
}

// TestWALAdoptsInMemoryState attaches a WAL to an already-populated
// manager: with no durable state on disk, the contents must survive the
// attach and become durable at the first Compact.
func TestWALAdoptsInMemoryState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m := NewManager()
	populate(m, 15)
	before := m.Snapshot()
	ws, err := OpenWAL(m, path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if !m.Snapshot().Equal(before) {
		t.Fatal("attaching a WAL to a fresh path wiped the manager")
	}
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, "adopted", path, before)
}

// TestWALLoadDropsUncommitted verifies Load returns to the durable state,
// discarding captured-but-uncommitted mutations.
func TestWALLoadDropsUncommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 5)
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	durableState := m.Snapshot()
	m.Create(rdf.T(rdf.IRI("http://t/uncommitted"), rdf.IRI("http://t/p"), rdf.String("v")))
	if err := ws.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !m.Snapshot().Equal(durableState) {
		t.Fatal("Load did not return to the last durable state")
	}
	// The store keeps capturing after a Load.
	m.Create(rdf.T(rdf.IRI("http://t/after-load"), rdf.IRI("http://t/p"), rdf.String("v")))
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, "after load", path, m.Snapshot())
}

// TestWALOpenThenLoadReplaysOnce: OpenWAL recovers the store, so a Load
// right after it has nothing to redo and must not replay the log again. A
// Load after a mutation still returns to the durable state.
func TestWALOpenThenLoadReplaysOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 5)
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	durableState := m.Snapshot()

	before := mWALReplayTotal.Value()
	m2, ws2 := openWALT(t, path, WALOptions{})
	if err := ws2.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := mWALReplayTotal.Value() - before; got != 1 {
		t.Fatalf("OpenWAL then Load replayed the log %d time(s), want 1", got)
	}
	if !m2.Snapshot().Equal(durableState) {
		t.Fatal("store after OpenWAL and Load differs from the durable state")
	}

	m2.Create(rdf.T(rdf.IRI("http://t/uncommitted"), rdf.IRI("http://t/p"), rdf.String("v")))
	if err := ws2.Commit(); err != nil {
		t.Fatal(err)
	}
	m2.Create(rdf.T(rdf.IRI("http://t/dropped"), rdf.IRI("http://t/p"), rdf.String("v")))
	before = mWALReplayTotal.Value()
	if err := ws2.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := mWALReplayTotal.Value() - before; got != 1 {
		t.Fatalf("Load after a mutation replayed the log %d time(s), want 1", got)
	}
	if m2.Has(rdf.T(rdf.IRI("http://t/dropped"), rdf.IRI("http://t/p"), rdf.String("v"))) ||
		!m2.Has(rdf.T(rdf.IRI("http://t/uncommitted"), rdf.IRI("http://t/p"), rdf.String("v"))) {
		t.Fatal("Load after a mutation did not return to the durable state")
	}
}

// TestWALReopenedSessionReplaysLast: a session opened on an existing log
// must stamp its ops above every logged generation, however few mutations
// its own recovery made, so the next recovery replays its ops after the
// older ones.
func TestWALReopenedSessionReplaysLast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, p := rdf.IRI("http://t/s"), rdf.IRI("http://t/pos")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 200)
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []string{"A", "B"} {
		if err := m.SetUnique(s, p, rdf.String(pos)); err != nil {
			t.Fatal(err)
		}
		if err := ws.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	m2, ws2 := openWALT(t, path, WALOptions{})
	if err := m2.SetUnique(s, p, rdf.String("C")); err != nil {
		t.Fatal(err)
	}
	if err := ws2.Close(); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, "after a second session", path, m2.Snapshot())
}

// TestDecodeWALOpsCopiesLines: each replayed term must pin only its own
// line, not the whole record. Were the terms substrings of one string, the
// second line's subject would lie exactly one line stride after the
// first's; separate copies cannot, because allocations are 8-byte aligned
// and the stride is not.
func TestDecodeWALOpsCopiesLines(t *testing.T) {
	ops := []walOp{
		{gen: 1, add: true, t: rdf.T(rdf.IRI("http://t/s1"), rdf.IRI("http://t/p"), rdf.String("one"))},
		{gen: 2, add: true, t: rdf.T(rdf.IRI("http://t/s2"), rdf.IRI("http://t/p"), rdf.String("two"))},
	}
	payload := encodeWALOps(ops)
	first, _, _ := bytes.Cut(payload, []byte{'\n'})
	stride := uintptr(len(first) + 1)
	if stride%8 == 0 {
		t.Fatalf("line stride %d is 8-aligned; the check needs terms that make it not", stride)
	}
	got, err := decodeWALOps(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].t != ops[0].t || got[1].t != ops[1].t {
		t.Fatalf("decoded %v, want %v", got, ops)
	}
	data := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	for _, pos := range []func(rdf.Triple) rdf.Term{
		func(t rdf.Triple) rdf.Term { return t.Subject },
		func(t rdf.Triple) rdf.Term { return t.Predicate },
	} {
		if data(pos(got[1].t).Value())-data(pos(got[0].t).Value()) == stride {
			t.Fatalf("terms %v and %v of different lines share one backing array", pos(got[0].t), pos(got[1].t))
		}
	}
}

// TestWALConcurrentMutators races mutations from several goroutines: the
// generation stamps must give replay a total order that reproduces the
// final state exactly, even though observer delivery order is unspecified.
func TestWALConcurrentMutators(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Every goroutine fights over the same shared triples, so
				// creates and removes of the same triple interleave.
				shared := rdf.T(rdf.IRI(fmt.Sprintf("http://t/shared%d", i%7)), rdf.IRI("http://t/p"), rdf.String("s"))
				if i%3 == 0 {
					m.Remove(shared)
				} else {
					m.Create(shared)
				}
				m.Create(rdf.T(rdf.IRI(fmt.Sprintf("http://t/g%d", g)), rdf.IRI("http://t/i"), rdf.String(fmt.Sprintf("%d", i))))
			}
		}(g)
	}
	wg.Wait()
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, "concurrent", path, m.Snapshot())
}

// TestWALCrashPointSweep is the crash-point sweep over every durable stage
// of the WAL write path (commit append, commit fsync, compaction begin,
// the five snapshot-write stages, and the post-compaction truncate). For
// each stage it builds an acknowledged state, injects the fault, attempts
// the operation, abandons the store (the "crash"), and asserts recovery
// lands on exactly the expected side of the acknowledgment point.
func TestWALCrashPointSweep(t *testing.T) {
	type expect int
	const (
		ackedOnly expect = iota // batch B must NOT survive
		withBatch               // batch B must survive
	)
	cases := []struct {
		stage   PersistStage
		compact bool // fail during Compact (vs Commit)
		want    expect
	}{
		// Commit path: a fault before the record is written loses only the
		// unacknowledged batch; a fault at fsync leaves the record in the
		// file (this process wrote it), so in-process recovery sees it.
		{StageWALAppend, false, ackedOnly},
		{StageWALSync, false, withBatch},
		// Compaction path: the begin-stage fault fires before the pending
		// batch is flushed; every later fault happens after the flush, so
		// the batch is durable in the old log regardless of how far the
		// snapshot write got.
		{StageWALCompact, true, ackedOnly},
		{StageTempWrite, true, withBatch},
		{StageTempSync, true, withBatch},
		{StageBackup, true, withBatch},
		{StageRename, true, withBatch},
		{StageDirSync, true, withBatch},
		{StageWALTruncate, true, withBatch},
	}
	for _, tc := range cases {
		t.Run(string(tc.stage), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store.wal")
			m, ws := openWALT(t, path, WALOptions{})
			populate(m, 10)
			if err := ws.Commit(); err != nil {
				t.Fatal(err)
			}
			// A prior compaction so the snapshot exists — otherwise the
			// backup stage never fires during the swept compaction.
			if err := ws.Compact(); err != nil {
				t.Fatal(err)
			}
			acked := m.Snapshot()

			// Batch B: captured but not yet acknowledged.
			m.Create(rdf.T(rdf.IRI("http://t/b"), rdf.IRI("http://t/p"), rdf.String("batch")))
			m.Remove(rdf.T(rdf.IRI("http://t/s4"), rdf.IRI("http://t/p4"), rdf.String("v4")))
			withB := m.Snapshot()

			fail := tc.stage
			defer SetPersistFault(SetPersistFault(func(s PersistStage, _ string) error {
				if s == fail {
					return fmt.Errorf("injected at %s", s)
				}
				return nil
			}))
			var err error
			if tc.compact {
				err = ws.Compact()
			} else {
				err = ws.Commit()
			}
			SetPersistFault(nil)
			if err == nil {
				t.Fatalf("operation survived injected fault at %s", tc.stage)
			}
			// Crash: the store is abandoned without Close (Close would
			// commit the retained batch). Recovery opens the files fresh.
			want := acked
			if tc.want == withBatch {
				want = withB
			}
			requireRecovered(t, string(tc.stage), path, want)
		})
	}
}

func TestWALCheckReportsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 6)
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	m.Create(rdf.T(rdf.IRI("http://t/x"), rdf.IRI("http://t/p"), rdf.String("second")))
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := WALCheck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.TornBytes != 0 {
		t.Fatalf("intact WALCheck = %+v, want 2 records, no torn bytes", rep)
	}

	// Tear the tail: the report flags it without repairing the file.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = WALCheck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 1 || rep.TornBytes == 0 {
		t.Fatalf("torn WALCheck = %+v, want 1 record + torn bytes", rep)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(full)-3) {
		t.Fatal("WALCheck modified the file")
	}
}

func TestWALHealthCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	m, ws := openWALT(t, path, WALOptions{})
	populate(m, 4)
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	check := ws.HealthCheck()
	if err := check(nil); err != nil {
		t.Fatalf("healthy WAL reported unhealthy: %v", err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(nil); err == nil {
		t.Fatal("torn tail not reported by health check")
	}
}

func TestOpenBackendKinds(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range BackendKinds() {
		m := NewManager()
		populate(m, 9)
		want := m.Snapshot()
		b, err := OpenBackend(kind, m, filepath.Join(dir, "store."+kind))
		if err != nil {
			t.Fatalf("OpenBackend(%s): %v", kind, err)
		}
		if b.Kind() != kind {
			t.Fatalf("Kind = %q, want %q", b.Kind(), kind)
		}
		if err := b.Save(); err != nil {
			t.Fatalf("%s Save: %v", kind, err)
		}
		if kind == BackendWAL {
			// The population predates the WAL attach (OpenBackend adopted
			// it); anchor it so Load has durable state to recover.
			if err := b.(*WALStore).Compact(); err != nil {
				t.Fatal(err)
			}
		}
		m.Clear()
		if err := b.Load(); err != nil {
			t.Fatalf("%s Load: %v", kind, err)
		}
		if !m.Snapshot().Equal(want) {
			t.Fatalf("%s round trip lost data: %d triple(s), want %d", kind, m.Len(), want.Len())
		}
		if err := b.Close(); err != nil {
			t.Fatalf("%s Close: %v", kind, err)
		}
	}
	if _, err := OpenBackend("tape", NewManager(), filepath.Join(dir, "x")); err == nil {
		t.Fatal("unknown backend kind accepted")
	}
}

func TestJSONLRoundTripManager(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	m := NewManager()
	populate(m, 12)
	m.Create(rdf.T(rdf.IRI("http://t/typed"), rdf.IRI("http://t/n"),
		rdf.TypedLiteral("42", rdf.XSDInteger)))
	if err := m.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
	got := NewManager()
	if err := got.LoadJSONL(path); err != nil {
		t.Fatal(err)
	}
	if !got.Snapshot().Equal(m.Snapshot()) {
		t.Fatalf("JSONL round trip: %d triple(s), want %d", got.Len(), m.Len())
	}
}
