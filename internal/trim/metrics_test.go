package trim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Counter assertions are deltas: the obs registry is process-wide and other
// tests in this package record into the same metrics.
func TestMetricsCreateSelect(t *testing.T) {
	create0, new0 := mCreateTotal.Value(), mCreateNew.Value()
	sel0, selNS0 := mSelectTotal.Value(), mSelectNS.Count()
	idxSub0, scan0 := mIdxSubject.Value(), mIdxScan.Value()
	createNS0 := mCreateNS.Count()

	m := NewManager()
	s := rdf.IRI("http://x/s")
	if _, err := m.Create(rdf.T(s, rdf.IRI("http://x/p"), rdf.String("v"))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(rdf.T(s, rdf.IRI("http://x/p"), rdf.String("v"))); err != nil {
		t.Fatal(err) // duplicate: total bumps, new does not
	}
	m.Select(rdf.P(s, rdf.Zero, rdf.Zero))        // subject index
	m.Select(rdf.P(rdf.Zero, rdf.Zero, rdf.Zero)) // full scan

	if got := mCreateTotal.Value() - create0; got != 2 {
		t.Errorf("trim.create.total delta = %d, want 2", got)
	}
	if got := mCreateNew.Value() - new0; got != 1 {
		t.Errorf("trim.create.new delta = %d, want 1", got)
	}
	if got := mCreateNS.Count() - createNS0; got != 2 {
		t.Errorf("trim.create.ns observations delta = %d, want 2", got)
	}
	if got := mSelectTotal.Value() - sel0; got != 2 {
		t.Errorf("trim.select.total delta = %d, want 2", got)
	}
	if got := mSelectNS.Count() - selNS0; got != 2 {
		t.Errorf("trim.select.ns observations delta = %d, want 2", got)
	}
	if got := mIdxSubject.Value() - idxSub0; got != 1 {
		t.Errorf("trim.index.subject delta = %d, want 1", got)
	}
	if got := mIdxScan.Value() - scan0; got != 1 {
		t.Errorf("trim.index.scan delta = %d, want 1", got)
	}
}

func TestMetricsObserverFanout(t *testing.T) {
	fan0 := mNotifyFanout.Value()
	m := NewManager()
	seen := 0
	m.ObserveSeq(func(uint64, rdf.Triple, bool) { seen++ })
	m.ObserveSeq(func(uint64, rdf.Triple, bool) { seen++ })
	if _, err := m.Create(rdf.T(rdf.IRI("http://x/s"), rdf.IRI("http://x/p"), rdf.String("v"))); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("observers saw %d notifications, want 2", seen)
	}
	if got := mNotifyFanout.Value() - fan0; got != 2 {
		t.Errorf("trim.observer.fanout delta = %d, want 2", got)
	}
}

func TestMetricsBatchAndLoad(t *testing.T) {
	batch0, batchOps0 := mBatchTotal.Value(), mBatchOps.Count()
	load0 := mLoadTriples.Value()

	m := NewManager()
	b := m.NewBatch()
	for i := 0; i < 3; i++ {
		if err := b.Create(rdf.T(rdf.IRI("http://x/s"), rdf.IRI("http://x/p"), rdf.Integer(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Apply(); err != nil {
		t.Fatal(err)
	}
	if got := mBatchTotal.Value() - batch0; got != 1 {
		t.Errorf("trim.batch.total delta = %d, want 1", got)
	}
	if got := mBatchOps.Count() - batchOps0; got != 1 {
		t.Errorf("trim.batch.ops observations delta = %d, want 1", got)
	}

	other := NewManager()
	other.Replace(m.Snapshot())
	if got := mLoadTriples.Value() - load0; got != 3 {
		t.Errorf("trim.load.triples delta = %d, want 3", got)
	}
}

func TestStatsIndexAndGeneration(t *testing.T) {
	m := NewManager()
	s1, s2 := rdf.IRI("http://x/a"), rdf.IRI("http://x/b")
	p := rdf.IRI("http://x/p")
	m.Create(rdf.T(s1, p, rdf.String("1")))
	m.Create(rdf.T(s2, p, rdf.String("2")))
	m.Create(rdf.T(s1, p, s2))

	st := m.Stats()
	if st.IndexSPO != 3 || st.IndexPOS != 3 || st.IndexOSP != 3 {
		t.Errorf("index entries = %d/%d/%d, want 3/3/3", st.IndexSPO, st.IndexPOS, st.IndexOSP)
	}
	if st.Generation != m.Generation() || st.Generation == 0 {
		t.Errorf("stats generation = %d, manager generation = %d", st.Generation, m.Generation())
	}
	line := st.String()
	for _, want := range []string{"spo=3", "pos=3", "osp=3", "generation=3", "triples=3"} {
		if !strings.Contains(line, want) {
			t.Errorf("stats string missing %q: %s", want, line)
		}
	}
	// Remove updates the index tallies.
	m.Remove(rdf.T(s1, p, s2))
	st = m.Stats()
	if st.IndexSPO != 2 || st.Generation != 4 {
		t.Errorf("after remove: spo=%d generation=%d, want 2, 4", st.IndexSPO, st.Generation)
	}
}

// TestSelectLockAccounting: a select hands its clock readings to the
// store lock, and the lock still counts as before. Each uncontended
// select, traced or not, is one read acquisition with a zero wait; each
// read epoch, not each reader, is one hold. k selects inside a read lock
// the test holds open are k+1 acquisitions in one epoch.
func TestSelectLockAccounting(t *testing.T) {
	m := NewManager()
	populate(m, 20)
	total := obs.C(fmt.Sprintf(obs.FmtLockTotal, obs.LockTrimStore, "r"))
	contended := obs.C(fmt.Sprintf(obs.FmtLockContended, obs.LockTrimStore, "r"))
	wait := obs.H(fmt.Sprintf(obs.FmtLockWaitNS, obs.LockTrimStore, "r"))
	hold := obs.H(fmt.Sprintf(obs.FmtLockHoldNS, obs.LockTrimStore, "r"))
	type counts struct{ total, contended, waits, waitSum, holds int64 }
	read := func() counts {
		return counts{total.Value(), contended.Value(), wait.Count(), wait.Sum(), hold.Count()}
	}
	ctx, root := obs.StartCtx(context.Background(), "test.root", "")
	defer root.Finish()
	pat := rdf.P(rdf.IRI("http://t/s3"), rdf.Zero, rdf.Zero)
	const k = 10

	before := read()
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			m.Select(pat)
		} else {
			m.SelectCtx(ctx, pat)
		}
	}
	if got, want := read(), (counts{before.total + k, before.contended, before.waits + k, before.waitSum, before.holds + k}); got != want {
		t.Errorf("after %d selects: %+v, want %+v", k, got, want)
	}

	before = read()
	m.mu.RLock()
	for i := 0; i < k; i++ {
		m.One(rdf.P(rdf.IRI("http://t/s3"), rdf.IRI("http://t/p3"), rdf.Zero))
	}
	m.mu.RUnlock()
	if got, want := read(), (counts{before.total + k + 1, before.contended, before.waits + k + 1, before.waitSum, before.holds + 1}); got != want {
		t.Errorf("after %d selects in one epoch: %+v, want %+v", k, got, want)
	}
}
