package trim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/wal"
)

// The WAL durability backend (docs/ROBUSTNESS.md "Durability backends"):
// instead of rewriting the whole XML snapshot per mutation batch —
// crash-safe but O(store) — mutations are captured through the Manager's
// generation-stamped observer seam and appended to a CRC-framed write-
// ahead log (internal/wal) as one record per commit, O(batch). Periodic
// snapshot compaction rewrites the XML snapshot through the same atomic
// temp+rename machinery as SaveFile and truncates the log, bounding
// recovery time. Recovery loads the snapshot (with .bak fallback),
// truncates any torn log tail, and replays the surviving records in exact
// generation order; replay is idempotent, so a crash anywhere — including
// mid-compaction, or a retried commit that duplicated a record — converges
// to a prefix-consistent store.

// SnapshotSuffix names the compacted XML snapshot kept beside a WAL file:
// <wal path> + SnapshotSuffix.
const SnapshotSuffix = ".snapshot"

// DefaultCompactEvery is the records-since-compaction threshold at which
// Save triggers snapshot compaction.
const DefaultCompactEvery = 1024

// WALOptions tunes a WALStore.
type WALOptions struct {
	// CompactEvery is the number of committed records after which Save
	// compacts the log into a fresh snapshot; <= 0 means
	// DefaultCompactEvery. Compaction cost is O(store), so the threshold
	// trades recovery/replay time against amortized save cost.
	CompactEvery int
}

// walOp is one captured mutation: the store generation at which it
// committed, the triple, and whether it was an insert.
type walOp struct {
	gen uint64
	add bool
	t   rdf.Triple
}

// WALStore attaches write-ahead durability to a Manager. Open it with
// OpenWAL; afterwards every mutation on the Manager (directly or through
// the DMI layers) is captured via the generation-stamped observer seam and
// buffered; Commit (or Save) appends the buffer as one CRC-framed record
// and fsyncs — the acknowledgment point. All methods are safe for
// concurrent use.
//
// Bulk Replace/Clear/LoadFile calls on the underlying Manager bypass the
// observer seam by design (they emit no per-triple events); after one,
// call Compact to re-anchor the snapshot before relying on recovery.
type WALStore struct {
	m    *Manager
	path string // WAL file path
	snap string // compacted snapshot path (path + SnapshotSuffix)

	mu           sync.Mutex
	log          *wal.Log // guarded by mu
	obsID        int      // observer handle; guarded by mu
	pending      []walOp  // captured ops not yet committed; guarded by mu
	sinceCompact int64    // records appended since the last compaction; guarded by mu
	compactEvery int64
	closed       bool // guarded by mu
	// recoveredGen is the Manager's generation when recovery finished. While
	// the generation still reads it and nothing is pending, the Manager
	// holds exactly the durable state.
	recoveredGen uint64 // guarded by mu
}

// OpenWAL opens (creating if needed) the WAL backend rooted at path and
// recovers the Manager from it: the compacted snapshot at
// path+SnapshotSuffix is loaded first (with .bak fallback), any torn log
// tail is truncated away, and the surviving records replay in exact
// generation order, replacing the Manager's contents. When no durable
// state exists yet (no snapshot, no log records) the Manager's current
// contents are adopted unchanged as the initial state instead — attach
// then Compact converts an existing in-memory store to WAL-backed. On
// return every further mutation is captured for the next Commit.
func OpenWAL(m *Manager, path string, opts WALOptions) (*WALStore, error) {
	start := time.Now()
	mWALReplayTotal.Inc()
	compactEvery := int64(opts.CompactEvery)
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}

	// Base state: the compacted snapshot, or empty when none exists yet.
	base := rdf.NewGraph()
	haveSnap := false
	snap := path + SnapshotSuffix
	if _, err := os.Stat(snap); err == nil || !os.IsNotExist(err) {
		g, lerr := loadSnapshot(snap)
		if lerr != nil {
			return nil, fmt.Errorf("trim: wal open %s: %w", path, lerr)
		}
		base = g
		haveSnap = true
	}

	// Scan the log, collecting ops; frame integrity is the wal package's
	// job, op decoding ours.
	var ops []walOp
	l, rec, err := wal.Open(path, func(payload []byte) error {
		decoded, derr := decodeWALOps(payload)
		if derr != nil {
			return derr
		}
		ops = append(ops, decoded...)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trim: wal open %s: %w", path, err)
	}
	if rec.Torn() {
		mWALReplayTorn.Inc()
		obs.Log().Warn("trim: wal recovery truncated torn tail",
			"path", path, "records", rec.Records, "torn_bytes", rec.TornBytes)
	}

	if haveSnap || rec.Records > 0 || rec.Torn() {
		// Durable state exists: recover onto it, replacing the Manager's
		// contents. Replay runs in exact commit order — generations are
		// unique and strictly increasing per mutation, so a stable sort
		// restores the global order even across records written by racing
		// committers; applying an op sequence whose effects the snapshot
		// already contains is a no-op (last writer per triple wins), which
		// is what makes replay after a mid-compaction crash — or after a
		// retried commit that duplicated a record — idempotent.
		m.Replace(base)
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].gen < ops[j].gen })
		for _, op := range ops {
			if op.add {
				if _, err := m.Create(op.t); err != nil {
					l.Close()
					return nil, fmt.Errorf("trim: wal replay %s: %w", path, err)
				}
			} else {
				m.Remove(op.t)
			}
		}
		// The ops carry the generations of the sessions that logged them,
		// while a reopened Manager counts from its own. Continue above the
		// highest, so the ops this session logs replay after them.
		if len(ops) > 0 {
			m.advanceGeneration(ops[len(ops)-1].gen)
		}
	}
	// Otherwise no durable state exists yet (fresh path): the Manager's
	// current contents are adopted as the initial state, so attaching a WAL
	// to a populated in-memory store does not wipe it. The initial state
	// becomes durable at the first Compact (bulk contents) or incrementally
	// as new mutations commit.
	mWALReplayRecords.Add(int64(rec.Records))
	mWALReplayNS.ObserveSince(start)

	ws := &WALStore{
		m:            m,
		path:         path,
		snap:         snap,
		log:          l,
		compactEvery: compactEvery,
		sinceCompact: int64(rec.Records),
		recoveredGen: m.Generation(),
	}
	id := m.ObserveSeq(ws.capture)
	ws.mu.Lock()
	ws.obsID = id
	ws.mu.Unlock()
	return ws, nil
}

// capture is the SeqObserver: it buffers one committed mutation for the
// next Commit. It runs on the mutating goroutine with no Manager lock
// held.
func (ws *WALStore) capture(gen uint64, t rdf.Triple, added bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return
	}
	ws.pending = append(ws.pending, walOp{gen: gen, add: added, t: t})
}

// Manager returns the Manager this WALStore is attached to.
func (ws *WALStore) Manager() *Manager { return ws.m }

// Path returns the WAL file path; the compacted snapshot lives at
// Path()+SnapshotSuffix.
func (ws *WALStore) Path() string { return ws.path }

// Kind identifies the backend ("wal") for the Backend interface.
func (ws *WALStore) Kind() string { return BackendWAL }

// Pending returns the number of captured, not-yet-committed ops.
func (ws *WALStore) Pending() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.pending)
}

// RecordsSinceCompact returns how many records the log has accumulated
// since the last snapshot compaction — the replay debt a recovery would
// pay right now.
func (ws *WALStore) RecordsSinceCompact() int64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.sinceCompact
}

// Commit appends every captured-but-uncommitted mutation as one CRC-framed
// record and fsyncs the log: when Commit returns nil, those mutations are
// durable (the acknowledgment point). An empty buffer commits trivially.
// On error the buffer is retained, so a later Commit retries; a retry
// after a failed fsync may duplicate the record in the log, which replay
// tolerates (idempotence by generation order).
func (ws *WALStore) Commit() error {
	start := time.Now()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return fmt.Errorf("trim: wal commit %s: %w", ws.path, wal.ErrClosed)
	}
	if len(ws.pending) == 0 {
		return nil
	}
	// Sort by generation so the record itself is in commit order even
	// when concurrent mutators delivered out of order.
	sort.SliceStable(ws.pending, func(i, j int) bool { return ws.pending[i].gen < ws.pending[j].gen })
	payload := encodeWALOps(ws.pending)
	if err := ws.log.Append(payload); err != nil {
		mWALAppendErrors.Inc()
		return fmt.Errorf("trim: wal commit: %w", err)
	}
	syncStart := time.Now()
	if err := ws.log.Sync(); err != nil {
		mWALAppendErrors.Inc()
		return fmt.Errorf("trim: wal commit: %w", err)
	}
	mWALSyncTotal.Inc()
	mWALSyncNS.ObserveSince(syncStart)
	mWALAppendTotal.Inc()
	mWALAppendBytes.Add(int64(len(payload)))
	mWALCommitOps.Observe(int64(len(ws.pending)))
	mWALAppendNS.ObserveSince(start)
	ws.pending = ws.pending[:0]
	ws.sinceCompact++
	return nil
}

// Compact re-anchors durability in a fresh snapshot: pending ops are
// committed, the Manager's current contents are written to the snapshot
// path through the same atomic temp+fsync+backup+rename sequence as
// SaveFile, and — only once that snapshot is durable — the log is
// truncated. A crash before the rename leaves the old snapshot plus the
// full log; a crash between the rename and the truncate leaves the new
// snapshot plus a log whose replay is a no-op. Either way recovery is
// exact.
func (ws *WALStore) Compact() error {
	start := time.Now()
	mWALCompactTotal.Inc()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return fmt.Errorf("trim: wal compact %s: %w", ws.path, wal.ErrClosed)
	}
	if err := ws.compactLocked(); err != nil {
		mWALCompactErrors.Inc()
		return err
	}
	mWALCompactNS.ObserveSince(start)
	return nil
}

// compactLocked runs the compaction sequence; caller holds ws.mu.
func (ws *WALStore) compactLocked() error {
	if err := durable.FaultAt(durable.StageWALCompact, ws.snap); err != nil {
		return fmt.Errorf("trim: wal compact: %w", err)
	}
	// Flush the capture buffer first so every acknowledged-or-buffered op
	// is covered by log or snapshot throughout the sequence.
	if len(ws.pending) > 0 {
		sort.SliceStable(ws.pending, func(i, j int) bool { return ws.pending[i].gen < ws.pending[j].gen })
		if err := ws.log.Append(encodeWALOps(ws.pending)); err != nil {
			mWALAppendErrors.Inc()
			return fmt.Errorf("trim: wal compact: %w", err)
		}
		if err := ws.log.Sync(); err != nil {
			mWALAppendErrors.Inc()
			return fmt.Errorf("trim: wal compact: %w", err)
		}
		mWALAppendTotal.Inc()
		ws.pending = ws.pending[:0]
		ws.sinceCompact++
	}
	data, err := snapshotBytes(ws.m.Snapshot())
	if err != nil {
		return fmt.Errorf("trim: wal compact %s: %w", ws.snap, err)
	}
	if err := saveAtomic(ws.snap, data, true); err != nil {
		return fmt.Errorf("trim: wal compact: %w", err)
	}
	if err := ws.log.Reset(); err != nil {
		return fmt.Errorf("trim: wal compact: %w", err)
	}
	ws.sinceCompact = 0
	return nil
}

// Save implements the Backend interface: commit the captured ops, then
// compact if the log has crossed the compaction threshold. The common-case
// cost is O(batch) — one framed append plus one fsync — against the XML
// backend's O(store) rewrite.
func (ws *WALStore) Save() error {
	mSaveTotal.Inc()
	if err := ws.Commit(); err != nil {
		mSaveErrors.Inc()
		return err
	}
	ws.mu.Lock()
	due := ws.sinceCompact >= ws.compactEvery
	ws.mu.Unlock()
	if !due {
		return nil
	}
	if err := ws.Compact(); err != nil {
		mSaveErrors.Inc()
		return err
	}
	return nil
}

// Load implements the Backend interface: it re-runs full recovery
// (snapshot + replay) from disk, replacing the Manager contents. The
// WALStore keeps capturing afterwards. Uncommitted captured ops are
// discarded — Load means "return to the durable state". When the Manager
// has not changed since the last recovery and nothing is pending, it
// already holds the durable state and Load returns at once, so opening a
// WAL and then loading it replays the log only once.
func (ws *WALStore) Load() error {
	mLoadFileTotal.Inc()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return fmt.Errorf("trim: wal load %s: %w", ws.path, wal.ErrClosed)
	}
	if len(ws.pending) == 0 && ws.m.Generation() == ws.recoveredGen {
		return nil
	}
	// Detach capture and close the log around the reload so replayed ops
	// are not re-captured and the file is re-scanned from scratch.
	ws.m.Unobserve(ws.obsID)
	if err := ws.log.Close(); err != nil {
		return err
	}
	ws.pending = nil
	reopened, err := OpenWAL(ws.m, ws.path, WALOptions{CompactEvery: int(ws.compactEvery)})
	if err != nil {
		ws.closed = true // the log handle is gone; this store is unusable
		return err
	}
	// Adopt the reopened state; detach the temporary store's observer in
	// favor of our own registration.
	reopened.m.Unobserve(reopened.obsID)
	ws.log = reopened.log
	ws.sinceCompact = reopened.sinceCompact
	ws.recoveredGen = reopened.recoveredGen
	ws.obsID = ws.m.ObserveSeq(ws.capture)
	return nil
}

// Close commits any captured ops, detaches from the Manager, and closes
// the log file.
func (ws *WALStore) Close() error {
	if err := ws.Commit(); err != nil {
		return err
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return nil
	}
	ws.closed = true
	ws.m.Unobserve(ws.obsID)
	return ws.log.Close()
}

// HealthCheck returns a liveness check for the diagnostics server
// (registered as obs.HealthTrimWAL): it scans the log's frame integrity
// read-only and fails on a torn tail or an unreadable snapshot.
//
// slimvet:noobs health probe constructor, not a store operation.
func (ws *WALStore) HealthCheck() obs.HealthCheck {
	return func(context.Context) error {
		rep, err := WALCheck(ws.path)
		if err != nil {
			return err
		}
		if rep.TornBytes > 0 {
			return fmt.Errorf("trim: wal %s has a torn tail (%d bytes beyond last intact record)", ws.path, rep.TornBytes)
		}
		if !rep.SnapshotOK && rep.SnapshotErr != "" {
			return fmt.Errorf("trim: wal snapshot %s unusable: %s", rep.SnapshotPath, rep.SnapshotErr)
		}
		return nil
	}
}

// WALReport is the machine-readable result of WALCheck: the tail integrity
// of the log and the state of its compacted snapshot.
type WALReport struct {
	Path         string `json:"path"`
	SizeBytes    int64  `json:"size_bytes"`
	Records      int    `json:"records"`
	TornBytes    int64  `json:"torn_bytes"`
	SnapshotPath string `json:"snapshot_path"`
	// SnapshotOK is true when the snapshot file exists and passes trailer
	// verification (or does not exist yet, which is a valid empty base).
	SnapshotOK  bool   `json:"snapshot_ok"`
	SnapshotErr string `json:"snapshot_err,omitempty"`
}

// String renders the report in the human-readable one-stanza form used by
// `trimq walcheck`.
func (r WALReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal %s: %d record(s), %d byte(s)", r.Path, r.Records, r.SizeBytes)
	if r.TornBytes > 0 {
		fmt.Fprintf(&b, ", TORN TAIL (%d byte(s))", r.TornBytes)
	} else {
		b.WriteString(", tail intact")
	}
	if r.SnapshotOK {
		fmt.Fprintf(&b, "\nsnapshot %s: ok", r.SnapshotPath)
	} else {
		fmt.Fprintf(&b, "\nsnapshot %s: UNUSABLE (%s)", r.SnapshotPath, r.SnapshotErr)
	}
	return b.String()
}

// WALCheck inspects the WAL rooted at path read-only: frame/tail integrity
// of the log and trailer verification of the compacted snapshot. It never
// mutates either file, so it is safe against a live store.
func WALCheck(path string) (WALReport, error) {
	rep := WALReport{Path: path, SnapshotPath: path + SnapshotSuffix}
	rec, err := wal.Check(path)
	if err != nil {
		return rep, fmt.Errorf("trim: wal check: %w", err)
	}
	rep.Records = rec.Records
	rep.SizeBytes = rec.GoodBytes + rec.TornBytes
	rep.TornBytes = rec.TornBytes
	rep.SnapshotOK = true
	if _, serr := os.Stat(rep.SnapshotPath); serr == nil {
		if _, lerr := loadSnapshot(rep.SnapshotPath); lerr != nil {
			rep.SnapshotOK = false
			rep.SnapshotErr = lerr.Error()
		}
	} else if !os.IsNotExist(serr) {
		rep.SnapshotOK = false
		rep.SnapshotErr = serr.Error()
	}
	return rep, nil
}

// encodeWALOps renders captured ops as one record payload: one op per
// line, `C <gen> <n-triple>` for inserts and `R <gen> <n-triple>` for
// removals. The N-Triples statement form is the store's canonical
// single-triple serialization, so the log stays greppable and versionless.
func encodeWALOps(ops []walOp) []byte {
	var b strings.Builder
	for _, op := range ops {
		if op.add {
			b.WriteByte('C')
		} else {
			b.WriteByte('R')
		}
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(op.gen, 10))
		b.WriteByte(' ')
		b.WriteString(rdf.EncodeTriple(op.t))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// decodeWALOps parses one record payload back into ops. The payload has
// already passed CRC verification, so a malformed line is a logic or
// version error, not bit rot — it aborts recovery rather than being
// silently skipped. Each line is copied before it is parsed: the parsed
// terms are substrings of their line, and a replayed triple must pin only
// its own line, not the whole record.
func decodeWALOps(payload []byte) ([]walOp, error) {
	ops := make([]walOp, 0, bytes.Count(payload, []byte{'\n'})+1)
	for len(payload) > 0 {
		var raw []byte
		raw, payload, _ = bytes.Cut(payload, []byte{'\n'})
		if len(raw) == 0 {
			continue
		}
		line := string(raw)
		kind, rest, ok := strings.Cut(line, " ")
		if !ok || (kind != "C" && kind != "R") {
			return nil, fmt.Errorf("%w: malformed wal op line %q", ErrCorrupt, line)
		}
		genText, stmt, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, fmt.Errorf("%w: malformed wal op line %q", ErrCorrupt, line)
		}
		gen, err := strconv.ParseUint(genText, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad wal op generation %q: %w", ErrCorrupt, genText, err)
		}
		t, err := rdf.ParseTriple(stmt)
		if err != nil {
			return nil, fmt.Errorf("%w: bad wal op triple %q: %w", ErrCorrupt, stmt, err)
		}
		ops = append(ops, walOp{gen: gen, add: kind == "C", t: t})
	}
	return ops, nil
}
