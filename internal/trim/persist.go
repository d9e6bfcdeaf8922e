package trim

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// Persistence here is failure-aware (docs/ROBUSTNESS.md): saves are atomic
// and durable (temp file + fsync + rename + directory fsync, via the
// shared internal/durable helper), snapshots carry a length+checksum
// trailer so torn or truncated files are detected on load, and every save
// keeps the previous good snapshot as a ".bak" sibling that LoadFile falls
// back to when the primary is corrupt. This file is the XML snapshot
// backend — the paper-fidelity interchange format; see backend.go for the
// pluggable backend surface and wal.go for the append-only WAL backend.

// ErrCorrupt marks a store file whose bytes fail integrity verification
// (truncation, checksum mismatch, or unparseable content). Callers can
// errors.Is against it to distinguish corruption from I/O errors.
var ErrCorrupt = errors.New("trim: corrupt store file")

// BackupSuffix is appended to the store path to name the previous good
// snapshot kept by SaveFile.
const BackupSuffix = durable.BackupSuffix

// PersistStage names one step of the persistence I/O sequence; the fault
// hook receives it so tests can fail (or corrupt) a precise point in the
// write path — e.g. "the process died between temp-write and rename". It
// is the shared durable.Stage: the same hook reaches the XML snapshot
// write, the mark store save, and every WAL step.
type PersistStage = durable.Stage

const (
	// StageTempWrite: about to write the snapshot bytes to the temp file.
	StageTempWrite = durable.StageTempWrite
	// StageTempSync: about to fsync the temp file.
	StageTempSync = durable.StageTempSync
	// StageBackup: about to copy the current file to its .bak sibling.
	StageBackup = durable.StageBackup
	// StageRename: about to rename the temp file over the target.
	StageRename = durable.StageRename
	// StageDirSync: about to fsync the parent directory.
	StageDirSync = durable.StageDirSync

	// WAL backend stages (internal/wal, wal.go). The snapshot written by
	// compaction additionally runs the five stages above against the
	// snapshot path.
	StageWALAppend   = durable.StageWALAppend
	StageWALSync     = durable.StageWALSync
	StageWALCompact  = durable.StageWALCompact
	StageWALTruncate = durable.StageWALTruncate
)

// PersistFault is an injectable fault hook for persistence I/O. It runs
// before each stage with the target path; returning a non-nil error aborts
// the save as if the I/O at that stage had failed. The hook may also
// mutate the filesystem (truncate the target, delete the backup) to
// simulate torn writes and crashes deterministically.
type PersistFault = durable.Fault

// SetPersistFault installs the persistence fault hook (nil removes it) and
// returns the previous hook. The hook is shared across every durability
// path — XML snapshot saves, WAL appends/fsyncs/compactions, and the mark
// store — so one installation reaches all write-path steps. Tests use it
// to exercise crash recovery; it is process-wide, so parallel tests should
// not share it.
//
// slimvet:noobs test-only fault-injection hook, not a store operation.
func SetPersistFault(h PersistFault) (prev PersistFault) {
	return durable.SetFault(h)
}

// faultAt runs the installed fault hook, if any, for one stage.
func faultAt(stage PersistStage, path string) error {
	return durable.FaultAt(stage, path)
}

// The trailer is an XML comment appended after the document: harmless to
// any XML parser (the decoder stops at the end of the root element), but
// enough to detect truncation (declared length vs actual) and bit rot
// (CRC-32 of the body). Legacy files without a trailer still load.
const trailerPrefix = "<!-- slim-trailer "

func appendTrailer(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	return append(body, fmt.Sprintf("%slen=%d crc32=%08x -->\n", trailerPrefix, len(body), sum)...)
}

// verifyTrailer checks the integrity trailer and returns the body bytes
// that precede it. Files without a trailer are returned unchanged (legacy
// format); a present-but-inconsistent trailer is ErrCorrupt.
func verifyTrailer(data []byte) ([]byte, error) {
	i := bytes.LastIndex(data, []byte(trailerPrefix))
	if i < 0 {
		return data, nil
	}
	var declared int
	var sum uint32
	if _, err := fmt.Sscanf(string(data[i+len(trailerPrefix):]), "len=%d crc32=%x", &declared, &sum); err != nil {
		return nil, fmt.Errorf("%w: unreadable trailer", ErrCorrupt)
	}
	if declared != i {
		return nil, fmt.Errorf("%w: trailer declares %d body bytes, file has %d", ErrCorrupt, declared, i)
	}
	body := data[:i]
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	return body, nil
}

// saveAtomic writes data to path crash-safely through the shared
// atomic-write helper (docs/ROBUSTNESS.md): same-directory temp file,
// fsync, optional .bak backup, rename, directory fsync.
func saveAtomic(path string, data []byte, backup bool) error {
	if err := durable.WriteFileAtomic(path, data, backup); err != nil {
		return fmt.Errorf("trim: save %s: %w", path, err)
	}
	return nil
}

// snapshotXML renders the store as the trailer-carrying XML snapshot. It
// copies the terms and each subject's triples under the read lock and
// encodes without it: the subjects in term order, each one's triples in
// its list's (predicate, object) order, which is the order WriteXML gives
// the same triples, so the bytes are the same.
func (m *Manager) snapshotXML() []byte {
	m.mu.RLock()
	terms, ids, runs := m.st.saveCopy()
	m.mu.RUnlock()
	slices.SortFunc(runs, func(a, b subjectRun) int { return terms[a.subject].Compare(terms[b.subject]) })
	// ~250 bytes a triple is the pads' average; a larger file grows once.
	buf := rdf.AppendXML(make([]byte, 0, 256*len(ids)+512), func(yield func(rdf.Triple)) {
		for _, run := range runs {
			for _, k := range ids[run.from:run.to] {
				yield(rdf.T(terms[k[posS]], terms[k[posP]], terms[k[posO]]))
			}
		}
	})
	return appendTrailer(buf)
}

// SaveFile persists the store to an XML file (the paper's persistence
// format, §4.4: "persist (through XML files)"). The write is crash-safe:
// the snapshot (with an integrity trailer) is written to a temporary file,
// fsynced, and renamed into place with the parent directory fsynced, and
// the previous good snapshot is kept as path+".bak" for LoadFile recovery.
func (m *Manager) SaveFile(path string) error {
	mSaveTotal.Inc()
	if err := saveAtomic(path, m.snapshotXML(), true); err != nil {
		mSaveErrors.Inc()
		return err
	}
	return nil
}

// readStoreFile reads a store file whole; a test swaps it to see the
// buffer a load reads into.
var readStoreFile = os.ReadFile

// decodeFile verifies and decodes one store file.
func decodeFile(path string) (rdf.Interned, error) {
	data, err := readStoreFile(path)
	if err != nil {
		return rdf.Interned{}, fmt.Errorf("trim: load: %w", err)
	}
	body, err := verifyTrailer(data)
	if err != nil {
		return rdf.Interned{}, fmt.Errorf("trim: load %s: %w", path, err)
	}
	d, err := rdf.DecodeXML(body)
	if err != nil {
		return rdf.Interned{}, fmt.Errorf("trim: load %s: %w: %w", path, ErrCorrupt, err)
	}
	return d, nil
}

// loadSnapshot decodes a snapshot file with .bak fallback, touching no
// manager. It is the shared read side of LoadFile and the WAL backend's
// compacted-snapshot recovery.
func loadSnapshot(path string) (rdf.Interned, error) {
	d, err := decodeFile(path)
	if err == nil {
		return d, nil
	}
	if errors.Is(err, ErrCorrupt) {
		mLoadCorrupt.Inc()
	}
	bak := path + BackupSuffix
	if _, serr := os.Stat(bak); serr != nil {
		return rdf.Interned{}, err
	}
	bd, berr := decodeFile(bak)
	if berr != nil {
		return rdf.Interned{}, fmt.Errorf("%w (backup %s also unusable: %w)", err, bak, berr)
	}
	mLoadRecovered.Inc()
	obs.Log().Warn("trim: recovered store from backup snapshot",
		"path", path, "backup", bak, "err", err)
	return bd, nil
}

// LoadFile replaces the store contents with the triples in the XML file.
// Corruption (truncation, checksum mismatch, unparseable XML) is detected
// via the integrity trailer; when the primary file is corrupt or missing,
// LoadFile falls back to the ".bak" snapshot kept by SaveFile, counting
// the recovery in obs (trim.persist.load.recovered). The store is left
// untouched unless a good snapshot is found.
func (m *Manager) LoadFile(path string) error {
	mLoadFileTotal.Inc()
	d, err := loadSnapshot(path)
	if err != nil {
		return err
	}
	m.load(d)
	return nil
}

// SaveNTriples persists the store in N-Triples form, useful for diffing and
// for interchange with tools outside the SLIM stack. The write goes through
// the same atomic temp-file+rename path as SaveFile, so a crash mid-save
// never leaves a truncated file (N-Triples files carry no trailer: the
// format is line-oriented and consumed by external tools).
func (m *Manager) SaveNTriples(path string) (err error) {
	mSaveTotal.Inc()
	defer func() {
		if err != nil {
			mSaveErrors.Inc()
		}
	}()
	snapshot := m.Snapshot()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, snapshot); err != nil {
		return fmt.Errorf("trim: save %s: %w", path, err)
	}
	return saveAtomic(path, buf.Bytes(), false)
}

// LoadNTriples replaces the store contents with the triples in an
// N-Triples file.
func (m *Manager) LoadNTriples(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trim: load: %w", err)
	}
	defer f.Close()
	g, err := rdf.ReadNTriples(f)
	if err != nil {
		return fmt.Errorf("trim: load %s: %w", path, err)
	}
	m.Replace(g)
	return nil
}
