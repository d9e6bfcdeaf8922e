package trim

import "repro/internal/obs"

// Metric handles are resolved once at init so hot paths pay only the
// atomic increments. Names come from the obs name registry
// (internal/obs/names.go) and are documented in docs/OBSERVABILITY.md.
var (
	mCreateTotal  = obs.C(obs.NameTrimCreateTotal)
	mCreateNew    = obs.C(obs.NameTrimCreateNew)
	mCreateErrors = obs.C(obs.NameTrimCreateErrors)
	mCreateNS     = obs.H(obs.NameTrimCreateNS)

	mRemoveTotal = obs.C(obs.NameTrimRemoveTotal)
	mRemoveHit   = obs.C(obs.NameTrimRemoveHit)

	mSelectTotal = obs.C(obs.NameTrimSelectTotal)
	mSelectNS    = obs.H(obs.NameTrimSelectNS)
	mCountTotal  = obs.C(obs.NameTrimCountTotal)
	mStatsTotal  = obs.C(obs.NameTrimStatsTotal)

	// Deep space accountant (space.go): report counter and the last
	// report's headline gauges, so /metrics carries the bytes-per-triple
	// trajectory between scrapes of /debug/space.
	mSpaceTotal          = obs.C(obs.NameTrimSpaceTotal)
	gSpaceBytesPerTriple = obs.G(obs.NameTrimSpaceBytesPerTriple)
	gSpaceStringBytes    = obs.G(obs.NameTrimSpaceStringBytes)
	gSpaceUniqueBytes    = obs.G(obs.NameTrimSpaceUniqueBytes)
	gSpaceDupPct         = obs.G(obs.NameTrimSpaceDupPct)

	// Index-choice counters quantify the query planner: which position's
	// posting lists served a pattern, or whether a full scan was needed.
	mIdxSubject   = obs.C(obs.NameTrimIndexSubject)
	mIdxPredicate = obs.C(obs.NameTrimIndexPredicate)
	mIdxObject    = obs.C(obs.NameTrimIndexObject)
	mIdxScan      = obs.C(obs.NameTrimIndexScan)

	mViewTotal = obs.C(obs.NameTrimViewTotal)
	mViewNS    = obs.H(obs.NameTrimViewNS)

	mBatchTotal = obs.C(obs.NameTrimBatchTotal)
	mBatchNS    = obs.H(obs.NameTrimBatchApplyNS)
	mBatchOps   = obs.HSize(obs.NameTrimBatchOps)

	// mLoadTriples counts triples entering the store through bulk Replace
	// (file loads); Create-path inserts are counted by trim.create.*.
	mLoadTriples = obs.C(obs.NameTrimLoadTriples)
	mLoadNS      = obs.H(obs.NameTrimLoadNS)

	// mNotifyFanout counts observer callbacks delivered (one per observer
	// per mutation): the SeqObserver notification fan-out.
	mNotifyFanout = obs.C(obs.NameTrimObserverFanout)

	// Persistence outcomes (docs/ROBUSTNESS.md): saves attempted/failed,
	// loads attempted, corrupt primaries detected, and loads recovered
	// from the .bak snapshot.
	mSaveTotal     = obs.C(obs.NameTrimPersistSaveTotal)
	mSaveErrors    = obs.C(obs.NameTrimPersistSaveErrors)
	mLoadFileTotal = obs.C(obs.NameTrimPersistLoadTotal)
	mLoadCorrupt   = obs.C(obs.NameTrimPersistLoadCorrupt)
	mLoadRecovered = obs.C(obs.NameTrimPersistLoadRecovered)

	// JSONL export/import (the portability backend, jsonl.go).
	mExportTotal = obs.C(obs.NameTrimPersistExportTotal)
	mImportTotal = obs.C(obs.NameTrimPersistImportTotal)

	// WAL backend (wal.go): commit appends, fsyncs, recovery replays, and
	// snapshot compactions.
	mWALAppendTotal   = obs.C(obs.NameTrimWALAppendTotal)
	mWALAppendErrors  = obs.C(obs.NameTrimWALAppendErrors)
	mWALAppendBytes   = obs.C(obs.NameTrimWALAppendBytes)
	mWALAppendNS      = obs.H(obs.NameTrimWALAppendNS)
	mWALSyncTotal     = obs.C(obs.NameTrimWALSyncTotal)
	mWALSyncNS        = obs.H(obs.NameTrimWALSyncNS)
	mWALCommitOps     = obs.HSize(obs.NameTrimWALCommitOps)
	mWALReplayTotal   = obs.C(obs.NameTrimWALReplayTotal)
	mWALReplayRecords = obs.C(obs.NameTrimWALReplayRecords)
	mWALReplayTorn    = obs.C(obs.NameTrimWALReplayTorn)
	mWALReplayNS      = obs.H(obs.NameTrimWALReplayNS)
	mWALCompactTotal  = obs.C(obs.NameTrimWALCompactTotal)
	mWALCompactErrors = obs.C(obs.NameTrimWALCompactErrors)
	mWALCompactNS     = obs.H(obs.NameTrimWALCompactNS)
)

// indexChoice identifies which index (if any) served a pattern.
type indexChoice int

const (
	indexNone indexChoice = iota
	indexSubject
	indexPredicate
	indexObject
)

func (c indexChoice) count() {
	switch c {
	case indexSubject:
		mIdxSubject.Inc()
	case indexPredicate:
		mIdxPredicate.Inc()
	case indexObject:
		mIdxObject.Inc()
	default:
		mIdxScan.Inc()
	}
}
