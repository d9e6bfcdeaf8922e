package trim

import (
	"fmt"

	"repro/internal/obs"
)

// Stats summarizes the contents of the store, used by cmd/trimq and the
// space-overhead experiments (T1/T3 in DESIGN.md).
type Stats struct {
	Triples            int `json:"triples"`
	DistinctSubjects   int `json:"distinct_subjects"`
	DistinctPredicates int `json:"distinct_predicates"`
	DistinctObjects    int `json:"distinct_objects"`
	LiteralObjects     int `json:"literal_objects"`
	ResourceObjects    int `json:"resource_objects"`
	// ApproxBytes estimates the in-memory footprint of the term text: the
	// sum of the lengths of all term values and datatypes. Index overhead
	// is excluded; the figure is used as a portable proxy for the paper's
	// "space efficiency" trade-off discussion (§6).
	ApproxBytes int `json:"approx_bytes"`
	// IndexSPO/IndexPOS/IndexOSP are the total entry counts of the
	// subject, predicate, and object posting lists (each entry is one
	// triple in one term's list). In a consistent store each equals
	// Triples.
	IndexSPO int `json:"index_spo"`
	IndexPOS int `json:"index_pos"`
	IndexOSP int `json:"index_osp"`
	// Generation is the store's mutation counter at the time of the call.
	Generation uint64 `json:"generation"`
	// Predicates is the per-predicate cardinality table (triples, distinct
	// subjects/objects, selectivity), sorted by predicate. Maintained
	// incrementally, so reporting it here costs one pass over the
	// predicates, not over the triples.
	Predicates []PredicateStats `json:"predicates"`
	// Locks is the contention profile of the store mutex (wait/hold
	// quantiles, acquisition and contended counts per mode), taken from
	// the process-wide tracked-lock table. Empty when no tracked lock has
	// registered under the store's name yet.
	Locks []obs.LockStats `json:"locks,omitempty"`
	// Space is the deep space accountant's report (space.go): string-byte
	// duplication, the bytes each part of the layout holds, and
	// per-predicate byte attribution, computed under the same lock.
	Space SpaceStats `json:"space"`
}

// Stats computes current statistics in one pass over the dictionary under
// a read lock.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()

	mStatsTotal.Inc()
	s := Stats{
		Triples:    len(m.st.rows),
		Generation: m.generation,
		Predicates: m.predicateStatsLocked(),
		Space:      m.spaceLocked(),
	}
	for _, e := range m.st.dict {
		subj, pred, obj := len(e.post[posS]), len(e.post[posP]), len(e.post[posO])
		if subj > 0 {
			s.DistinctSubjects++
		}
		if pred > 0 {
			s.DistinctPredicates++
		}
		if obj > 0 {
			s.DistinctObjects++
			if e.term.IsLiteral() {
				s.LiteralObjects += obj
			} else {
				s.ResourceObjects += obj
			}
		}
		s.IndexSPO += subj
		s.IndexPOS += pred
		s.IndexOSP += obj
		s.ApproxBytes += (subj+pred+obj)*len(e.term.Value()) + obj*len(e.term.Datatype())
	}
	if ls, ok := obs.LockProfile(obs.LockTrimStore); ok {
		s.Locks = []obs.LockStats{ls}
	}
	return s
}

// String renders the stats in a one-line human-readable form. New fields
// are appended so existing consumers of the prefix keep parsing.
func (s Stats) String() string {
	return fmt.Sprintf("triples=%d subjects=%d predicates=%d objects=%d (literals=%d resources=%d) approx_bytes=%d spo=%d pos=%d osp=%d generation=%d",
		s.Triples, s.DistinctSubjects, s.DistinctPredicates, s.DistinctObjects,
		s.LiteralObjects, s.ResourceObjects, s.ApproxBytes,
		s.IndexSPO, s.IndexPOS, s.IndexOSP, s.Generation)
}
