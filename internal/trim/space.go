package trim

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// The deep space accountant: where the store's bytes actually go, walked
// exactly under the read lock. Stats.ApproxBytes has always summed term
// text as a portable proxy for the paper's §6 space trade-off; this file
// breaks that figure down far enough to act on. The string figures —
// total vs unique bytes per triple position, the duplication ratio, and
// per-predicate byte attribution joined with the cardinality table —
// describe the data, whatever layout holds it. The layout figures report
// what the interned layout (store.go) holds: the dictionary with one copy
// of each distinct term's strings, the rows, the posting lists per index,
// and the cardinality table.
//
// Slices are counted at their capacity. Go does not expose per-map
// footprints, so map figures are estimates from the map-geometry model
// below; the string-byte figures are exact.

// Word and header sizes of the 64-bit memory model the estimates assume.
const (
	wordBytes         = 8
	stringHeaderBytes = 2 * wordBytes                   // pointer + length
	termBytes         = wordBytes + 2*stringHeaderBytes // kind word + value/dtype headers = 40
	sliceHeaderBytes  = 3 * wordBytes                   // pointer + len + cap
	idBytes           = 4                               // an int32 term id or row index
	tripleBytes       = 3 * idBytes                     // a triple as three ids = 12
	rowBytes          = tripleBytes + 2*idBytes         // ids + predicate and object offsets = 20
)

// mapBytes estimates the resident footprint of a Go map holding n entries
// of the given key+value size: the hmap header plus power-of-two buckets
// sized for the 6.5 load factor, each bucket holding 8 slots (tophash
// byte per slot, then keys, then values) and an overflow pointer.
// Overflow buckets are ignored, so this is a slight underestimate for
// maps with clustered hashes.
func mapBytes(n, kvBytes int) int64 {
	if n == 0 {
		return 0
	}
	const hmapHeaderBytes = 48 // runtime.hmap: count, flags/B/noverflow/hash0, buckets, oldbuckets, nevacuate, extra
	buckets := 1
	for float64(n) > 6.5*float64(buckets) {
		buckets *= 2
	}
	perBucket := int64(8 + 8*kvBytes + wordBytes) // 8 tophash bytes + 8 kv slots + overflow pointer
	return hmapHeaderBytes + int64(buckets)*perBucket
}

// PositionSpace is the string-byte accounting of one triple position:
// how many term references the position holds, how many distinct terms
// they collapse to, and the byte sums of both views. TotalBytes minus
// UniqueBytes is exactly what interning this position would save in
// string data.
type PositionSpace struct {
	Refs        int   `json:"refs"`
	Unique      int   `json:"unique"`
	TotalBytes  int64 `json:"total_bytes"`
	UniqueBytes int64 `json:"unique_bytes"`
}

// IndexSpace is one index: the posting lists of one triple position,
// with a slice header per dictionary slot, counted at their capacity, a
// free slot's kept storage included. Buckets counts the terms with a
// non-empty list there, Entries the triples listed.
type IndexSpace struct {
	Name          string `json:"name"`
	Buckets       int    `json:"buckets"`
	Entries       int    `json:"entries"`
	OverheadBytes int64  `json:"overhead_bytes"`
}

// PredicateSpace attributes string bytes to one predicate: the bytes of
// every triple carrying it (all three positions, total view), joined with
// the cardinality table's exact triple count. Share is the fraction of
// the store's total string bytes.
type PredicateSpace struct {
	Predicate  string  `json:"predicate"`
	Triples    int     `json:"triples"`
	TotalBytes int64   `json:"total_bytes"`
	Share      float64 `json:"share"`
}

// SpaceStats is the deep space report for the store, produced by
// Manager.Space / Stats().Space and served by `trimq space` and
// /debug/space.
type SpaceStats struct {
	Triples    int    `json:"triples"`
	Generation uint64 `json:"generation"`

	// Per-position string accounting and the store-wide roll-up.
	// UniqueStringBytes dedupes terms across all three positions — the
	// figure a single shared dictionary would store — so it can be
	// smaller than the sum of the per-position unique bytes.
	Subject           PositionSpace `json:"subject"`
	Predicate         PositionSpace `json:"predicate"`
	Object            PositionSpace `json:"object"`
	TotalStringBytes  int64         `json:"total_string_bytes"`
	UniqueStringBytes int64         `json:"unique_string_bytes"`
	UniqueTerms       int           `json:"unique_terms"`
	// DuplicationRatio is total over unique string bytes: how many times
	// the average string byte is stored. 1.0 means no duplication.
	DuplicationRatio float64 `json:"duplication_ratio"`

	// The layout, component by component; the four sum to
	// EstimatedBytes. DictionaryBytes is the id -> term table, the
	// term -> id map, the free-id list, and one copy of each distinct
	// term's strings (UniqueStringBytes). TripleBytes is the rows (three
	// ids and two posting offsets each). IndexOverheadBytes sums the
	// three Indexes' posting lists. CardOverheadBytes is the
	// per-predicate cardinality table (a record per predicate id, each
	// with its refcounted object map).
	DictionaryBytes    int64        `json:"dictionary_bytes"`
	TripleBytes        int64        `json:"triple_bytes"`
	Indexes            []IndexSpace `json:"indexes"`
	IndexOverheadBytes int64        `json:"index_overhead_bytes"`
	CardOverheadBytes  int64        `json:"card_overhead_bytes"`

	// EstimatedBytes is the resident-store estimate.
	EstimatedBytes int64   `json:"estimated_bytes"`
	BytesPerTriple float64 `json:"bytes_per_triple"`

	// Predicates attributes string bytes per predicate, heaviest first.
	Predicates []PredicateSpace `json:"predicates"`
}

// Space computes the deep space report in one pass under the read lock
// and republishes the trim.space.* gauges.
func (m *Manager) Space() SpaceStats {
	m.mu.RLock()
	s := m.spaceLocked()
	m.mu.RUnlock()
	mSpaceTotal.Inc()
	gSpaceStringBytes.Set(s.TotalStringBytes)
	gSpaceUniqueBytes.Set(s.UniqueStringBytes)
	gSpaceBytesPerTriple.Set(int64(s.BytesPerTriple))
	gSpaceDupPct.Set(int64(s.DuplicationRatio * 100))
	return s
}

// termStringBytes is the string data one term references (lexical form
// plus datatype IRI).
func termStringBytes(t rdf.Term) int64 {
	return int64(len(t.Value()) + len(t.Datatype()))
}

// spaceLocked walks the dictionary, the posting lists, and the
// cardinality table under the held lock and assembles the report.
func (m *Manager) spaceLocked() SpaceStats {
	st := &m.st
	s := SpaceStats{
		Triples:     len(st.rows),
		Generation:  m.generation,
		UniqueTerms: len(st.ids),
	}
	positions := [3]*PositionSpace{&s.Subject, &s.Predicate, &s.Object}
	s.Indexes = []IndexSpace{{Name: "spo"}, {Name: "pos"}, {Name: "osp"}}
	for pos := range s.Indexes {
		s.Indexes[pos].OverheadBytes = int64(cap(st.dict)) * sliceHeaderBytes
	}
	for _, e := range st.dict {
		b := termStringBytes(e.term)
		live := false
		for pos, list := range e.post {
			s.Indexes[pos].OverheadBytes += int64(cap(list)) * idBytes
			if len(list) == 0 {
				continue
			}
			live = true
			p := positions[pos]
			p.Refs += len(list)
			p.TotalBytes += int64(len(list)) * b
			p.Unique++
			p.UniqueBytes += b
			ix := &s.Indexes[pos]
			ix.Buckets++
			ix.Entries += len(list)
		}
		if live {
			s.UniqueStringBytes += b
		}
	}
	s.TotalStringBytes = s.Subject.TotalBytes + s.Predicate.TotalBytes + s.Object.TotalBytes
	if s.UniqueStringBytes > 0 {
		s.DuplicationRatio = float64(s.TotalStringBytes) / float64(s.UniqueStringBytes)
	}

	s.DictionaryBytes = int64(cap(st.dict))*termBytes + int64(cap(st.free))*idBytes +
		mapBytes(len(st.ids), termBytes+idBytes) + s.UniqueStringBytes
	s.TripleBytes = int64(cap(st.rows)) * rowBytes
	for _, ix := range s.Indexes {
		s.IndexOverheadBytes += ix.OverheadBytes
	}
	s.CardOverheadBytes = mapBytes(len(st.predCards), idBytes+wordBytes)
	for _, pc := range st.predCards {
		// predCard struct: two ints, the object map pointer, and the
		// shape-table pointer (the table itself is the query profiler's,
		// not the store's).
		s.CardOverheadBytes += 4 * wordBytes
		s.CardOverheadBytes += mapBytes(len(pc.objects), 2*idBytes)
	}
	s.EstimatedBytes = s.DictionaryBytes + s.TripleBytes + s.IndexOverheadBytes + s.CardOverheadBytes
	if s.Triples > 0 {
		s.BytesPerTriple = float64(s.EstimatedBytes) / float64(s.Triples)
	}

	s.Predicates = make([]PredicateSpace, 0, len(st.predCards))
	for pred, pc := range st.predCards {
		if pc.triples == 0 {
			continue
		}
		term := st.term(pred)
		list := st.dict[pred].post[posP]
		bytes := int64(len(list)) * termStringBytes(term)
		for _, r := range list {
			k := st.rows[r].ids
			bytes += termStringBytes(st.term(k[posS])) + termStringBytes(st.term(k[posO]))
		}
		ps := PredicateSpace{Predicate: term.Value(), Triples: pc.triples, TotalBytes: bytes}
		if s.TotalStringBytes > 0 {
			ps.Share = float64(bytes) / float64(s.TotalStringBytes)
		}
		s.Predicates = append(s.Predicates, ps)
	}
	sort.Slice(s.Predicates, func(i, j int) bool {
		if s.Predicates[i].TotalBytes != s.Predicates[j].TotalBytes {
			return s.Predicates[i].TotalBytes > s.Predicates[j].TotalBytes
		}
		return s.Predicates[i].Predicate < s.Predicates[j].Predicate
	})
	return s
}

// String renders the headline numbers in one line; the JSON form carries
// the full breakdown.
func (s SpaceStats) String() string {
	return fmt.Sprintf("triples=%d est_bytes=%d bytes/triple=%.1f string_bytes=%d unique_bytes=%d dup=%.2fx dictionary=%d id_triples=%d postings=%d cards=%d",
		s.Triples, s.EstimatedBytes, s.BytesPerTriple,
		s.TotalStringBytes, s.UniqueStringBytes, s.DuplicationRatio,
		s.DictionaryBytes, s.TripleBytes, s.IndexOverheadBytes, s.CardOverheadBytes)
}
