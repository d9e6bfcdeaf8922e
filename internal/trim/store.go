package trim

import (
	"slices"

	"repro/internal/rdf"
)

// The store's one layout, the "alternative implementation mechanism" §6
// promises for large data sets. Every distinct term is interned once in a
// dictionary under a dense int32 id, each triple is stored once as three
// ids, and each term keeps one posting list per triple position: the rows
// of the triples that carry it there. A subject's list is kept in
// (predicate, object) term order, so a select bound by subject reads its
// result in order and sorts nothing, and a binary search of that list is
// how a triple is found: add, remove and Has search it once, and add and
// remove shift the entries after the slot. A bulk load appends and sorts
// each list once (bulk). The predicate and object lists are unordered. A
// row records its offset in those two, so a remove swap-deletes both
// entries without scanning a list, and no remove leaves a tombstone
// behind. A term whose last triple is removed leaves the dictionary and
// its id is reused, so churn through distinct values (SetUnique on a
// counter) keeps the dictionary bounded.

// Triple positions: the index of a term in an idTriple and of a posting
// list in an entry.
const (
	posS = iota
	posP
	posO
)

// anyID marks a wildcard position of an idPattern; noID a position bound
// to a term the dictionary does not hold, which matches no row.
const (
	anyID int32 = -1
	noID  int32 = -2
)

// idTriple is a triple as the dictionary ids of its subject, predicate
// and object.
type idTriple [3]int32

// idPattern is a pattern over ids: anyID or noID, or a term id per
// position.
type idPattern [3]int32

// matches reports whether a stored triple satisfies the pattern.
func (q idPattern) matches(k idTriple) bool {
	return (q[posS] == anyID || q[posS] == k[posS]) &&
		(q[posP] == anyID || q[posP] == k[posP]) &&
		(q[posO] == anyID || q[posO] == k[posO])
}

// entry is one dictionary slot: the term and, per position, the rows of
// the triples carrying it there. A slot whose three lists are empty is
// free and holds the zero term; it keeps its lists' storage for the next
// term to take its id.
type entry struct {
	term rdf.Term
	post [3][]int32
}

// row is one stored triple and its offsets in its predicate's and its
// object's posting lists, at[pos-posP] for pos posP and posO. Its place in
// its subject's ordered list is found by search (subjectSlot).
type row struct {
	ids idTriple
	at  [2]int32
}

// store holds the triples in the interned layout, with the per-predicate
// cardinalities (cardinality.go) kept beside them. It is not safe for
// concurrent use; the Manager guards its store with the store lock.
type store struct {
	dict      []entry             // id -> entry
	ids       map[rdf.Term]int32  // live term -> id
	free      []int32             // freed ids, reused before dict grows
	rows      []row               // the triples; a remove moves the last row into the hole
	predCards map[int32]*predCard // keyed by predicate id, for as long as the id is live
}

// newStore returns an empty store sized for n triples.
func newStore(n int) store {
	return store{
		ids:       make(map[rdf.Term]int32),
		rows:      make([]row, 0, n),
		predCards: make(map[int32]*predCard),
	}
}

// term returns the term an id stands for.
func (s *store) term(id int32) rdf.Term { return s.dict[id].term }

// triple materializes the triple stored in row r.
func (s *store) triple(r int32) rdf.Triple {
	k := s.rows[r].ids
	return rdf.T(s.term(k[posS]), s.term(k[posP]), s.term(k[posO]))
}

// lookup returns a term's id, or noID when no stored triple carries it.
func (s *store) lookup(t rdf.Term) int32 {
	if id, ok := s.ids[t]; ok {
		return id
	}
	return noID
}

// find returns the row holding a triple and its slot in its subject's
// list. A term the dictionary lacks means the triple is not stored, which
// is decided before any list is read.
func (s *store) find(t rdf.Triple) (r int32, i int, ok bool) {
	k := idTriple{s.lookup(t.Subject), s.lookup(t.Predicate), s.lookup(t.Object)}
	if k[posS] == noID || k[posP] == noID || k[posO] == noID {
		return 0, 0, false
	}
	if i, ok = s.subjectSlot(k); !ok {
		return 0, 0, false
	}
	return s.dict[k[posS]].post[posS][i], i, true
}

// intern returns a term's id, giving a new term a free or fresh slot.
func (s *store) intern(t rdf.Term) int32 {
	if id, ok := s.ids[t]; ok {
		return id
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = int32(len(s.dict))
		s.dict = append(s.dict, entry{})
	}
	s.dict[id].term = t
	s.ids[t] = id
	return id
}

// comparePO orders two triples of one subject by predicate, then object,
// in term order. Equal ids are equal terms, so they compare without a
// string read.
func (s *store) comparePO(a, b idTriple) int {
	for pos := posP; pos <= posO; pos++ {
		if a[pos] != b[pos] {
			return s.term(a[pos]).Compare(s.term(b[pos]))
		}
	}
	return 0
}

// subjectSlot returns the index at which the triple k sits, or would be
// inserted, in its subject's ordered posting list, and whether it is
// there.
func (s *store) subjectSlot(k idTriple) (int, bool) {
	return slices.BinarySearchFunc(s.dict[k[posS]].post[posS], k, func(r int32, k idTriple) int {
		return s.comparePO(s.rows[r].ids, k)
	})
}

// add stores a valid triple, reporting whether it was new. The search
// that finds a stored triple finds a new one's slot.
func (s *store) add(t rdf.Triple) bool {
	k := idTriple{s.intern(t.Subject), s.intern(t.Predicate), s.intern(t.Object)}
	i, ok := s.subjectSlot(k)
	if ok {
		return false
	}
	s.place(k, i)
	return true
}

// place stores a new triple as the last row: at index i of its subject's
// list, at the end of its predicate's and its object's lists, and in the
// cardinalities.
func (s *store) place(k idTriple, i int) {
	r := int32(len(s.rows))
	subj := &s.dict[k[posS]].post[posS]
	first := s.predAt(*subj, i-1) != k[posP] && s.predAt(*subj, i) != k[posP]
	*subj = slices.Insert(*subj, i, r)
	rw := row{ids: k}
	for pos := posP; pos <= posO; pos++ {
		list := &s.dict[k[pos]].post[pos]
		rw.at[pos-posP] = int32(len(*list))
		*list = append(*list, r)
	}
	s.rows = append(s.rows, rw)
	s.cardAdd(k, first)
}

// predAt returns the predicate id of the triple at index j of a subject's
// list, or anyID when j is outside it. A triple is its subject's first or
// last with its predicate exactly when neither neighbour carries that
// predicate, since the list is in predicate order.
func (s *store) predAt(list []int32, j int) int32 {
	if j < 0 || j >= len(list) {
		return anyID
	}
	return s.rows[list[j]].ids[posP]
}

// bulk builds a fresh store from triples handed over in any order, the
// one way every load fills a store. A triple becomes a row at the end of
// its subject's list, and done sorts each subject's list once, drops
// repeats, and then fills the predicate and object lists and the
// cardinalities. A load into one subject then costs one sort, not a
// search and a shift per triple.
type bulk struct{ st store }

// newBulk returns an empty builder sized for n triples. Its dictionary
// and term map grow as terms arrive, as under Create: sized to a pad's
// ~15k terms, the map takes half as much memory again, and the
// dictionary reallocates at the first term a WAL replay adds.
func newBulk(n int) *bulk { return &bulk{st: newStore(n)} }

// id interns a term.
func (b *bulk) id(t rdf.Term) int32 { return b.st.intern(t) }

// add stores a triple of interned terms; done drops it if it repeats one.
func (b *bulk) add(k idTriple) {
	s := &b.st
	subj := &s.dict[k[posS]].post[posS]
	*subj = append(*subj, int32(len(s.rows)))
	s.rows = append(s.rows, row{ids: k})
}

// done puts every subject's list in (predicate, object) order, keeps one
// row of each run of equal triples, counts the subject's predicate runs,
// and then lists each row under its predicate and its object and counts
// it, and returns the store.
func (b *bulk) done() store {
	s := &b.st
	byPO := func(x, y int32) int { return s.comparePO(s.rows[x].ids, s.rows[y].ids) }
	repeats := 0
	for id := range s.dict {
		list := s.dict[id].post[posS]
		slices.SortFunc(list, byPO)
		n := 0
		for _, r := range list {
			k := &s.rows[r].ids
			if n > 0 && *k == s.rows[list[n-1]].ids {
				k[posS] = noID // a repeat, dropped below
				repeats++
				continue
			}
			if s.predAt(list[:n], n-1) != k[posP] {
				s.card(k[posP]).subjects++
			}
			list[n] = r
			n++
		}
		s.dict[id].post[posS] = list[:n]
	}
	if repeats > 0 {
		s.dropRepeats()
	}
	for r := range s.rows {
		rw := &s.rows[r]
		for pos := posP; pos <= posO; pos++ {
			list := &s.dict[rw.ids[pos]].post[pos]
			rw.at[pos-posP] = int32(len(*list))
			*list = append(*list, int32(r))
		}
		pc := s.predCards[rw.ids[posP]]
		pc.triples++
		pc.objects[rw.ids[posO]]++
	}
	return b.st
}

// dropRepeats deletes the rows done marked as repeats, keeping the order
// of the others, and renumbers the subject lists' entries.
func (s *store) dropRepeats() {
	renumber := make([]int32, len(s.rows))
	n := 0
	for r, rw := range s.rows {
		if rw.ids[posS] != noID {
			renumber[r] = int32(n)
			s.rows[n] = rw
			n++
		}
	}
	s.rows = s.rows[:n]
	for id := range s.dict {
		for j, r := range s.dict[id].post[posS] {
			s.dict[id].post[posS][j] = renumber[r]
		}
	}
}

// buildStore bulk-loads a decoded triple set. Its terms are distinct, so
// each one's id is its index.
func buildStore(d rdf.Interned) store {
	b := newBulk(len(d.Triples))
	for _, t := range d.Terms {
		b.id(t)
	}
	for _, k := range d.Triples {
		b.add(k)
	}
	return b.done()
}

// subjectRun is one subject's stretch of the triples a save copies.
type subjectRun struct {
	subject  int32
	from, to int
}

// saveCopy copies what a save encodes: every slot's term, indexed by id,
// and each subject's triples in list order, one run per subject. Caller
// holds the read lock; the copy is the caller's to encode without it.
func (s *store) saveCopy() (terms []rdf.Term, ids []idTriple, runs []subjectRun) {
	terms = make([]rdf.Term, len(s.dict))
	ids = make([]idTriple, 0, len(s.rows))
	for id := range s.dict {
		e := &s.dict[id]
		terms[id] = e.term
		if len(e.post[posS]) == 0 {
			continue
		}
		from := len(ids)
		for _, r := range e.post[posS] {
			ids = append(ids, s.rows[r].ids)
		}
		runs = append(runs, subjectRun{subject: int32(id), from: from, to: len(ids)})
	}
	return terms, ids, runs
}

// predRun returns the bounds [i, j) of the entries with predicate p in
// subject sid's ordered list. With no such entry, i is where one would go.
// sid may be noID, and p need not be in the dictionary: the run is empty.
func (s *store) predRun(sid int32, p rdf.Term) (i, j int) {
	if sid == noID {
		return 0, 0
	}
	list := s.dict[sid].post[posS]
	pid := s.lookup(p)
	i, _ = slices.BinarySearchFunc(list, p, func(r int32, p rdf.Term) int {
		if q := s.rows[r].ids[posP]; q != pid {
			return s.term(q).Compare(p)
		}
		return 0
	})
	j = i
	for j < len(list) && s.rows[list[j]].ids[posP] == pid {
		j++
	}
	return i, j
}

// remove deletes a triple, reporting whether it was stored, and frees
// the ids of its terms that no triple carries any more.
func (s *store) remove(t rdf.Triple) bool {
	r, i, ok := s.find(t)
	if !ok {
		return false
	}
	for _, id := range s.removeRow(r, i) {
		s.release(id)
	}
	return true
}

// removeRow deletes row r, which sits at index i of its subject's list,
// and returns its ids. That list closes the gap it leaves, its
// predicate's and object's lists each move their last entry into its
// slot, and the last row moves into its row slot. The caller releases
// the ids.
func (s *store) removeRow(r int32, i int) idTriple {
	gone := s.rows[r]
	subj := &s.dict[gone.ids[posS]].post[posS]
	p := gone.ids[posP]
	last := s.predAt(*subj, i-1) != p && s.predAt(*subj, i+1) != p
	*subj = slices.Delete(*subj, i, i+1)
	for pos := posP; pos <= posO; pos++ {
		id, at := gone.ids[pos], gone.at[pos-posP]
		list := s.dict[id].post[pos]
		last := list[len(list)-1]
		list[at] = last
		s.rows[last].at[pos-posP] = at
		s.dict[id].post[pos] = list[:len(list)-1]
	}
	if end := int32(len(s.rows) - 1); r != end {
		moved := s.rows[end]
		s.rows[r] = moved
		j, _ := s.subjectSlot(moved.ids)
		s.dict[moved.ids[posS]].post[posS][j] = r
		for pos := posP; pos <= posO; pos++ {
			s.dict[moved.ids[pos]].post[pos][moved.at[pos-posP]] = r
		}
	}
	s.rows = s.rows[:len(s.rows)-1]
	s.cardRemove(gone.ids, last)
	return gone.ids
}

// release frees a live id that no triple carries any more, with its
// predicate's cardinality record. The slot keeps its lists' storage: a
// freed slot is reused before the dictionary grows, so what it keeps is
// bounded by what the live store once held.
func (s *store) release(id int32) {
	e := &s.dict[id]
	if e.term.IsZero() || len(e.post[posS])+len(e.post[posP])+len(e.post[posO]) > 0 {
		return
	}
	delete(s.ids, e.term)
	delete(s.predCards, id)
	e.term = rdf.Term{}
	for pos := range e.post {
		e.post[pos] = e.post[pos][:0]
	}
	s.free = append(s.free, id)
}

// plan resolves a pattern to ids and picks the smallest posting list
// among its bound positions, subject, then object, then predicate winning
// ties. The choice is indexNone, with a nil list, when nothing is bound.
func (s *store) plan(p rdf.Pattern) (idPattern, []int32, indexChoice) {
	q := idPattern{anyID, anyID, anyID}
	var best []int32
	choice := indexNone
	consider := func(pos int, t rdf.Term, which indexChoice) {
		if t.IsZero() {
			return
		}
		var list []int32 // an absent term's list is empty, still a valid choice
		if q[pos] = s.lookup(t); q[pos] != noID {
			list = s.dict[q[pos]].post[pos]
		}
		if choice == indexNone || len(list) < len(best) {
			best, choice = list, which
		}
	}
	consider(posS, p.Subject, indexSubject)
	consider(posO, p.Object, indexObject)
	consider(posP, p.Predicate, indexPredicate)
	return q, best, choice
}

// count returns how many rows a plan selected match q.
func (s *store) count(q idPattern, list []int32, choice indexChoice) int {
	if choice == indexNone {
		return len(s.rows) // a scan matches every row
	}
	n := 0
	for _, r := range list {
		if q.matches(s.rows[r].ids) {
			n++
		}
	}
	return n
}

// collect returns the rows a plan selected that match q and that keep
// accepts (every match when keep is nil), in triple order, in buf's
// storage when it has room (buf is empty; nil for none). A subject list
// is already in that order; any other result is sorted. Without a filter
// it counts the matches first, so the result is allocated at most once,
// at its size.
func (s *store) collect(q idPattern, list []int32, choice indexChoice, keep func(rdf.Triple) bool, buf []rdf.Triple) []rdf.Triple {
	out := buf
	if keep == nil {
		n := s.count(q, list, choice)
		if n == 0 {
			return out
		}
		if cap(out) < n {
			out = make([]rdf.Triple, 0, n)
		}
	}
	emit := func(r int32) {
		if t := s.triple(r); keep == nil || keep(t) {
			out = append(out, t)
		}
	}
	if choice == indexNone {
		for r := range s.rows {
			emit(int32(r))
		}
	} else {
		for _, r := range list {
			if q.matches(s.rows[r].ids) {
				emit(r)
			}
		}
	}
	if choice != indexSubject {
		sortTriples(out)
	}
	return out
}
