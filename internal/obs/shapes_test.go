package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// The top-k ranking behind /debug/top, `trimq top` and `markctl top`: a
// ShapeTable of exact per-shape counts, ranked when read.

// record counts n occurrences of key in t.
func record(t *ShapeTable, key string, n int) {
	s := t.Shape(key)
	for i := 0; i < n; i++ {
		s.Record()
	}
}

// TestTopKExactWithinCapacity: every count is exact and Top orders
// count-descending with key-ascending tie-breaks; a key looked up but
// never counted is held but not ranked.
func TestTopKExactWithinCapacity(t *testing.T) {
	s := NewShapeTable()
	record(s, "select spo", 5)
	record(s, "view s??", 3)
	record(s, "path **", 1)
	record(s, "select ?p?", 1)
	s.Shape("never counted")

	if got, want := s.Len(), 5; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := s.Recorded(), int64(10); got != want {
		t.Fatalf("Recorded = %d, want %d", got, want)
	}
	want := []TopEntry{
		{Key: "select spo", Count: 5},
		{Key: "view s??", Count: 3},
		{Key: "path **", Count: 1},
		{Key: "select ?p?", Count: 1},
	}
	got := s.Top(0)
	if len(got) != len(want) {
		t.Fatalf("Top(0) = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top(0)[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if top2 := s.Top(2); len(top2) != 2 || top2[0] != want[0] || top2[1] != want[1] {
		t.Fatalf("Top(2) = %+v", top2)
	}
	if s.Shape("select spo") != s.Shape("select spo") {
		t.Fatal("one key looked up twice gave two counts")
	}
}

// TestTopKHeavyHitterSurvivesChurn: far more distinct keys than the
// space-saving sketch's 128 slots each keep their exact count, and the
// heavy hitter ranks first.
func TestTopKHeavyHitterSurvivesChurn(t *testing.T) {
	s := NewShapeTable()
	record(s, "hot", 50)
	for i := 0; i < 500; i++ {
		record(s, fmt.Sprintf("cold-%03d", i), 1+i%3)
	}
	top := s.Top(0)
	if len(top) != 501 || top[0] != (TopEntry{Key: "hot", Count: 50}) {
		t.Fatalf("Top holds %d entries, first %+v; want 501, hot=50", len(top), top[0])
	}
	for _, e := range top[1:] {
		var i int
		if _, err := fmt.Sscanf(e.Key, "cold-%d", &i); err != nil || e.Count != int64(1+i%3) || e.ErrBound != 0 {
			t.Fatalf("entry %+v, want cold-%03d counted %d exactly", e, i, 1+i%3)
		}
	}
}

// TestTopKReset: Reset zeroes every count but keeps the keys, so a caller
// holding a ShapeCount counts on into the same table.
func TestTopKReset(t *testing.T) {
	s := NewShapeTable()
	a := s.Shape("a")
	a.Record()
	a.Record()
	s.Reset()
	if s.Recorded() != 0 || len(s.Top(0)) != 0 || s.Len() != 1 {
		t.Fatalf("after Reset: recorded %d, top %+v, len %d", s.Recorded(), s.Top(0), s.Len())
	}
	a.Record()
	if top := s.Top(0); len(top) != 1 || top[0].Count != 1 {
		t.Fatalf("after Reset and one Record: %+v", top)
	}
}

// TestTopKMarshalJSON: the /debug/top document carries the key count,
// totals, evicted 0 and a never-null entries array.
func TestTopKMarshalJSON(t *testing.T) {
	s := NewShapeTable()
	var doc struct {
		Capacity int        `json:"capacity"`
		Recorded int64      `json:"recorded"`
		Evicted  *int64     `json:"evicted"`
		Entries  []TopEntry `json:"entries"`
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Capacity != 0 || doc.Entries == nil || len(doc.Entries) != 0 || doc.Evicted == nil || *doc.Evicted != 0 {
		t.Fatalf("empty table JSON = %s", data)
	}

	record(s, "a", 2)
	record(s, "b", 1)
	if data, err = json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Capacity != 2 || doc.Recorded != 3 || len(doc.Entries) != 2 || doc.Entries[0].Key != "a" {
		t.Fatalf("table JSON = %s", data)
	}
}

// TestTopKConcurrent: concurrent recorders, some adding keys, neither
// race nor lose a count.
func TestTopKConcurrent(t *testing.T) {
	s := NewShapeTable()
	var wg sync.WaitGroup
	const goroutines, each = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Shape(fmt.Sprintf("key-%d", (g+i)%6)).Record()
			}
		}(g)
	}
	wg.Wait()
	if got, want := s.Recorded(), int64(goroutines*each); got != want {
		t.Fatalf("Recorded = %d, want %d", got, want)
	}
	want := map[string]int64{}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			want[fmt.Sprintf("key-%d", (g+i)%6)]++
		}
	}
	for _, e := range s.Top(0) {
		if e.Count != want[e.Key] {
			t.Fatalf("entry %+v, want count %d", e, want[e.Key])
		}
	}
}

// TestTopKNilSafe: a nil table and a nil count answer every method
// harmlessly.
func TestTopKNilSafe(t *testing.T) {
	var s *ShapeTable
	s.Shape("a").Record()
	s.Reset()
	if s.Top(1) != nil || s.Len() != 0 || s.Recorded() != 0 || s.Shape("a").Key() != "" {
		t.Fatal("nil table misbehaved")
	}
}

// TestRecordQueryShape: a shape counted through QueryShape lands in
// DefaultTopQueries, and each occurrence bumps obs.top.recorded by one.
func TestRecordQueryShape(t *testing.T) {
	const key = "test.shape select s?? index=subject"
	before := C(NameObsTopRecorded).Value()
	QueryShape(key).Record()
	QueryShape(key).Record()
	if got := C(NameObsTopRecorded).Value(); got != before+2 {
		t.Fatalf("%s = %d, want %d", NameObsTopRecorded, got, before+2)
	}
	for _, e := range DefaultTopQueries.Top(0) {
		if e.Key == key {
			return
		}
	}
	t.Fatal("recorded shape not present in DefaultTopQueries")
}
