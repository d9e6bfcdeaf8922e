package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSpaceCommand drives `trimq space` over the fixture store: the human
// form leads with the headline line, the JSON form carries the acceptance
// fields (total vs unique string bytes, per-index bytes, duplication
// ratio, and the layout components that sum to the estimate).
func TestSpaceCommand(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "space"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bytes/triple=", "dup=", "dictionary=", "index spo:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("space output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-store", path, "-json", "space"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Triples           int     `json:"triples"`
		TotalStringBytes  int64   `json:"total_string_bytes"`
		UniqueStringBytes int64   `json:"unique_string_bytes"`
		DuplicationRatio  float64 `json:"duplication_ratio"`
		BytesPerTriple    float64 `json:"bytes_per_triple"`
		Indexes           []struct {
			Name          string `json:"name"`
			OverheadBytes int64  `json:"overhead_bytes"`
		} `json:"indexes"`
		DictionaryBytes    int64 `json:"dictionary_bytes"`
		TripleBytes        int64 `json:"triple_bytes"`
		IndexOverheadBytes int64 `json:"index_overhead_bytes"`
		CardOverheadBytes  int64 `json:"card_overhead_bytes"`
		EstimatedBytes     int64 `json:"estimated_bytes"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("space -json not JSON: %v\n%s", err, out.String())
	}
	if rep.Triples == 0 || rep.TotalStringBytes <= rep.UniqueStringBytes || rep.DuplicationRatio <= 1 {
		t.Fatalf("space report = %+v", rep)
	}
	if len(rep.Indexes) != 3 || rep.Indexes[0].OverheadBytes == 0 {
		t.Fatalf("index overhead missing: %+v", rep.Indexes)
	}
	if got := rep.DictionaryBytes + rep.TripleBytes + rep.IndexOverheadBytes + rep.CardOverheadBytes; rep.DictionaryBytes == 0 || got != rep.EstimatedBytes {
		t.Fatalf("layout components sum to %d, estimated_bytes = %d: %+v", got, rep.EstimatedBytes, rep)
	}
}

// TestSpaceMinDupGate: the -min-dup floor exits non-zero only when the
// store's duplication ratio is below it.
func TestSpaceMinDupGate(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-min-dup", "1.01", "space"}, &out); err != nil {
		t.Fatalf("fixture store should clear a 1.01 floor: %v", err)
	}
	out.Reset()
	err := run([]string{"-store", path, "-min-dup", "1000", "space"}, &out)
	if err == nil || !strings.Contains(err.Error(), "below the -min-dup floor") {
		t.Fatalf("impossible floor: err = %v", err)
	}
}
