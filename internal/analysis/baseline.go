package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// A Baseline records accepted debt: findings that predate an analyzer and
// are being burned down rather than fixed in one PR. The lint lane gates on
// findings *beyond* the baseline, and on baseline entries that no longer
// match anything (stale entries), so the file can only shrink truthfully.
//
// Entries are keyed by (analyzer, file, message) with an occurrence count —
// no line numbers, so unrelated edits to a baselined file don't invalidate
// it, while fixing one of N identical findings does force a refresh.
type Baseline struct {
	Version int             `json:"version"`
	Entries []BaselineEntry `json:"entries"`
}

// BaselineEntry is one accepted finding kind in one file.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

func (e BaselineEntry) key() string {
	return e.Analyzer + "\x00" + e.File + "\x00" + e.Message
}

// String renders the entry for human-readable stale reports.
func (e BaselineEntry) String() string {
	return fmt.Sprintf("%s: %s (%s) ×%d", e.File, e.Message, e.Analyzer, e.Count)
}

// NewBaseline aggregates diagnostics into a baseline.
func NewBaseline(diags []Diagnostic) *Baseline {
	counts := map[string]*BaselineEntry{}
	for _, d := range diags {
		k := d.Key()
		if e, ok := counts[k]; ok {
			e.Count++
			continue
		}
		counts[k] = &BaselineEntry{Analyzer: d.Analyzer, File: d.File, Message: d.Message, Count: 1}
	}
	b := &Baseline{Version: 1, Entries: make([]BaselineEntry, 0, len(counts))}
	for _, e := range counts {
		b.Entries = append(b.Entries, *e)
	}
	sort.Slice(b.Entries, func(i, j int) bool { return b.Entries[i].key() < b.Entries[j].key() })
	return b
}

// LoadBaseline reads a baseline file. A missing file is an empty baseline,
// so a repo without debt needs no file at all.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Baseline{Version: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: read baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("analysis: parse baseline %s: %w", path, err)
	}
	return &b, nil
}

// Save writes the baseline as stable, diff-friendly JSON.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("analysis: encode baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("analysis: write baseline: %w", err)
	}
	return nil
}

// Apply splits findings against the baseline: fresh findings exceed their
// entry's count (or have no entry), stale entries cover more findings than
// still exist. When a key's findings exceed its allowance the later
// occurrences (by position) are reported, so long-standing debt at the top
// of a file stays baselined.
func (b *Baseline) Apply(diags []Diagnostic) (fresh []Diagnostic, stale []BaselineEntry) {
	allowed := map[string]int{}
	for _, e := range b.Entries {
		allowed[e.key()] += e.Count
	}
	seen := map[string]int{}
	for _, d := range diags {
		k := d.Key()
		seen[k]++
		if seen[k] > allowed[k] {
			fresh = append(fresh, d)
		}
	}
	for _, e := range b.Entries {
		if n := seen[e.key()]; n < e.Count {
			left := e
			left.Count = e.Count - n
			stale = append(stale, left)
		}
	}
	return fresh, stale
}
