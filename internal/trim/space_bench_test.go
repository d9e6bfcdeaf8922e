package trim

import (
	"runtime"
	"testing"

	"repro/internal/rdf"
)

// benchSpaceStore builds the shared 10k-triple store the space benchmarks
// read from (same shape as the other trim benchmarks: 10k subjects over
// 16 predicates and 256 literal values, so strings duplicate heavily).
func benchSpaceStore(b *testing.B) *Manager {
	b.Helper()
	m := NewManager()
	for i := 0; i < 10000; i++ {
		if _, err := m.Create(benchTriple(i)); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkSpace measures the deep space accountant itself and reports
// the paper's §6 trajectory number — bytes per captive triple — as a
// custom metric, so every bench-json snapshot carries the space figure
// and bench-diff tracks it release over release.
func BenchmarkSpace(b *testing.B) {
	m := benchSpaceStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	var s SpaceStats
	for i := 0; i < b.N; i++ {
		s = m.Space()
	}
	b.ReportMetric(s.BytesPerTriple, "bytes/triple")
	b.ReportMetric(s.DuplicationRatio, "dup-ratio")
}

// BenchmarkSelectAllocs pins the allocation cost of the bound-subject hot
// path as a first-class metric (allocs/select), measured from the
// runtime's MemStats deltas.
func BenchmarkSelectAllocs(b *testing.B) {
	m := benchSpaceStore(b)
	pat := rdf.P(rdf.IRI("http://t/s5000"), rdf.Zero, rdf.Zero)
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if len(m.Select(pat)) != 1 {
			b.Fatal("wrong result")
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/select")
}
