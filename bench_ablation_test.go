// Ablation benches for the design choices DESIGN.md calls out: the indexed
// Manager versus a raw scan, atomic batches versus single creates, and the
// §6 "alternative implementation mechanism" compact store versus the
// reference Manager.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/trim"
)

func syntheticTriple(i int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://t/s%d", i)),
		rdf.IRI(fmt.Sprintf("http://t/p%d", i%20)),
		rdf.Integer(int64(i%100)),
	)
}

// BenchmarkAblation_IndexedVsScan: the subject/predicate/object hash
// indexes versus scanning the whole graph — why TRIM maintains three
// indexes per store.
func BenchmarkAblation_IndexedVsScan(b *testing.B) {
	const size = 50000
	m := trim.NewManager()
	for i := 0; i < size; i++ {
		m.Create(syntheticTriple(i))
	}
	snapshot := m.Snapshot()
	pat := rdf.P(rdf.IRI("http://t/s777"), rdf.Zero, rdf.Zero)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(m.Select(pat))
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(snapshot.Select(pat))
		}
	})
}

// BenchmarkAblation_BatchVsSingle: creating one Bundle's five triples
// through an atomic batch (one lock acquisition, all-or-nothing) versus
// five independent creates.
func BenchmarkAblation_BatchVsSingle(b *testing.B) {
	mk := func(i int) []rdf.Triple {
		id := rdf.IRI(fmt.Sprintf("http://t/bundle%d", i))
		return []rdf.Triple{
			rdf.T(id, rdf.RDFType, rdf.IRI("http://t/Bundle")),
			rdf.T(id, rdf.IRI("http://t/name"), rdf.String("b")),
			rdf.T(id, rdf.IRI("http://t/pos"), rdf.String("1,2")),
			rdf.T(id, rdf.IRI("http://t/w"), rdf.Integer(100)),
			rdf.T(id, rdf.IRI("http://t/h"), rdf.Integer(100)),
		}
	}
	b.Run("batch", func(b *testing.B) {
		m := trim.NewManager()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := m.NewBatch()
			for _, t := range mk(i) {
				if err := batch.Create(t); err != nil {
					b.Fatal(err)
				}
			}
			if err := batch.Apply(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-creates", func(b *testing.B) {
		m := trim.NewManager()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range mk(i) {
				if _, err := m.Create(t); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
