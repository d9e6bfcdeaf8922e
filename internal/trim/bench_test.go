package trim

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/rdf"
)

func benchTriple(i int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://t/s%d", i)),
		rdf.IRI(fmt.Sprintf("http://t/p%d", i%16)),
		rdf.Integer(int64(i%256)),
	)
}

func BenchmarkCreate(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Create(benchTriple(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCreateDuplicate(b *testing.B) {
	m := NewManager()
	t := benchTriple(0)
	m.Create(t)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Create(t)
	}
}

func BenchmarkSelectBySubject(b *testing.B) {
	m := NewManager()
	for i := 0; i < 10000; i++ {
		m.Create(benchTriple(i))
	}
	pat := rdf.P(rdf.IRI("http://t/s5000"), rdf.Zero, rdf.Zero)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Select(pat)) != 1 {
			b.Fatal("wrong result")
		}
	}
}

// BenchmarkSelectBare is BenchmarkSelectBySubject's select with its
// instrumentation taken out: the same plan, match and materialisation
// (a subject select reads its list in order and sorts nothing), without
// the tracked lock, clock reads, histograms, counters or shape sketch.
// The gap between the two is what instrumentation costs a select.
func BenchmarkSelectBare(b *testing.B) {
	m := NewManager()
	for i := 0; i < 10000; i++ {
		m.Create(benchTriple(i))
	}
	pat := rdf.P(rdf.IRI("http://t/s5000"), rdf.Zero, rdf.Zero)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, list, choice := m.st.plan(pat)
		if len(m.st.collect(q, list, choice, nil, nil)) != 1 {
			b.Fatal("wrong result")
		}
	}
}

// BenchmarkSelectBySubjectParallel is BenchmarkSelectBySubject run from
// -cpu goroutines at once: its ns/op at -cpu 2 over -cpu 1 is how an
// instrumented select scales across cores.
func BenchmarkSelectBySubjectParallel(b *testing.B) {
	m := NewManager()
	for i := 0; i < 10000; i++ {
		m.Create(benchTriple(i))
	}
	pat := rdf.P(rdf.IRI("http://t/s5000"), rdf.Zero, rdf.Zero)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if len(m.Select(pat)) != 1 {
				b.Error("wrong result")
				return
			}
		}
	})
}

// BenchmarkSelectBareParallel is BenchmarkSelectBare run from -cpu
// goroutines at once, under a plain sync.RWMutex read lock as a store
// needs: the scaling BenchmarkSelectBySubjectParallel would show if its
// instrumentation wrote nothing shared.
func BenchmarkSelectBareParallel(b *testing.B) {
	m := NewManager()
	for i := 0; i < 10000; i++ {
		m.Create(benchTriple(i))
	}
	pat := rdf.P(rdf.IRI("http://t/s5000"), rdf.Zero, rdf.Zero)
	var mu sync.RWMutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.RLock()
			q, list, choice := m.st.plan(pat)
			n := len(m.st.collect(q, list, choice, nil, nil))
			mu.RUnlock()
			if n != 1 {
				b.Error("wrong result")
				return
			}
		}
	})
}

// hubGraph returns n triples on one subject and one predicate, with the
// even objects v000000, v000002, ..., and a triple of theirs with an odd
// object, which sorts mid-list and is not in the graph.
func hubGraph(n int) (*rdf.Graph, rdf.Triple) {
	hub, p := rdf.IRI("http://t/hub"), rdf.IRI("http://t/p")
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(rdf.T(hub, p, rdf.String(fmt.Sprintf("v%06d", 2*i))))
	}
	return g, rdf.T(hub, p, rdf.String(fmt.Sprintf("v%06d", n|1)))
}

// BenchmarkCreateRemoveHub creates, then removes, one triple that sorts
// mid-list on a subject holding n triples: the cost of keeping a large
// subject list in order, a search and a shift of half the list each way.
func BenchmarkCreateRemoveHub(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			g, extra := hubGraph(n)
			m := NewManager()
			m.Replace(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if added, err := m.Create(extra); !added || err != nil {
					b.Fatal(added, err)
				}
				if !m.Remove(extra) {
					b.Fatal("not removed")
				}
			}
		})
	}
}

// BenchmarkReplaceHub bulk-loads a store whose n triples share one
// subject. The graph hands them over in map order, so each lands at a
// searched slot of the one subject list.
func BenchmarkReplaceHub(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			g, _ := hubGraph(n)
			m := NewManager()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Replace(g)
			}
		})
	}
}

func BenchmarkHas(b *testing.B) {
	m := NewManager()
	for i := 0; i < 10000; i++ {
		m.Create(benchTriple(i))
	}
	t := benchTriple(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Has(t) {
			b.Fatal("missing")
		}
	}
}

func BenchmarkBatchApply(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch := m.NewBatch()
		for j := 0; j < 5; j++ {
			batch.Create(benchTriple(i*5 + j))
		}
		if err := batch.Apply(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkView(b *testing.B) {
	m, _ := buildTree(2, 10) // ~2k nodes
	root := rdf.IRI("http://t/root")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.View(root).Len() == 0 {
			b.Fatal("empty view")
		}
	}
}

func BenchmarkPath(b *testing.B) {
	m, _ := buildTree(2, 10)
	root := rdf.IRI("http://t/root")
	contains := rdf.IRI("http://t/contains")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Path([]rdf.Term{root}, contains, contains, contains)) != 8 {
			b.Fatal("wrong path result")
		}
	}
}
