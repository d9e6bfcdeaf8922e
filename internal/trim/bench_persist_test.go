package trim

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
)

// padStore returns a manager holding about n triples shaped like a
// SLIMPad pad's: instance subjects of 14 triples each, a vocabulary of 24
// predicates, and objects that are labels, integers and links to other
// subjects. Saved, it takes ~245 bytes a triple, as slimbench's pads do.
func padStore(n int) *Manager {
	const perSubject = 14
	m := NewManager()
	b := m.NewBatch()
	for s := 0; s < n/perSubject; s++ {
		subj := rdf.IRI(fmt.Sprintf("http://slim.example.org/instance#Scrap-%06d", s))
		for j := 0; j < perSubject; j++ {
			pred := rdf.IRI(fmt.Sprintf("http://slim.example.org/slimpad#scrapField%02d", (s+j)%24))
			var obj rdf.Term
			switch j % 3 {
			case 0:
				obj = rdf.String(fmt.Sprintf("Furosemide %d mg IV, day %d", 10+s%90, j))
			case 1:
				obj = rdf.Integer(int64(s*perSubject + j))
			default:
				obj = rdf.IRI(fmt.Sprintf("http://slim.example.org/instance#Scrap-%06d", (s*7+j)%(n/perSubject)))
			}
			b.Create(rdf.T(subj, pred, obj))
		}
	}
	if err := b.Apply(); err != nil {
		panic(err)
	}
	return m
}

// BenchmarkSaveFile saves a 42,000-triple pad-shaped store: encoding, the
// trailer, and the atomic write with its fsyncs and backup.
func BenchmarkSaveFile(b *testing.B) {
	m := padStore(42000)
	path := filepath.Join(b.TempDir(), "pad.xml")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SaveFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadFile loads the same store's file into a manager: the read,
// the trailer check, the parse and the build.
func BenchmarkLoadFile(b *testing.B) {
	src := padStore(42000)
	path := filepath.Join(b.TempDir(), "pad.xml")
	if err := src.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	m := NewManager()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
	if m.Len() != src.Len() {
		b.Fatalf("loaded %d triples, want %d", m.Len(), src.Len())
	}
}

// BenchmarkWALCompact compacts a WAL over a 1,792-triple pad-shaped
// store, the size of slimbench's journal pad: the snapshot's encoding and
// atomic write, and the log's reset.
func BenchmarkWALCompact(b *testing.B) {
	m := padStore(1792)
	ws, err := OpenWAL(m, filepath.Join(b.TempDir(), "pad.wal"), WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer ws.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
