package slim

import (
	"testing"

	"repro/internal/metamodel"
	"repro/internal/rdf"
)

func benchDMI(b *testing.B) *DMI {
	b.Helper()
	d, err := GenerateDMI(NewStore(), metamodel.BundleScrapModel())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkDMICreate(b *testing.B) {
	d := benchDMI(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Create(metamodel.ConstructBundle, map[string]any{
			metamodel.ConnBundleName: "b",
			metamodel.ConnBundlePos:  "1,2",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDMIGet(b *testing.B) {
	d := benchDMI(b)
	obj, err := d.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName:   "b",
		metamodel.ConnBundlePos:    "1,2",
		metamodel.ConnBundleWidth:  100,
		metamodel.ConnBundleHeight: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Get(obj.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDMIGetParallel is BenchmarkDMIGet run from -cpu goroutines at
// once, all reading the same instance: its ns/op at -cpu 2 over -cpu 1 is
// how a DMI read scales across cores.
func BenchmarkDMIGetParallel(b *testing.B) {
	d := benchDMI(b)
	obj, err := d.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName:   "b",
		metamodel.ConnBundlePos:    "1,2",
		metamodel.ConnBundleWidth:  100,
		metamodel.ConnBundleHeight: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := d.Get(obj.ID); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkDMISet(b *testing.B) {
	d := benchDMI(b)
	obj, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Set(obj.ID, metamodel.ConnBundleName, "renamed"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstancesOf(b *testing.B) {
	d := benchDMI(b)
	for i := 0; i < 500; i++ {
		if _, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs, err := d.InstancesOf(metamodel.ConstructBundle)
		if err != nil || len(objs) != 500 {
			b.Fatal(err, len(objs))
		}
	}
}

func BenchmarkNewID(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.NewID(metamodel.ConstructBundle) == rdf.Zero {
			b.Fatal("zero id")
		}
	}
}
