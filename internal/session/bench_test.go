package session

import "testing"

func BenchmarkCreateLookupDelete(b *testing.B) {
	a := NewArray(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, ok := a.Create(uint64(i))
		if !ok {
			b.Fatal("table full")
		}
		if _, ok := a.Lookup(id); !ok {
			b.Fatal("lookup failed")
		}
		a.Delete(id)
	}
}

func BenchmarkLookupHot(b *testing.B) {
	a := NewArray(4096, 64)
	ids := make([]ID, 4096)
	for i := range ids {
		ids[i], _, _ = a.Create(uint64(i * 977))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Lookup(ids[i%len(ids)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}
