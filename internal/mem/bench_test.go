package mem

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func BenchmarkTranspose(b *testing.B) {
	const rows, cols = 4096, 8192 // one 32 MB cohort buffer at word grain
	m := New(2*rows*cols + 256)
	src := m.Alloc(rows*cols, 128)
	dst := m.Alloc(rows*cols, 128)
	s := m.Bytes(src, rows*cols)
	for i := range s {
		s[i] = byte(i)
	}
	b.SetBytes(int64(rows * cols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(m, dst, src, rows, cols)
	}
}

// BenchmarkTransposeWords times the response transpose of one cohort
// (4096 words = a 16 KB buffer per request, cohorts of 128 and 1024) on
// one host thread and cut into NumCPU bands; MB/s over 4 gives words/s.
func BenchmarkTransposeWords(b *testing.B) {
	const rows, elem = 4096, 4
	for _, cols := range []int{128, 1024} {
		for _, bands := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%dx%d/bands=%d", rows, cols, bands), func(b *testing.B) {
				n := rows * cols * elem
				m := New(2*n + 256)
				src := m.Alloc(n, 128)
				dst := m.Alloc(n, 128)
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for band := 1; band < bands; band++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							TransposeBand(m, dst, src, rows, cols, elem, rows, cols, band, bands)
						}()
					}
					TransposeBand(m, dst, src, rows, cols, elem, rows, cols, 0, bands)
					wg.Wait()
				}
			})
		}
	}
}

func BenchmarkPoolGetPut(b *testing.B) {
	m := New(1 << 22)
	p := NewPool(m, 64, 4096, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := p.Get()
		p.Put(a)
	}
}
