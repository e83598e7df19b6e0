package mem

import (
	"fmt"
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

// BenchmarkTransposeWords times the word transpose of one cohort's
// request image (256 words = a 1 KB slot per request, cohorts of 128 and
// 1024); MB/s over 4 gives words/s.
func BenchmarkTransposeWords(b *testing.B) {
	const cols, elem = 256, 4
	for _, rows := range []int{128, 1024} {
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			n := rows * cols * elem
			m := New(2*n + 256)
			src := m.Alloc(n, 128)
			dst := m.Alloc(n, 128)
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TransposeElems(m, dst, src, rows, cols, elem)
			}
		})
	}
}
