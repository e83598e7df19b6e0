package mem

import (
	"bytes"
	"testing"
)

// FuzzTransposeElemsRange checks the blocked transpose against the
// definition, one element at a time: dst[c*rows+r] = src[r*cols+c] for
// the live corner and nothing else written, for every element size the
// kernels are specialised or not specialised for.
func FuzzTransposeElemsRange(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint8(3), uint8(4), []byte("seed"))
	f.Add(uint8(100), uint8(67), uint8(0), uint8(100), uint8(67), []byte{1})       // bytes, beyond one tile
	f.Add(uint8(64), uint8(128), uint8(2), uint8(64), uint8(128), []byte{7, 9})    // words, whole tiles
	f.Add(uint8(33), uint8(129), uint8(2), uint8(17), uint8(1), []byte{0xAB})      // a one-request cohort
	f.Add(uint8(40), uint8(50), uint8(3), uint8(0), uint8(50), []byte{5, 4, 3, 2}) // nothing live
	f.Add(uint8(255), uint8(255), uint8(1), uint8(200), uint8(31), []byte{0x10, 0x20, 0x30})
	f.Fuzz(func(t *testing.T, r8, c8, e2, lr8, lc8 uint8, pattern []byte) {
		rows, cols := int(r8)+1, int(c8)+1
		elem := 1 << (e2 % 4)
		liveRows, liveCols := int(lr8)%(rows+1), int(lc8)%(cols+1)
		n := rows * cols * elem
		if len(pattern) == 0 {
			pattern = []byte{0x5A}
		}
		image := make([]byte, 2*n)
		for i := range image {
			image[i] = pattern[i%len(pattern)] + byte(i*131>>3)
		}
		want := append([]byte(nil), image[n:]...)
		for r := 0; r < liveRows; r++ {
			for c := 0; c < liveCols; c++ {
				copy(want[(c*rows+r)*elem:(c*rows+r+1)*elem], image[(r*cols+c)*elem:(r*cols+c+1)*elem])
			}
		}
		m := New(2 * n)
		src := m.Alloc(n, 1)
		dst := m.Alloc(n, 1)
		m.Write(src, image[:n])
		m.Write(dst, image[n:])
		TransposeElemsRange(m, dst, src, rows, cols, elem, liveRows, liveCols)
		if !bytes.Equal(m.Bytes(dst, n), want) {
			t.Fatalf("%dx%d elem %d live %dx%d: wrong destination", rows, cols, elem, liveRows, liveCols)
		}
		if !bytes.Equal(m.Bytes(src, n), image[:n]) {
			t.Fatalf("%dx%d elem %d: source modified", rows, cols, elem)
		}
	})
}
