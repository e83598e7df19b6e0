package mem

import "encoding/binary"

// Transpose converts a cohort's buffers between row-major layout (each
// request's buffer contiguous — what the NIC wants) and column-major
// layout (thread buffers interleaved in the sequential address space —
// what coalesced SIMT access wants). The paper views the per-cohort
// buffers as a rows×cols 2-D byte array and transposes it on the way in
// and out of the device (§4.3.2, Figure 6).
//
// src and dst address rows*cols bytes each and must not overlap.
// Element (r, c) of src (row-major) lands at (c, r) of dst, i.e.
// dst[c*rows+r] = src[r*cols+c].
func Transpose(m *Memory, dst, src Addr, rows, cols int) {
	TransposeElems(m, dst, src, rows, cols, 1)
}

// TransposeElems transposes a rows×cols matrix of elem-byte elements.
// Rhythm interleaves cohort buffers at 4-byte-word granularity so that a
// warp's lanes touch adjacent words; this is the word-level variant of
// Transpose. src and dst address rows*cols*elem bytes and must not
// overlap. Element (r, c) of src lands at (c, r) of dst.
func TransposeElems(m *Memory, dst, src Addr, rows, cols, elem int) {
	TransposeElemsRange(m, dst, src, rows, cols, elem, rows, cols)
}

// TransposeElemsRange transposes only the [0,liveRows)×[0,liveCols)
// corner of a rows×cols element matrix, leaving the rest of dst
// untouched. Rhythm's cohort buffers have fixed geometry, so a partially
// filled cohort only has live data in its first `count` rows or columns;
// hardware would still stream the whole buffer (charge accordingly) but
// the simulation need only move the meaningful bytes.
func TransposeElemsRange(m *Memory, dst, src Addr, rows, cols, elem, liveRows, liveCols int) {
	TransposeColumns(m, dst, src, rows, cols, elem, liveRows, 0, liveCols)
}

// TransposeColumns is TransposeElemsRange for the band [c0,c1) of the
// live columns: it moves the [0,liveRows)×[c0,c1) block, which fills
// rows c0..c1-1 of dst and nothing else. Bands that do not overlap write
// disjoint bytes, so they may run concurrently.
func TransposeColumns(m *Memory, dst, src Addr, rows, cols, elem, liveRows, c0, c1 int) {
	if rows <= 0 || cols <= 0 || elem <= 0 || liveRows < 0 || liveRows > rows || c0 < 0 || c1 < c0 || c1 > cols {
		panic("mem: bad transpose range")
	}
	n := rows * cols * elem
	s := m.Bytes(src, n)
	d := m.Bytes(dst, n)
	if overlaps(src, dst, n) {
		panic("mem: transpose buffers overlap")
	}
	// transposeTile is the tile edge in elements: a 16×16 tile of 4-byte
	// words is 16 cache lines of each array, and the inner loop fills
	// one destination line.
	const transposeTile = 16
	for t0 := c0; t0 < c1; t0 += transposeTile {
		cmax := min(t0+transposeTile, c1)
		for r0 := 0; r0 < liveRows; r0 += transposeTile {
			rmax := min(r0+transposeTile, liveRows)
			if elem == 4 {
				// Destination-contiguous: row c of dst is filled left
				// to right from a column of the source tile.
				for c := t0; c < cmax; c++ {
					GatherWords(d[(c*rows+r0)*4:(c*rows+rmax)*4], s[(r0*cols+c)*4:], cols*4)
				}
				continue
			}
			for c := t0; c < cmax; c++ {
				for r := r0; r < rmax; r++ {
					copy(d[(c*rows+r)*elem:(c*rows+r+1)*elem], s[(r*cols+c)*elem:(r*cols+c+1)*elem])
				}
			}
		}
	}
}

// GatherWords fills dst with the 4-byte words of src at byte offsets
// 0, stride, 2*stride, ... — one load and one store per word, where a
// 4-byte copy is a call.
func GatherWords(dst, src []byte, stride int) {
	for i, o := 0, 0; i+4 <= len(dst); i, o = i+4, o+stride {
		binary.LittleEndian.PutUint32(dst[i:], binary.LittleEndian.Uint32(src[o:]))
	}
}

// ScatterWords writes the 4-byte words of src to dst at byte offsets
// 0, stride, 2*stride, ...
func ScatterWords(dst, src []byte, stride int) {
	for i, o := 0, 0; i+4 <= len(src); i, o = i+4, o+stride {
		binary.LittleEndian.PutUint32(dst[o:], binary.LittleEndian.Uint32(src[i:]))
	}
}

func overlaps(a, b Addr, n int) bool {
	return a < b+Addr(n) && b < a+Addr(n)
}

// TransposeBytes computes the bytes moved by a transpose of rows*cols:
// one read and one write of every byte. Used by the device cost model.
func TransposeBytes(rows, cols int) int { return 2 * rows * cols }
