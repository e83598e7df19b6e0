package rcache

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// RunHeader is the bytes one run of an entry's encoding spends on its
// position and length (two little-endian uint32s), so an entry never
// holds more than its page's live bytes plus RunHeader.
const RunHeader = 8

// minGap is the fewest equal bytes that end a run. A shorter stretch of
// equal bytes between two differing ones stays inside the run: it costs
// its own length there instead of a RunHeader, and fewer runs decode
// faster. At least RunHeader, so the gaps that do split runs pay for
// their headers and an encoding stays within the page plus one header.
const minGap = 2 * RunHeader

// encode returns the runs where page differs from ref, in one
// allocation sized exactly (nil when the page is ref or a prefix of
// it). Bytes past ref's end always differ.
func encode(page, ref []byte) []byte {
	size := 0
	for lo, hi := nextRun(page, ref, 0); lo < len(page); lo, hi = nextRun(page, ref, hi) {
		size += RunHeader + hi - lo
	}
	if size == 0 {
		return nil
	}
	runs := make([]byte, 0, size)
	for lo, hi := nextRun(page, ref, 0); lo < len(page); lo, hi = nextRun(page, ref, hi) {
		runs = binary.LittleEndian.AppendUint32(runs, uint32(lo))
		runs = binary.LittleEndian.AppendUint32(runs, uint32(hi-lo))
		runs = append(runs, page[lo:hi]...)
	}
	return runs
}

// nextRun returns the first run [lo, hi) of page at or after i whose
// bytes differ from ref, or lo = hi = len(page) when the rest of the
// page equals ref.
func nextRun(page, ref []byte, i int) (lo, hi int) {
	lo = i + commonPrefix(page[i:], ref[min(i, len(ref)):])
	if lo >= len(page) {
		return len(page), len(page)
	}
	return lo, runEnd(page, ref, lo)
}

// runEnd returns the end of the run that starts at page[lo], a byte
// unlike ref's: the start of the first minGap bytes equal to ref's after
// it, or of the equal bytes that reach the page's end; len(page) when
// the page outruns ref first. It compares a word at a time, counting
// the equal bytes that end at i.
func runEnd(page, ref []byte, lo int) int {
	n := min(len(page), len(ref))
	equal := 0 // page[i-equal:i] == ref[i-equal:i]
	i := lo + 1
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(page[i:]) ^ binary.LittleEndian.Uint64(ref[i:])
		if x == 0 {
			if equal += 8; equal >= minGap {
				return i + 8 - equal
			}
			continue
		}
		// Little-endian: the low bytes of x are the word's first.
		if equal+bits.TrailingZeros64(x)/8 >= minGap {
			return i - equal
		}
		equal = bits.LeadingZeros64(x) / 8
	}
	for ; i < n; i++ {
		if page[i] != ref[i] {
			equal = 0
		} else if equal++; equal >= minGap {
			return i + 1 - equal
		}
	}
	if n < len(page) {
		return len(page) // fewer than minGap equal bytes, then past ref's end
	}
	return n - equal
}

// commonPrefix is the length of the longest common prefix of a and b:
// 256-byte blocks through bytes.Equal, then words, then bytes.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i+256 <= n && bytes.Equal(a[i:i+256], b[i:i+256]) {
		i += 256
	}
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// appendPage appends the live page of length live that runs encodes
// against ref to dst, growing dst at most once: ref's bytes between the
// runs, each run's bytes inside it.
func appendPage(dst, ref, runs []byte, live int) []byte {
	dst = slices.Grow(dst, live)
	pos := 0
	for len(runs) > 0 {
		off := int(binary.LittleEndian.Uint32(runs))
		n := int(binary.LittleEndian.Uint32(runs[4:]))
		dst = append(dst, ref[pos:off]...)
		dst = append(dst, runs[RunHeader:RunHeader+n]...)
		pos, runs = off+n, runs[RunHeader+n:]
	}
	if pos < live {
		dst = append(dst, ref[pos:live]...)
	}
	return dst
}
