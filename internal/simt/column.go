package simt

import "rhythm/internal/mem"

// A cohort buffer is word-interleaved on the device so that a warp's
// lanes touch adjacent words (§4.3.2, Figure 6). The layout is a priced
// property of the modeled device, not bytes the host must shuffle to
// prove it: what a layout costs is the access records its loads and
// stores append, and those depend on addresses and lengths only. So a
// kernel whose buffer's bytes the host keeps elsewhere — the stage
// kernels' response and backend slots — prices the column image
// (ChargeColumn, ChargeRow, Stream.ChargeTranspose), which may then be
// reserved address space, and reads and writes the host's copy directly.
// StoreColumn, LoadColumn and Stream.TransposeLive move the bytes as
// well: they serve buffers the device alone holds (the parser's request
// image, the gpufs study) and are the reference the priced forms are
// tested against.

// WordSize is the interleaving granularity of column-major cohort
// buffers: threads store 4-byte words so that a warp's lanes cover a full
// 128-byte transaction (§4.3.2, Figure 6).
const WordSize = 4

// ColumnBase returns the base address of request r's column in a
// word-interleaved buffer starting at buf.
func ColumnBase(buf mem.Addr, r int) mem.Addr { return buf + mem.Addr(WordSize*r) }

// LoadColumn reads n bytes of request r's column from a cohort buffer of
// `rows` slots (n must be a multiple of WordSize) into the warp's gather
// buffer (Thread.LoadStrided).
func LoadColumn(t *Thread, buf mem.Addr, r, rows, n int) []byte {
	return t.LoadStrided(ColumnBase(buf, r), n/WordSize, WordSize, WordSize*rows)
}

// columnSpan is one memory instruction of a column store: bytes
// [lo, hi) of the payload at addr, as whole words down the column or as
// one partial word.
type columnSpan struct {
	addr   mem.Addr
	lo, hi int
	words  bool
}

// columnSpans lists the accesses a CUDA thread issues to store n bytes
// into request r's column from byte offset start: a partial leading
// word, aligned middle words, and a partial trailing word.
func columnSpans(buf mem.Addr, r, rows, start, n int) (spans [3]columnSpan, k int) {
	at := func(pos int) mem.Addr {
		return buf + mem.Addr(pos/WordSize*WordSize*rows+WordSize*r+pos%WordSize)
	}
	lo := 0
	if h := start % WordSize; h != 0 && n > 0 {
		hi := min(WordSize-h, n)
		spans[k] = columnSpan{addr: at(start), hi: hi}
		k, lo = k+1, hi
	}
	if hi := lo + (n-lo)/WordSize*WordSize; hi > lo {
		spans[k] = columnSpan{addr: at(start + lo), lo: lo, hi: hi, words: true}
		k, lo = k+1, hi
	}
	if lo < n {
		spans[k] = columnSpan{addr: at(start + lo), lo: lo, hi: n}
		k++
	}
	return spans, k
}

// StoreColumn writes data into request r's column starting at byte offset
// start. When every lane's start matches (the padded, aligned case) the
// stores coalesce; when starts diverge they scatter.
func StoreColumn(t *Thread, buf mem.Addr, r, rows, start int, data []byte) {
	spans, k := columnSpans(buf, r, rows, start, len(data))
	for _, s := range spans[:k] {
		if s.words {
			t.StoreStrided(s.addr, data[s.lo:s.hi], WordSize, WordSize*rows)
		} else {
			t.Store(s.addr, data[s.lo:s.hi])
		}
	}
}

// ChargeColumn prices an access to n bytes of request r's column from
// byte offset start — the records StoreColumn appends for n bytes of any
// content, and from offset 0 the record LoadColumn appends — and moves
// nothing. An access's cost does not depend on the bytes, so a kernel
// that keeps them on the host charges the column here and reads or
// writes its own copy.
func ChargeColumn(t *Thread, buf mem.Addr, r, rows, start, n int) {
	spans, k := columnSpans(buf, r, rows, start, n)
	for _, s := range spans[:k] {
		if s.words {
			t.chargeStrided(s.addr, (s.hi-s.lo)/WordSize, WordSize, WordSize*rows)
		} else {
			t.charge(s.addr, s.hi-s.lo)
		}
	}
}

// ChargeRow prices the per-word loop of a thread storing n bytes
// row-major at addr — the uncoalesced layout the transpose ablation
// measures — and moves nothing.
func ChargeRow(t *Thread, addr mem.Addr, n int) {
	if words := n / WordSize; words > 0 {
		t.chargeStrided(addr, words, WordSize, WordSize)
	}
	if tail := n % WordSize; tail > 0 {
		t.charge(addr+mem.Addr(n-tail), tail)
	}
}
