package simt

import "rhythm/internal/mem"

// WordSize is the interleaving granularity of column-major cohort
// buffers: threads store 4-byte words so that a warp's lanes cover a full
// 128-byte transaction (§4.3.2, Figure 6).
const WordSize = 4

// ColumnBase returns the base address of request r's column in a
// word-interleaved buffer starting at buf.
func ColumnBase(buf mem.Addr, r int) mem.Addr { return buf + mem.Addr(WordSize*r) }

// LoadColumn reads n bytes of request r's column from a cohort buffer of
// `rows` slots (n must be a multiple of WordSize).
func LoadColumn(t *Thread, buf mem.Addr, r, rows, n int) []byte {
	return t.LoadStrided(ColumnBase(buf, r), n/WordSize, WordSize, WordSize*rows)
}

// StoreColumn writes data into request r's column starting at byte offset
// start, issuing the word accesses a CUDA thread would: a partial leading
// word, aligned middle words, and a partial trailing word. When every
// lane's start matches (the padded, aligned case) the stores coalesce;
// when starts diverge they scatter.
func StoreColumn(t *Thread, buf mem.Addr, r, rows, start int, data []byte) {
	if len(data) == 0 {
		return
	}
	stride := WordSize * rows
	pos := start
	// Partial head word.
	if h := pos % WordSize; h != 0 {
		n := WordSize - h
		if n > len(data) {
			n = len(data)
		}
		addr := buf + mem.Addr((pos/WordSize)*stride+WordSize*r+h)
		t.Store(addr, data[:n])
		data = data[n:]
		pos += n
	}
	// Aligned middle.
	if n := len(data) / WordSize * WordSize; n > 0 {
		addr := buf + mem.Addr((pos/WordSize)*stride+WordSize*r)
		t.StoreStrided(addr, data[:n], WordSize, stride)
		data = data[n:]
		pos += n
	}
	// Partial tail word.
	if len(data) > 0 {
		addr := buf + mem.Addr((pos/WordSize)*stride+WordSize*r)
		t.Store(addr, data)
	}
}

// ChargeColumn prices a store of n bytes (a WordSize multiple) over
// request r's column from offset 0 — the access StoreColumn would record
// for n bytes of any content — and moves nothing. It is for slots whose
// bytes a Thread.Defer callback writes with WriteColumnRaw: the store's
// cost does not depend on its content, and the column is only read by a
// later launch.
func ChargeColumn(t *Thread, buf mem.Addr, r, rows, n int) {
	if n%WordSize != 0 {
		panic("simt: priced column store not word-aligned")
	}
	if n > 0 {
		t.chargeStrided(ColumnBase(buf, r), n/WordSize, WordSize, WordSize*rows)
	}
}

// WriteColumnRaw writes data (a multiple of WordSize long) into request
// r's column starting at offset 0, functionally only — no memory traffic
// is charged. It backs deferred device-backend stores, whose cost
// ChargeColumn priced from the kernel block that deferred them.
func WriteColumnRaw(m *mem.Memory, buf mem.Addr, r, rows int, data []byte) {
	if len(data)%WordSize != 0 {
		panic("simt: raw column write not word-aligned")
	}
	words := len(data) / WordSize
	if words == 0 {
		return
	}
	stride := WordSize * rows
	mem.ScatterWords(m.Bytes(ColumnBase(buf, r), (words-1)*stride+WordSize), data, stride)
}
