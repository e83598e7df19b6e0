package simt

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// TestStoreColumnUnalignedOffsets: StoreColumn must write correct bytes
// at any byte offset; the aligned fast path and the partial-word paths
// must agree.
func TestStoreColumnUnalignedOffsets(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(eng, GTXTitan(), 8<<20, nil)
	const rows = 8
	buf := dev.Mem.Alloc(rows*64, 256)
	payload := []byte("unaligned-payload!")
	dev.NewStream().Launch(FuncProgram{Label: "uw", Body: func(th *Thread) {
		StoreColumn(th, buf, th.ID, rows, 3+th.ID%4, payload)
	}}, rows, nil)
	eng.Run()
	// Un-interleave and check each row.
	for r := 0; r < rows; r++ {
		start := 3 + r%4
		got := make([]byte, len(payload))
		for i := range got {
			off := start + i
			got[i] = dev.Mem.Bytes(buf+mem.Addr((off/4)*(4*rows)+4*r+off%4), 1)[0]
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("row %d: %q", r, got)
		}
	}
}

// TestStoreCopiesPayloadAtIssue: a kernel may recycle the buffer it
// handed to a store as soon as the store returns.
func TestStoreCopiesPayloadAtIssue(t *testing.T) {
	d := testDevice(t, GTXTitan())
	const n, rows, words = 64, 64, 33
	buf := d.Mem.Alloc(rows*(words+1)*WordSize, 256)
	scratch := make([]byte, words*WordSize+3) // one buffer shared by every lane of a warp
	prog := FuncProgram{Label: "reuse", Body: func(th *Thread) {
		for i := range scratch {
			scratch[i] = byte(th.ID + i)
		}
		StoreColumn(th, buf, th.ID, rows, 0, scratch) // words + a 3-byte tail Store
		for i := range scratch {
			scratch[i] = 0xEE
		}
	}}
	cfg := d.Cfg
	cfg.HostParallelism = 1 // lanes share scratch: keep the warps serial
	d.Cfg = cfg
	d.NewStream().Launch(prog, n, nil)
	d.Engine().Run()
	for r := 0; r < n; r++ {
		col := LoadColumn(&Thread{mem: d.Mem}, buf, r, rows, (words+1)*WordSize)
		for i := 0; i < len(scratch); i++ {
			if col[i] != byte(r+i) {
				t.Fatalf("column %d byte %d = %#x, want %#x (payload read after the store returned)", r, i, col[i], byte(r+i))
			}
		}
	}
}

// TestChargeColumnPricesLikeStoreColumn: a warp of price-only stores
// costs exactly what a warp of blank StoreColumns does and moves nothing.
func TestChargeColumnPricesLikeStoreColumn(t *testing.T) {
	const lanes, rows, n = 32, 128, 4096
	run := func(body func(th *Thread, buf mem.Addr)) (warpStats, []byte) {
		m := mem.New(1 << 20)
		buf := m.Alloc(rows*n, 256)
		for i, b := 0, m.Bytes(buf, rows*n); i < len(b); i++ {
			b[i] = 0xA5
		}
		threads := make([]*Thread, lanes)
		for i := range threads {
			threads[i] = &Thread{ID: i, Lane: i, mem: m}
		}
		ws := runWarp(GTXTitan(), FuncProgram{Label: "p", Body: func(th *Thread) { body(th, buf) }}, &warpScratch{lanes: threads})
		return ws, m.Read(buf, rows*n)
	}
	blankWS, _ := run(func(th *Thread, buf mem.Addr) { StoreColumn(th, buf, th.ID, rows, 0, make([]byte, n)) })
	priceWS, priceMem := run(func(th *Thread, buf mem.Addr) { ChargeColumn(th, buf, th.ID, rows, 0, n) })
	if priceWS != blankWS {
		t.Fatalf("warpStats differ:\n  blank store: %+v\n  price only:  %+v", blankWS, priceWS)
	}
	if !bytes.Equal(priceMem, bytes.Repeat([]byte{0xA5}, rows*n)) {
		t.Fatal("ChargeColumn moved bytes")
	}
}

// TestPricedAccessesMatchMovedOnes: for random offsets and lengths — a
// partial head word, whole words, a partial tail — ChargeColumn appends
// the access records StoreColumn and LoadColumn append, and ChargeRow
// those of the row-major word loop, whether the buffer is backed or
// reserved address space; and none of them touches a byte.
func TestPricedAccessesMatchMovedOnes(t *testing.T) {
	const rows, slot = 40, 512
	rng := rand.New(rand.NewSource(19))
	m := mem.New(1 << 20)
	backed := m.Alloc(rows*slot, 256)
	reserved := m.Reserve(rows*slot, 256)
	records := func(f func(th *Thread)) []access {
		th := &Thread{mem: m}
		f(th)
		return th.accesses
	}
	rebase := func(as []access, by mem.Addr) []access {
		out := slices.Clone(as)
		for i := range out {
			out[i].addr -= by
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		r, start := rng.Intn(rows), rng.Intn(slot)
		n := rng.Intn(slot - start + 1)
		if i%4 == 0 {
			start &^= 3
		}
		if i%8 == 0 {
			n &^= 3
		}
		data := make([]byte, n)
		rng.Read(data)
		words := n &^ 3
		row := backed + mem.Addr(r*slot+start)
		stored := records(func(th *Thread) { StoreColumn(th, backed, r, rows, start, data) })
		loaded := records(func(th *Thread) { LoadColumn(th, backed, r, rows, words) })
		rowStored := records(func(th *Thread) {
			if words > 0 {
				th.StoreStrided(row, data[:words], WordSize, WordSize)
			}
			if words < n {
				th.Store(row+mem.Addr(words), data[words:])
			}
		})
		image := m.Read(backed, rows*slot)
		if got := records(func(th *Thread) { ChargeColumn(th, backed, r, rows, start, n) }); !slices.Equal(got, stored) {
			t.Fatalf("store of %d bytes at %d: priced %+v, moved %+v", n, start, got, stored)
		}
		if got := records(func(th *Thread) { ChargeColumn(th, reserved, r, rows, start, n) }); !slices.Equal(rebase(got, reserved), rebase(stored, backed)) {
			t.Fatalf("store of %d bytes at %d: priced on reserved space %+v, moved %+v", n, start, got, stored)
		}
		if got := records(func(th *Thread) { ChargeColumn(th, backed, r, rows, 0, words) }); !slices.Equal(got, loaded) {
			t.Fatalf("load of %d bytes: priced %+v, moved %+v", words, got, loaded)
		}
		if got := records(func(th *Thread) { ChargeRow(th, row, n) }); !slices.Equal(got, rowStored) {
			t.Fatalf("row store of %d bytes at %d: priced %+v, moved %+v", n, start, got, rowStored)
		}
		if !bytes.Equal(m.Bytes(backed, rows*slot), image) {
			t.Fatal("a priced access moved bytes")
		}
	}
}
