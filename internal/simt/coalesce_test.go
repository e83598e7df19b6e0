package simt

import (
	"math/rand"
	"testing"

	"rhythm/internal/mem"
)

// walkUniformStrided is the per-step reference coalesceUniformStrided is
// checked against: the same shape test, then one step at a time, the
// segments each lockstep step touches.
func walkUniformStrided(cfg Config, lanes []*Thread, k int, maxCount int64) (steps, bytes, txns int64, ok bool) {
	if maxCount <= 1 || len(lanes) == 0 {
		return 0, 0, 0, false
	}
	var ref access
	for i, t := range lanes {
		if k >= len(t.accesses) {
			return 0, 0, 0, false
		}
		a := t.accesses[k]
		if !a.strided {
			return 0, 0, 0, false
		}
		if i == 0 {
			ref = a
			continue
		}
		if a.elem != ref.elem || a.stride != ref.stride || a.count != ref.count {
			return 0, 0, 0, false
		}
		if a.addr != ref.addr+mem.Addr(i*ref.elem) {
			return 0, 0, 0, false
		}
	}
	span := len(lanes) * ref.elem
	if ref.stride < span {
		return 0, 0, 0, false
	}
	seg := mem.Addr(cfg.SegmentBytes)
	for i := 0; i < ref.count; i++ {
		at := ref.addr + mem.Addr(i*ref.stride)
		n := int64((at+mem.Addr(span-1))/seg - at/seg + 1)
		txns += n
		bytes += n * int64(cfg.SegmentBytes)
		steps++
	}
	return steps, bytes, txns, true
}

// stridedShape is one warp-wide strided access: lanes packed elem bytes
// apart from base, unless skew moves the last lane off the packing.
type stridedShape struct {
	base                              uint64
	lanes, elem, stride, count, segSz int
	skew                              int
}

func (sh stridedShape) threads() []*Thread {
	lanes := make([]*Thread, sh.lanes)
	for i := range lanes {
		addr := mem.Addr(sh.base) + mem.Addr(i*sh.elem)
		if i == sh.lanes-1 {
			addr += mem.Addr(sh.skew)
		}
		lanes[i] = &Thread{ID: i, Lane: i, accesses: []access{{
			addr: addr, elem: sh.elem, count: sh.count, stride: sh.stride, strided: true,
		}}}
	}
	return lanes
}

// checkClosedForm fails t unless the closed form and the walk agree on
// sh: whether the fast path applies, and its steps, bytes and txns.
func checkClosedForm(t *testing.T, sh stridedShape) {
	t.Helper()
	cfg := Config{SegmentBytes: sh.segSz}
	lanes := sh.threads()
	ws, wb, wx, wok := walkUniformStrided(cfg, lanes, 0, int64(sh.count))
	gs, gb, gx, gok := coalesceUniformStrided(cfg, lanes, 0, int64(sh.count))
	if gok != wok || gs != ws || gb != wb || gx != wx {
		t.Fatalf("%+v: closed form (steps %d, bytes %d, txns %d, ok %v), walk (%d, %d, %d, %v)",
			sh, gs, gb, gx, gok, ws, wb, wx, wok)
	}
}

// TestCoalesceClosedFormMatchesWalk draws shapes across every segment
// size the configs use, with strides that are and are not a segment
// multiple, unaligned bases, and lanes off the packing, and holds the
// closed form to the walk on each.
func TestCoalesceClosedFormMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	elems := []int{1, 2, 3, 4, 8, 16}
	fast := 0
	for i := 0; i < 4000; i++ {
		sh := stridedShape{
			base:  uint64(rng.Intn(1 << 20)),
			lanes: 1 + rng.Intn(32),
			elem:  elems[rng.Intn(len(elems))],
			count: 2 + rng.Intn(2048),
			segSz: 32 << rng.Intn(3),
		}
		span := sh.lanes * sh.elem
		switch rng.Intn(4) {
		case 0: // a whole number of segments past the span: the cohort layouts
			sh.stride = (span/sh.segSz + 1 + rng.Intn(4)) * sh.segSz
		case 1: // any stride from the span up
			sh.stride = span + rng.Intn(3*sh.segSz)
		case 2: // overlapping steps: the walk's general path
			sh.stride = 1 + rng.Intn(span)
		case 3: // a word-multiple stride
			sh.stride = (span/4 + 1 + rng.Intn(64)) * 4
		}
		if rng.Intn(8) == 0 {
			sh.skew = 1 + rng.Intn(8)
		}
		if sh.stride >= span && sh.skew == 0 {
			fast++
		}
		checkClosedForm(t, sh)
	}
	if fast < 2000 {
		t.Fatalf("only %d of 4000 shapes took the fast path", fast)
	}
}

// FuzzCoalesceUniformStrided holds the closed form to the walk on
// arbitrary shapes.
func FuzzCoalesceUniformStrided(f *testing.F) {
	f.Add(uint32(0), uint8(4), uint16(16384), uint16(4096), uint8(32), uint8(2), uint8(0))
	f.Add(uint32(4), uint8(4), uint16(512), uint16(1024), uint8(128), uint8(2), uint8(0))
	f.Add(uint32(100), uint8(3), uint16(97), uint16(777), uint8(7), uint8(0), uint8(0))
	f.Add(uint32(31), uint8(8), uint16(260), uint16(33), uint8(32), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, base uint32, elem uint8, stride, count uint16, lanes, seg, skew uint8) {
		checkClosedForm(t, stridedShape{
			base:   uint64(base),
			lanes:  1 + int(lanes)%32,
			elem:   1 + int(elem)%16,
			stride: int(stride),
			count:  2 + int(count)%4096,
			segSz:  32 << (seg % 3),
			skew:   int(skew % 4),
		})
	})
}
