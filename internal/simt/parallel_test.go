package simt

import (
	"bytes"
	"sync"
	"testing"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// divergeStoreProg is a kernel with data-dependent control flow and
// memory traffic — enough surface to catch any pricing or functional
// divergence between serial and parallel warp execution.
type divergeStoreProg struct {
	base mem.Addr
	n    int
}

func (divergeStoreProg) Name() string   { return "diverge_store" }
func (divergeStoreProg) Entry() BlockID { return 0 }
func (p divergeStoreProg) Exec(b BlockID, t *Thread) BlockID {
	switch b {
	case 0:
		t.Compute(10 + t.ID%7)
		return BlockID(1 + t.ID%3)
	case 1, 2, 3:
		t.Compute(25 * int(b))
		return 4
	case 4:
		pad := t.ID % 13
		t.Compute(pad)
		word := []byte{byte(t.ID), byte(t.ID >> 8), byte(pad), 0xAA}
		t.StoreStrided(p.base+mem.Addr(4*t.ID), bytes.Repeat(word, 16), 4, 4*p.n)
		return Halt
	}
	panic("bad block")
}

// TestHostParallelismMatchesSerial asserts the tentpole contract at the
// simt layer: identical LaunchStats and identical device-memory bytes at
// HostParallelism 1 and 8.
func TestHostParallelismMatchesSerial(t *testing.T) {
	const n = 4096
	run := func(hp int) (LaunchStats, []byte) {
		cfg := GTXTitan()
		cfg.HostParallelism = hp
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, n*64+1<<20, nil)
		base := dev.Mem.Alloc(n*64, 256)
		var st LaunchStats
		dev.NewStream().Launch(divergeStoreProg{base: base, n: n}, n,
			func(ls LaunchStats) { st = ls })
		eng.Run()
		return st, dev.Mem.Read(base, n*64)
	}
	serialSt, serialMem := run(1)
	parSt, parMem := run(8)
	if serialSt != parSt {
		t.Fatalf("launch stats diverged:\n  serial:   %+v\n  parallel: %+v", serialSt, parSt)
	}
	if !bytes.Equal(serialMem, parMem) {
		t.Fatal("device memory diverged between serial and parallel execution")
	}
}

// TestDeferRunsInSerialThreadOrder asserts that Thread.Defer callbacks
// run after the parallel section, on one host thread, in exactly the
// order a serial simulation would reach them: warp by warp, lanes in
// issue order.
func TestDeferRunsInSerialThreadOrder(t *testing.T) {
	const n = 100
	cfg := GTXTitan()
	cfg.HostParallelism = 8
	eng := sim.NewEngine()
	dev := NewDevice(eng, cfg, 1<<20, nil)
	var order []int
	var mu sync.Mutex // would catch (and fail on) concurrent callbacks via -race
	prog := FuncProgram{Label: "defer_order", Body: func(th *Thread) {
		id := th.ID
		th.Compute(1 + id%5)
		th.Defer(func() {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
	}}
	dev.NewStream().Launch(prog, n, nil)
	eng.Run()
	if len(order) != n {
		t.Fatalf("got %d deferred callbacks, want %d", len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("deferred callback %d ran for thread %d (want serial thread order)", i, id)
		}
	}
}
