package simt

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// TestCommutingLaunchSeesItsPlaceInTheOrder: one epoch batch of a write
// launch on stream 0, a launch of commuting reads on stream 1 and a
// write launch on stream 2. The reads run on the host workers, yet each
// sees exactly the first launch's writes and none of the third's, at
// every host and launch parallelism (and, under -tags simtorder, with
// the fan-out running backwards).
func TestCommutingLaunchSeesItsPlaceInTheOrder(t *testing.T) {
	const n = 200 // seven warps, the last one partial
	for _, par := range []int{1, 8} {
		cfg := GTXTitan()
		cfg.HostParallelism, cfg.SimParallelism = par, par
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, 1<<20, nil)
		state := 0
		seen := make([]int, n)
		reads := make([]int, n)
		dev.NewStream().Launch(withFootprint(FuncProgram{Label: "write_first", Body: func(t *Thread) {
			t.Defer(func() { state++ })
		}}, Footprint{}), n, nil)
		dev.NewStream().Launch(withFootprint(FuncProgram{Label: "read", Body: func(t *Thread) {
			id := t.ID
			t.DeferCommuting(func() { seen[id] = state; reads[id]++ })
		}}, Footprint{}), n, nil)
		dev.NewStream().Launch(withFootprint(FuncProgram{Label: "write_after", Body: func(t *Thread) {
			t.Defer(func() { state += 1000 })
		}}, Footprint{}), n, nil)
		if got := dev.PendingLaunches(); got != 3 {
			t.Fatalf("parallelism %d: %d launches pending, want one batch of 3", par, got)
		}
		eng.Run()
		for id := range seen {
			if seen[id] != n || reads[id] != 1 {
				t.Fatalf("parallelism %d: lane %d read %d writes %d times, want the first launch's %d once", par, id, seen[id], reads[id], n)
			}
		}
		if state != n+1000*n {
			t.Fatalf("parallelism %d: final state %d", par, state)
		}
	}
}

// TestMixedDeferLaunchCommitsInLaneOrder: a launch whose lanes defer
// both kinds of callback commits all of them serially, warp by warp and
// lanes in issue order — one ordinary Defer orders the whole launch.
func TestMixedDeferLaunchCommitsInLaneOrder(t *testing.T) {
	const n = 100
	cfg := GTXTitan()
	cfg.HostParallelism = 8
	eng := sim.NewEngine()
	dev := NewDevice(eng, cfg, 1<<20, nil)
	var order []int
	var mu sync.Mutex // would catch (and fail on) concurrent callbacks via -race
	dev.NewStream().Launch(FuncProgram{Label: "mixed_defer", Body: func(th *Thread) {
		id := th.ID
		th.Compute(1 + id%5)
		record := func() {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
		if id == n-1 {
			th.Defer(record)
		} else {
			th.DeferCommuting(record)
		}
	}}, n, nil)
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

// TestTransposeLiveBandsMatchRange: TransposeLive, moving its column
// bands on the host workers, leaves device memory byte for byte as one
// TransposeElemsRange over the whole live corner does, for live widths
// that end inside a band, on a band edge and at a single column.
func TestTransposeLiveBandsMatchRange(t *testing.T) {
	const rows, cols = 37, 3*transposeBand + 5
	for _, elem := range []int{4, 2} {
		for _, liveCols := range []int{cols, 2 * transposeBand, transposeBand + 1, 1, 0} {
			t.Run(fmt.Sprintf("elem%d_live%d", elem, liveCols), func(t *testing.T) {
				n := rows * cols * elem
				src := make([]byte, n)
				for i := range src {
					src[i] = byte(i*7 + i>>8)
				}
				want := mem.New(2 * n)
				want.Write(0, src)
				mem.TransposeElemsRange(want, mem.Addr(n), 0, rows, cols, elem, rows-3, liveCols)
				for _, par := range []int{1, 8} {
					cfg := GTXTitan()
					cfg.HostParallelism = par
					eng := sim.NewEngine()
					dev := NewDevice(eng, cfg, 2*n, nil)
					dev.Mem.Write(0, src)
					dev.NewStream().TransposeLive(mem.Addr(n), 0, rows, cols, elem, rows-3, liveCols, nil)
					eng.Run()
					if !bytes.Equal(dev.Mem.Read(0, 2*n), want.Read(0, 2*n)) {
						t.Fatalf("host parallelism %d: device memory differs from one TransposeElemsRange", par)
					}
				}
			})
		}
	}
}
