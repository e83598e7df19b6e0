package simt

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// epochRun executes a scenario against a fresh device at the given
// SimParallelism and returns everything the determinism contract
// covers: per-launch stats in completion order, the accumulated
// DeviceStats, the full profiler ring, and a device-memory image.
func epochRun(t *testing.T, simPar int, memProbe int, scenario func(eng *sim.Engine, dev *Device, stats *[]LaunchStats)) ([]LaunchStats, DeviceStats, []LaunchRecord, []byte) {
	t.Helper()
	cfg := GTXTitan()
	cfg.HostParallelism = 2
	cfg.SimParallelism = simPar
	eng := sim.NewEngine()
	dev := NewDevice(eng, cfg, 4<<20, nil)
	var stats []LaunchStats
	scenario(eng, dev, &stats)
	eng.Run()
	var image []byte
	if memProbe > 0 {
		image = dev.Mem.Read(0, memProbe)
	}
	return stats, dev.Stats(), dev.Profile(), image
}

// assertEpochIdentical runs the scenario at SimParallelism 1 and 8 and
// requires bit-identical observables.
func assertEpochIdentical(t *testing.T, memProbe int, scenario func(eng *sim.Engine, dev *Device, stats *[]LaunchStats)) {
	t.Helper()
	serialSt, serialDev, serialProf, serialMem := epochRun(t, 1, memProbe, scenario)
	parSt, parDev, parProf, parMem := epochRun(t, 8, memProbe, scenario)
	if !reflect.DeepEqual(serialSt, parSt) {
		t.Errorf("launch stats diverged:\n  serial:   %+v\n  parallel: %+v", serialSt, parSt)
	}
	if serialDev != parDev {
		t.Errorf("device stats diverged:\n  serial:   %+v\n  parallel: %+v", serialDev, parDev)
	}
	if !reflect.DeepEqual(serialProf, parProf) {
		t.Errorf("profiler rings diverged:\n  serial:   %+v\n  parallel: %+v", serialProf, parProf)
	}
	if string(serialMem) != string(parMem) {
		t.Error("device memory diverged between SimParallelism 1 and 8")
	}
}

// footprinted attaches a declared footprint to a FuncProgram, opting it
// in to concurrent execution with other launches of its epoch batch.
type footprinted struct {
	FuncProgram
	fp Footprint
}

func (p footprinted) LaunchFootprint() Footprint { return p.fp }

// withFootprint wraps prog with an explicit footprint declaration.
func withFootprint(prog FuncProgram, fp Footprint) Program {
	return footprinted{FuncProgram: prog, fp: fp}
}

// storeTo builds a footprint-declaring kernel that writes a recognizable
// pattern to its own device buffer — independent of every other launch.
func storeTo(base mem.Addr, tag byte, n int) Program {
	return withFootprint(FuncProgram{Label: "store_" + string('a'+tag), Body: func(t *Thread) {
		t.Compute(10 + t.ID%5)
		t.Store(base+mem.Addr(4*t.ID), []byte{tag, byte(t.ID), byte(t.ID >> 8), 0xEE})
	}}, Footprint{})
}

// TestSimParallelismMatchesSerial is the tentpole contract at the simt
// layer: a multi-stream batch of independent launches produces
// bit-identical launch stats, device stats, profiler records, and
// device memory at SimParallelism 1 and 8.
func TestSimParallelismMatchesSerial(t *testing.T) {
	const n, launches = 256, 6
	assertEpochIdentical(t, launches*4*n, func(eng *sim.Engine, dev *Device, stats *[]LaunchStats) {
		for i := 0; i < launches; i++ {
			base := dev.Mem.Alloc(4*n, 256)
			dev.NewStream().Launch(storeTo(base, byte(i), n), n,
				func(ls LaunchStats) { *stats = append(*stats, ls) })
		}
	})
}

// TestEpochStraddle covers launches that straddle an epoch boundary:
// the second launch's gate fires while the first batch's kernel still
// occupies the compute pool, so it lands in a later batch. Timing and
// results must not depend on SimParallelism.
func TestEpochStraddle(t *testing.T) {
	const n = 256
	assertEpochIdentical(t, 0, func(eng *sim.Engine, dev *Device, stats *[]LaunchStats) {
		s1, s2 := dev.NewStream(), dev.NewStream()
		base1 := dev.Mem.Alloc(4*n, 256)
		s1.Launch(storeTo(base1, 0xA0, n), n,
			func(ls LaunchStats) { *stats = append(*stats, ls) })
		// Release the second launch mid-flight: its enqueue happens at a
		// virtual time strictly inside the first kernel's execution.
		eng.After(1, func() {
			base2 := dev.Mem.Alloc(4*n, 256)
			s2.Launch(storeTo(base2, 0xB0, n), n,
				func(ls LaunchStats) { *stats = append(*stats, ls) })
		})
	})
}

// TestCrossStreamConflictOrder covers the cross-stream dependency case
// the footprint table exists for: launches on different streams declare
// a write on one shared token (the shared Besim bucket case), so they
// must execute serially in canonical (stream, seq) order — and their
// execution-time writes to shared host state must interleave exactly as
// a serial simulation's would, at any SimParallelism.
func TestCrossStreamConflictOrder(t *testing.T) {
	type shared struct {
		mu  sync.Mutex
		log []int
	}
	const n, launches = 64, 4
	runOrder := func(simPar int) []int {
		cfg := GTXTitan()
		cfg.SimParallelism = simPar
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, 1<<20, nil)
		bucket := &shared{}
		for i := 0; i < launches; i++ {
			i := i
			prog := withFootprint(FuncProgram{Label: "bucket_writer", Body: func(t *Thread) {
				t.Compute(5)
				if t.ID == 0 {
					bucket.mu.Lock()
					bucket.log = append(bucket.log, i)
					bucket.mu.Unlock()
				}
			}}, Footprint{Writes: []any{bucket}})
			dev.NewStream().Launch(prog, n, nil)
		}
		eng.Run()
		return bucket.log
	}
	serial := runOrder(1)
	parallel := runOrder(8)
	if !reflect.DeepEqual(serial, []int{0, 1, 2, 3}) {
		t.Fatalf("serial conflict-group order %v, want canonical [0 1 2 3]", serial)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("conflicting launches reordered at SimParallelism=8: %v vs %v", parallel, serial)
	}
}

// TestCrossStreamDeferOrder: deferred side effects (the Besim-write
// path) replay in canonical launch order during the serial commit
// phase even when the launches themselves executed concurrently.
func TestCrossStreamDeferOrder(t *testing.T) {
	const n, launches = 64, 4
	runOrder := func(simPar int) []int {
		cfg := GTXTitan()
		cfg.SimParallelism = simPar
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, 1<<20, nil)
		var log []int
		for i := 0; i < launches; i++ {
			i := i
			prog := withFootprint(FuncProgram{Label: "defer_writer", Body: func(t *Thread) {
				t.Compute(5)
				id := t.ID
				t.Defer(func() { log = append(log, i*n+id) })
			}}, Footprint{})
			dev.NewStream().Launch(prog, n, nil)
		}
		eng.Run()
		return log
	}
	serial := runOrder(1)
	parallel := runOrder(8)
	if len(serial) != launches*n {
		t.Fatalf("got %d deferred callbacks, want %d", len(serial), launches*n)
	}
	for i, v := range serial {
		if v != i {
			t.Fatalf("serial defer %d ran for %d (want canonical launch-then-thread order)", i, v)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("deferred replay order diverged between SimParallelism 1 and 8")
	}
}

// TestProfilerRingMergeOrder: with many overlapping launches across
// streams, the profiler ring's record sequence is identical at
// SimParallelism 1 and 8 — records are only appended from completion
// events on the (deterministic) engine, never from batch workers.
func TestProfilerRingMergeOrder(t *testing.T) {
	const n, launches = 128, 8
	ring := func(simPar int) []LaunchRecord {
		cfg := GTXTitan()
		cfg.HostParallelism = 2
		cfg.SimParallelism = simPar
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, 4<<20, nil)
		for i := 0; i < launches; i++ {
			base := dev.Mem.Alloc(4*n, 256)
			// Vary the per-launch work so completion times differ.
			tag := byte(i)
			work := 10 + 40*i
			prog := withFootprint(FuncProgram{Label: "profiled", Body: func(t *Thread) {
				t.Compute(work + t.ID%3)
				t.Store(base+mem.Addr(4*t.ID), []byte{tag, byte(t.ID), 0, 0xCC})
			}}, Footprint{})
			dev.NewStream().Launch(prog, n, nil)
		}
		eng.Run()
		return dev.Profile()
	}
	serial := ring(1)
	parallel := ring(8)
	if len(serial) != launches {
		t.Fatalf("profiler recorded %d launches, want %d", len(serial), launches)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("profiler rings diverged:\n  serial:   %+v\n  parallel: %+v", serial, parallel)
	}
}

// TestSimParallelismSpeedup asserts launch-level parallelism actually
// buys wall-clock time on a host with cores to spare. Each side is the
// best of three runs, and the >= 1.2x ratio is asserted only from four
// cores up: on one core the speedup is unmeasurable by construction, and
// on two or three a busy neighbour (go test runs packages side by side)
// takes the second core often enough to fail an honest build. Below
// four cores the ratio is logged and the test skips with an explicit
// note (the CI determinism matrix still exercises correctness there).
func TestSimParallelismSpeedup(t *testing.T) {
	if runtime.NumCPU() == 1 {
		t.Skip("single-core host (runtime.NumCPU()==1): launch-level speedup is not measurable; skipping >=1.2x wall-clock assertion")
	}
	if testing.Short() {
		t.Skip("wall-clock measurement skipped in -short mode")
	}
	const n, launches = 256, 8
	busyWork := func(t *Thread) {
		acc := uint64(t.ID)
		for i := 0; i < 2_000_00; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		t.Compute(int(10 + acc%7))
	}
	wall := func(simPar int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			cfg := GTXTitan()
			cfg.HostParallelism = 1 // isolate launch-level parallelism
			cfg.SimParallelism = simPar
			eng := sim.NewEngine()
			dev := NewDevice(eng, cfg, 1<<20, nil)
			for i := 0; i < launches; i++ {
				prog := withFootprint(FuncProgram{Label: "busy", Body: busyWork}, Footprint{})
				dev.NewStream().Launch(prog, n, nil)
			}
			start := time.Now()
			eng.Run()
			best = min(best, time.Since(start))
		}
		return best
	}
	serial := wall(1)
	parallel := wall(runtime.NumCPU())
	ratio := serial.Seconds() / parallel.Seconds()
	if runtime.NumCPU() < 4 {
		t.Skipf("%d-core host: SimParallelism=%d speedup %.2fx over serial (%v vs %v) logged, not asserted; the >=1.2x assertion needs >= 4 cores",
			runtime.NumCPU(), runtime.NumCPU(), ratio, parallel, serial)
	}
	if ratio < 1.2 {
		t.Errorf("SimParallelism=%d speedup %.2fx over serial (%v vs %v), want >= 1.2x",
			runtime.NumCPU(), ratio, parallel, serial)
	}
}
