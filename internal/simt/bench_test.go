package simt

import (
	"testing"
	"time"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// BenchmarkKernelSimulation measures the simulator's host-side cost of
// executing one 4096-thread cohort kernel with column-major stores —
// the dominant cost of the macro experiments.
func BenchmarkKernelSimulation(b *testing.B) {
	cfg := GTXTitan()
	const threads = 4096
	const words = 1024 // 4 KB per thread
	payload := make([]byte, words*4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, threads*words*4+1<<20, nil)
		base := dev.Mem.Alloc(threads*words*4, 256)
		b.StartTimer()
		dev.NewStream().Launch(FuncProgram{"bench", func(t *Thread) {
			t.Compute(10000)
			t.StoreStrided(base+mem.Addr(4*t.ID), payload, 4, 4*threads)
		}}, threads, nil)
		eng.Run()
	}
}

// BenchmarkHostParallelism times the identical cohort kernel at
// HostParallelism=1 (serial) and 0 (all cores) and reports the wall-time
// speedup — the tentpole metric of the host-parallel simulator. The
// simulated results are identical in both modes (see
// TestHostParallelismMatchesSerial); only host wall-clock differs.
func BenchmarkHostParallelism(b *testing.B) {
	const threads = 4096
	const words = 1024
	payload := make([]byte, words*4)
	run := func(hp int) time.Duration {
		cfg := GTXTitan()
		cfg.HostParallelism = hp
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, threads*words*4+1<<20, nil)
		base := dev.Mem.Alloc(threads*words*4, 256)
		start := time.Now()
		dev.NewStream().Launch(FuncProgram{"bench", func(t *Thread) {
			t.Compute(10000)
			t.StoreStrided(base+mem.Addr(4*t.ID), payload, 4, 4*threads)
		}}, threads, nil)
		eng.Run()
		return time.Since(start)
	}
	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial += run(1)
		parallel += run(0)
	}
	if parallel > 0 {
		b.ReportMetric(float64(serial)/float64(parallel), "speedup")
	}
	b.ReportMetric(float64(serial.Nanoseconds())/float64(b.N), "serial-ns/op")
	b.ReportMetric(float64(parallel.Nanoseconds())/float64(b.N), "parallel-ns/op")
}

// BenchmarkProfilerOverhead times the same cohort kernel with the
// launch profiler on (default ring) and off, and reports the relative
// cost as overhead-pct — the acceptance bound is < 2%. Recording is one
// mutex acquisition plus a LaunchRecord copy per launch
// (TestProfileRecordNoAllocs pins the zero-allocation claim), against a
// kernel simulation costing milliseconds, so the measured overhead is
// typically noise around 0.
func BenchmarkProfilerOverhead(b *testing.B) {
	const threads = 4096
	const words = 1024
	payload := make([]byte, words*4)
	run := func(off bool) time.Duration {
		cfg := GTXTitan()
		cfg.ProfileOff = off
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, threads*words*4+1<<20, nil)
		base := dev.Mem.Alloc(threads*words*4, 256)
		start := time.Now()
		dev.NewStream().Launch(FuncProgram{"bench", func(t *Thread) {
			t.Compute(10000)
			t.StoreStrided(base+mem.Addr(4*t.ID), payload, 4, 4*threads)
		}}, threads, nil)
		eng.Run()
		return time.Since(start)
	}
	var on, off time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off += run(true)
		on += run(false)
	}
	if off > 0 {
		b.ReportMetric(100*(float64(on)-float64(off))/float64(off), "overhead-pct")
	}
	b.ReportMetric(float64(on.Nanoseconds())/float64(b.N), "profiled-ns/op")
	b.ReportMetric(float64(off.Nanoseconds())/float64(b.N), "unprofiled-ns/op")
}

// BenchmarkWarpDivergence measures the simulator under a divergent
// kernel (the general coalescing path).
func BenchmarkWarpDivergence(b *testing.B) {
	cfg := GTXTitan()
	prog := progFunc{name: "div", f: func(blk BlockID, t *Thread) BlockID {
		switch blk {
		case 0:
			t.Compute(10)
			return BlockID(1 + t.ID%4)
		case 1, 2, 3, 4:
			t.Compute(100)
			return 5
		default:
			t.Compute(5)
			return Halt
		}
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		dev := NewDevice(eng, cfg, 1<<20, nil)
		b.StartTimer()
		dev.NewStream().Launch(prog, 4096, nil)
		eng.Run()
	}
}
