// Package simt is a software model of a SIMT accelerator (a GPU-style
// device). It stands in for the NVIDIA GTX Titan + CUDA runtime the paper
// uses: kernels are basic-block programs executed by cohorts of threads in
// 32-lane warps with lockstep issue, divergence serialization, coalesced
// memory transactions, asynchronous streams, and HyperQ-style hardware
// work queues. Kernels operate on real bytes in
// device memory, so everything the device "computes" (parsed requests,
// HTML responses) is functionally real and can be validated; the cost
// model turns the observed instruction and transaction counts into
// virtual time and energy.
package simt

// Config describes the modeled device.
type Config struct {
	// Name identifies the device in reports (e.g., "GTX Titan").
	Name string
	// SMs is the number of streaming multiprocessors (GTX Titan: 14).
	SMs int
	// WarpSize is the SIMT width (32 for all NVIDIA parts).
	WarpSize int
	// SchedulersPerSM is the number of warp schedulers per SM, each able
	// to issue one warp instruction per cycle (Kepler SMX: 4).
	SchedulersPerSM int
	// ClockHz is the core clock (GTX Titan: 837 MHz).
	ClockHz float64
	// MemBandwidth is usable device memory bandwidth in bytes/sec
	// (GTX Titan: 288 GB/s peak; we model ~80% achievable).
	MemBandwidth float64
	// SegmentBytes is the memory coalescing granularity (128 B).
	SegmentBytes int
	// Queues is the number of hardware work queues. The GTX Titan exposes
	// 32 (HyperQ); the GTX690 the paper tried first exposes 1, creating
	// false dependencies among streams (§6.4).
	Queues int
	// LaunchOverhead is the fixed host-side cost of enqueueing a kernel,
	// in nanoseconds of device timeline (~5 µs on Kepler).
	LaunchOverhead int64
	// MemBytes is the device memory capacity (GTX Titan: 6 GB). The
	// simulator's backing store may be smaller; this value drives the
	// §6.3 capacity checks.
	MemBytes int64
	// HostParallelism caps the host worker threads that execute a
	// launch's warps concurrently. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 forces the serial path. This is a purely
	// host-side knob: simulated results (durations, stats, response
	// bytes) are identical at every setting — see DESIGN.md
	// "Host parallelism" for the determinism contract.
	HostParallelism int
	// SimParallelism caps the host workers that execute independent
	// kernel launches of one epoch batch concurrently (launch-level
	// parallelism, the axis above HostParallelism's warp-level one).
	// Launches accumulate between engine drain points and execute as one
	// canonically ordered batch; non-conflicting launches (disjoint
	// Footprints) run on up to SimParallelism workers while conflicting
	// ones serialize in (stream, seq) order. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 forces serial batch execution. Simulated
	// results are byte-identical at every setting — see DESIGN.md §13
	// for the epoch/merge determinism contract.
	SimParallelism int

	// ProfileOff disables the per-launch profiler ring (DESIGN.md §10).
	// Profiling is on by default: recording is one mutex acquisition and
	// a struct copy per launch (zero heap allocations), which
	// BenchmarkProfilerOverhead bounds under 2% of simulation cost. The
	// knob exists so that bound can be measured and so allocation-
	// sensitive micro-benchmarks can opt out.
	ProfileOff bool
	// ProfileRing is the launch-record ring capacity (0 = default 4096).
	ProfileRing int

	// PowerBaseWatts/PowerSMWatts/PowerMemWatts parameterize the
	// per-launch modeled dynamic energy in LaunchRecord: for a launch's
	// duration the card draws Base out-of-idle watts, plus SM watts
	// scaled by issue-slot occupancy and the compute-bound time fraction,
	// plus Mem watts scaled by the bandwidth-bound fraction. The Titan
	// values match internal/platform's TitanPower curve (calibrated to
	// Table 3's operating points). All zero = no energy model.
	PowerBaseWatts float64
	PowerSMWatts   float64
	PowerMemWatts  float64
}

// GTXTitan returns the configuration of the paper's GTX Titan card
// (Table 1: 28 nm, 14 SMX, 6 GB GDDR5, HyperQ).
func GTXTitan() Config {
	return Config{
		Name:            "GTX Titan",
		SMs:             14,
		WarpSize:        32,
		SchedulersPerSM: 4,
		ClockHz:         837e6,
		MemBandwidth:    230e9, // ~80% of the 288 GB/s peak
		SegmentBytes:    128,
		Queues:          32,
		LaunchOverhead:  5_000,
		MemBytes:        6 << 30,
		PowerBaseWatts:  55,  // platform.GTXTitanPower().BaseDyn
		PowerSMWatts:    145, // .SMMax
		PowerMemWatts:   45,  // .MemMax
	}
}

// CoreI7SIMD models the "SIMD based implementation on current CPUs" the
// paper calls a useful design point but leaves to future work (§6.4):
// the Core i7's four cores running Rhythm cohorts in 8-lane AVX vectors.
// Each core is one "SM" with superscalar issue (4 vector ops/cycle) but
// commodity DDR3 bandwidth — which is what ends up limiting it.
func CoreI7SIMD() Config {
	return Config{
		Name:            "Core i7 AVX (8-lane SIMD)",
		SMs:             4,
		WarpSize:        8,
		SchedulersPerSM: 4,
		ClockHz:         3.4e9,
		MemBandwidth:    21e9, // dual-channel DDR3-1600, ~80% achievable
		SegmentBytes:    64,   // cache-line granularity
		Queues:          32,   // software queues: no false dependencies
		LaunchOverhead:  200,  // a function call, not a PCIe doorbell
		MemBytes:        16 << 30,
		// The i7-2600's measured 4-worker dynamic draw is ~102 W
		// (platform.CoreI7()); split mostly into core power with a small
		// uncore/DRAM share.
		PowerBaseWatts: 15,
		PowerSMWatts:   76,
		PowerMemWatts:  11,
	}
}

// maxConcurrentWarps reports the number of warps that can issue in the
// same cycle across the device.
func (c Config) maxConcurrentWarps() int {
	return c.SMs * c.SchedulersPerSM
}

func (c Config) validate() {
	switch {
	case c.SMs <= 0:
		panic("simt: SMs must be positive")
	case c.WarpSize <= 0 || c.WarpSize > 64:
		panic("simt: WarpSize out of range")
	case c.SchedulersPerSM <= 0:
		panic("simt: SchedulersPerSM must be positive")
	case c.ClockHz <= 0:
		panic("simt: ClockHz must be positive")
	case c.MemBandwidth <= 0:
		panic("simt: MemBandwidth must be positive")
	case c.SegmentBytes <= 0 || c.SegmentBytes&(c.SegmentBytes-1) != 0:
		panic("simt: SegmentBytes must be a positive power of two")
	case c.Queues <= 0:
		panic("simt: Queues must be positive")
	case c.HostParallelism < 0:
		panic("simt: HostParallelism must be non-negative")
	case c.SimParallelism < 0:
		panic("simt: SimParallelism must be non-negative")
	case c.ProfileRing < 0:
		panic("simt: ProfileRing must be non-negative")
	}
}
