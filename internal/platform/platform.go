// Package platform models the paper's experimental systems (Table 1):
// the Core i5/i7 and ARM Cortex A9 hosts that run the standalone
// event-based C server, and the GTX Titan power envelope for the three
// Rhythm emulations (Titan A/B/C). Throughput and latency come out of
// simulation; power comes from per-platform curves calibrated to the
// paper's Kill-A-Watt measurements (Table 3), as DESIGN.md documents —
// a simulator cannot derive watts from first principles.
package platform

import "fmt"

// CPU describes one general-purpose platform.
type CPU struct {
	// Name matches Table 1.
	Name string
	// Cores is the physical core count; MaxWorkers the useful worker
	// count (8 on the i7 thanks to SMT).
	Cores      int
	MaxWorkers int
	// ClockHz is the core clock.
	ClockHz float64
	// WorkerIPS is the effective abstract-instructions/sec of one worker
	// on its own core — calibrated so the platform's published Table 3
	// operating points are reproduced when combined with the workload's
	// measured instruction counts.
	WorkerIPS float64
	// SMTFactor scales aggregate throughput when workers exceed cores
	// (i7 with 8 workers: 377/331 of its 4-worker rate).
	SMTFactor float64
	// IdleWatts is the wall power at idle.
	IdleWatts float64
	// DynamicWatts maps worker count to measured dynamic (load - idle)
	// watts.
	DynamicWatts map[int]float64
}

// CoreI5 returns the Core i5 3570 platform (22 nm, 4C4T, 3.4 GHz).
func CoreI5() CPU {
	return CPU{
		Name:         "Core i5",
		Cores:        4,
		MaxWorkers:   4,
		ClockHz:      3.4e9,
		WorkerIPS:    2.4e10,
		SMTFactor:    1.0,
		IdleWatts:    47,
		DynamicWatts: map[int]float64{1: 20, 4: 51},
	}
}

// CoreI7 returns the Core i7 3770 platform (22 nm, 4C8T, 3.4 GHz).
func CoreI7() CPU {
	return CPU{
		Name:         "Core i7",
		Cores:        4,
		MaxWorkers:   8,
		ClockHz:      3.4e9,
		WorkerIPS:    2.74e10,
		SMTFactor:    1.139, // 8-worker aggregate vs 4-worker (Table 3)
		IdleWatts:    45,
		DynamicWatts: map[int]float64{4: 102, 8: 111},
	}
}

// ARMCortexA9 returns the OMAP4460 Panda board platform (45 nm, 2 cores,
// 1.2 GHz).
func ARMCortexA9() CPU {
	return CPU{
		Name:         "ARM A9",
		Cores:        2,
		MaxWorkers:   2,
		ClockHz:      1.2e9,
		WorkerIPS:    2.65e9,
		SMTFactor:    1.0,
		IdleWatts:    2,
		DynamicWatts: map[int]float64{1: 1.4, 2: 2.5},
	}
}

// AggregateIPS reports the platform's total instruction throughput with
// the given worker count.
func (c CPU) AggregateIPS(workers int) float64 {
	if workers <= 0 {
		panic("platform: workers must be positive")
	}
	if workers > c.MaxWorkers {
		panic(fmt.Sprintf("platform: %s supports at most %d workers", c.Name, c.MaxWorkers))
	}
	if workers <= c.Cores {
		return float64(workers) * c.WorkerIPS
	}
	// Oversubscribed onto SMT threads: the whole chip delivers the
	// cores' throughput scaled by the measured SMT factor.
	return float64(c.Cores) * c.WorkerIPS * c.SMTFactor
}

// WorkerIPSAt reports one worker's share of the aggregate rate.
func (c CPU) WorkerIPSAt(workers int) float64 {
	return c.AggregateIPS(workers) / float64(workers)
}

// Dynamic reports dynamic watts for the configuration, interpolating
// linearly between measured points when needed.
func (c CPU) Dynamic(workers int) float64 {
	if w, ok := c.DynamicWatts[workers]; ok {
		return w
	}
	// Linear in workers through the nearest measured points.
	var loW, hiW int
	for k := range c.DynamicWatts {
		if k <= workers && k > loW {
			loW = k
		}
		if k >= workers && (hiW == 0 || k < hiW) {
			hiW = k
		}
	}
	switch {
	case loW == 0 && hiW == 0:
		panic(fmt.Sprintf("platform: %s has no power data", c.Name))
	case loW == 0:
		return c.DynamicWatts[hiW] * float64(workers) / float64(hiW)
	case hiW == 0:
		return c.DynamicWatts[loW] * float64(workers) / float64(loW)
	case loW == hiW:
		return c.DynamicWatts[loW]
	}
	lo, hi := c.DynamicWatts[loW], c.DynamicWatts[hiW]
	return lo + (hi-lo)*float64(workers-loW)/float64(hiW-loW)
}

// Wall reports total wall watts under load.
func (c CPU) Wall(workers int) float64 { return c.IdleWatts + c.Dynamic(workers) }

// TitanPower is the GTX Titan card's power curve. Dynamic power scales
// with how busy the compute engine and memory system are; the constants
// are calibrated to Table 3's three operating points (A: 152 W at ~35%
// utilization behind PCIe stalls; B: 232 W saturated with transposes;
// C: 211 W saturated without transpose power).
type TitanPower struct {
	IdleWatts float64
	// BaseDyn is drawn whenever the card is out of idle states.
	BaseDyn float64
	// SMMax is the additional draw at full SM utilization.
	SMMax float64
	// MemMax is the additional draw at full memory-bandwidth use.
	MemMax float64
}

// GTXTitanPower returns the calibrated curve.
func GTXTitanPower() TitanPower {
	return TitanPower{IdleWatts: 74, BaseDyn: 55, SMMax: 145, MemMax: 45}
}

// TitanBusWatts is the additional dynamic draw of a saturated PCIe
// interface and host-side copy engines (Titan A keeps them busy; the
// integrated Titan B/C platforms do not).
const TitanBusWatts = 60.0

// Dynamic reports dynamic watts at the given utilizations (each in
// [0,1]).
func (p TitanPower) Dynamic(smUtil, memUtil float64) float64 {
	return p.BaseDyn + p.SMMax*clamp01(smUtil) + p.MemMax*clamp01(memUtil)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ScalingAssumptions carries §6.2's stated per-core dynamic power.
type ScalingAssumptions struct {
	ARMCoreWatts float64 // 1 W per 1.2 GHz ARM core
	I5CoreWatts  float64 // 10 W per i5 core
}

// PaperScaling returns the §6.2 assumptions.
func PaperScaling() ScalingAssumptions {
	return ScalingAssumptions{ARMCoreWatts: 1, I5CoreWatts: 10}
}

// ScaleOut computes how many single-thread cores are needed to match a
// target throughput (idealistically assuming linear scaling, as §6.2
// does) and the power headroom left for the uncore.
type ScaleOut struct {
	Cores        int
	CoreWatts    float64
	TargetWatts  float64 // the Rhythm platform's dynamic watts
	UncoreBudget float64 // TargetWatts - Cores*CoreWatts
}

// ScaleToMatch sizes a scaled many-core system: perCoreThroughput is one
// core's reqs/sec, target the Rhythm throughput to match, coreWatts the
// per-core dynamic power, rhythmWatts the Rhythm platform's dynamic
// power.
func ScaleToMatch(perCoreThroughput, target, coreWatts, rhythmWatts float64) ScaleOut {
	if perCoreThroughput <= 0 {
		panic("platform: per-core throughput must be positive")
	}
	n := int(target/perCoreThroughput + 0.9999)
	total := float64(n) * coreWatts
	return ScaleOut{
		Cores:        n,
		CoreWatts:    total,
		TargetWatts:  rhythmWatts,
		UncoreBudget: rhythmWatts - total,
	}
}
