package harness

import (
	"fmt"
	"runtime"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/pipeline"
	"rhythm/internal/platform"
	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// PerType is one request type's isolation-run outcome on a platform.
type PerType struct {
	Type       banking.ReqType
	Throughput float64 // reqs/sec
	LatencyMs  float64
	P99Ms      float64
	AvgInstr   float64 // CPU runs only
	SMUtil     float64 // GPU runs only
	MemUtil    float64
	BusUtil    float64
	Validated  uint64
	ValFails   uint64
	Errors     uint64
	Stragglers uint64
}

// PlatformRun aggregates a platform's Table 3 row.
type PlatformRun struct {
	Name    string
	PerType []PerType
	IdleW   float64
	WallW   float64
	DynW    float64
	// Throughput is the mix-weighted harmonic mean of per-type rates —
	// the steady-state rate of the full Table 2 mix.
	Throughput float64
	LatencyMs  float64
	WallEff    float64 // reqs/Joule at wall power
	DynEff     float64 // reqs/Joule at dynamic power
}

// aggregate folds per-type results into workload-level numbers using the
// paper's §5.3.1 method, weighting each type by its Table 2 mix share.
func (r *PlatformRun) aggregate() {
	tputs := make([]float64, len(r.PerType))
	lats := make([]float64, len(r.PerType))
	weights := make([]float64, len(r.PerType))
	var wsum float64
	for i, pt := range r.PerType {
		tputs[i] = pt.Throughput
		lats[i] = pt.LatencyMs
		weights[i] = banking.SpecFor(pt.Type).MixPercent
		wsum += weights[i]
	}
	if wsum == 0 {
		// Extension-only runs (quick_pay) have no Table 2 mix share;
		// weight them equally.
		for i := range weights {
			weights[i] = 1
		}
	}
	r.Throughput = stats.WeightedHarmonicMean(tputs, weights)
	r.LatencyMs = stats.WeightedArithmeticMean(lats, weights)
	if r.WallW > 0 {
		r.WallEff = r.Throughput / r.WallW
	}
	if r.DynW > 0 {
		r.DynEff = r.Throughput / r.DynW
	}
}

// RunCPU measures one CPU platform configuration over every request type
// in isolation (§5.3.1).
func RunCPU(cfg Config, cpu platform.CPU, workers int) PlatformRun {
	cfg.validate()
	run := PlatformRun{
		Name:  fmt.Sprintf("%s %dw", cpu.Name, workers),
		IdleW: cpu.IdleWatts,
		WallW: cpu.Wall(workers),
		DynW:  cpu.Dynamic(workers),
	}
	// Each type's isolation run owns a private engine, database, session
	// array and generator, so the runs fan out across host workers;
	// results land in fixed per-type slots to keep output order stable.
	types := banking.CoreTypes()
	run.PerType = make([]PerType, len(types))
	forEach(cfg.hostWorkers(), len(types), func(i int) {
		rt := types[i]
		eng := sim.NewEngine()
		db := backend.New()
		sessions, gen := pipeline.NewPopulation(cfg.Seed, cfg.population(), cfg.CPURequestsPerType)
		srv := platform.NewCPUServer(eng, cpu, workers, db, sessions, cfg.ValidateEvery)
		res := srv.Run(isolationSource(gen, rt, cfg.CPURequestsPerType))
		run.PerType[i] = PerType{
			Type:       rt,
			Throughput: res.Throughput,
			LatencyMs:  res.MeanLatencyMs,
			P99Ms:      res.P99LatencyMs,
			AvgInstr:   res.AvgInstr,
			Validated:  res.Validated,
			ValFails:   res.ValidationFailures,
			Errors:     res.Errors,
		}
	})
	run.aggregate()
	return run
}

// titanOptions maps platform p onto pipeline options at cfg's scale.
func titanOptions(cfg Config, p service.Platform) pipeline.Options {
	return pipeline.Options{
		Variant:       service.Variant{Platform: p, Padding: true, ColMajor: true},
		CohortSize:    cfg.CohortSize,
		MaxCohorts:    cfg.MaxCohorts,
		ValidateEvery: cfg.ValidateEvery,
	}
}

// TitanRunOptions carries overrides for sensitivity/ablation studies.
type TitanRunOptions struct {
	Platform service.Platform
	// DeviceConfig overrides the GTX Titan (e.g., the single-queue
	// GTX690 for the HyperQ study).
	DeviceConfig *simt.Config
	// Mutate edits the pipeline options after platform mapping (padding
	// and layout ablations).
	Mutate func(*pipeline.Options)
	// Types restricts the run (nil = all 14).
	Types []banking.ReqType
	// BusBps overrides the host↔device bus bandwidth (0 = PCIe 3.0);
	// the §6.1.1 PCIe 4.0 projection sets it to netmodel.PCIe4Bps.
	BusBps float64
	// Power overrides the platform power model (idle watts and a dynamic
	// curve over SM/memory/bus utilizations). Nil uses the GTX Titan
	// curve. The CPU-SIMD study plugs in the i7's envelope.
	Power *PowerModel
}

// PowerModel is a platform power curve for RunTitan.
type PowerModel struct {
	Idle float64
	Dyn  func(smUtil, memUtil, busUtil float64) float64
}

// RunTitan measures a Rhythm platform over every request type in
// isolation and aggregates the Table 3 row, deriving power from the
// observed utilizations.
func RunTitan(cfg Config, opts TitanRunOptions) PlatformRun {
	cfg.validate()
	devCfg := cfg.device(opts.DeviceConfig)
	types := opts.Types
	if types == nil {
		types = banking.CoreTypes()
	}
	pm := opts.Power
	if pm == nil {
		titan := platform.GTXTitanPower()
		pm = &PowerModel{
			Idle: titan.IdleWatts,
			Dyn: func(sm, mu, bu float64) float64 {
				return titan.Dynamic(sm, mu) + platform.TitanBusWatts*bu
			},
		}
	}
	run := PlatformRun{Name: opts.Platform.String(), IdleW: pm.Idle}
	if opts.DeviceConfig != nil {
		run.Name = devCfg.Name
	}
	workers := cfg.hostWorkers()
	run.PerType = make([]PerType, len(types))
	smUtils := make([]float64, len(types))
	memUtils := make([]float64, len(types))
	busUtils := make([]float64, len(types))
	weights := make([]float64, len(types))
	forEach(workers, len(types), func(i int) {
		rt := types[i]
		if workers == 1 {
			// Each isolation run backs a fresh device store, 9 MiB at
			// the paper's 4096 × 8 (the reader's 4·4096·512 B and 1 MiB
			// of slack), and builds its own sessions, lanes and Besim;
			// serially, reclaim the previous run's before the next, so
			// a run holds one set at a time. Concurrent runs each hold
			// their own.
			runtime.GC()
		}
		pt := runTitanType(cfg, opts, devCfg, rt)
		run.PerType[i] = pt
		smUtils[i] = pt.SMUtil
		memUtils[i] = pt.MemUtil
		busUtils[i] = pt.BusUtil
		weights[i] = banking.SpecFor(rt).MixPercent
	})
	// Mix-weighted utilizations drive the power curve.
	sm := stats.WeightedArithmeticMean(smUtils, weights)
	mu := stats.WeightedArithmeticMean(memUtils, weights)
	bu := stats.WeightedArithmeticMean(busUtils, weights)
	run.DynW = pm.Dyn(sm, mu, bu)
	run.WallW = run.IdleW + run.DynW

	run.aggregate()
	return run
}

// runTitanType executes one isolation run on a fresh simulated Titan.
func runTitanType(cfg Config, opts TitanRunOptions, devCfg *simt.Config, rt banking.ReqType) PerType {
	po := titanOptions(cfg, opts.Platform)
	if opts.Mutate != nil {
		opts.Mutate(&po)
	}
	n := cfg.gpuRequestsPerType()
	srv := pipeline.New(po, devCfg, opts.BusBps, cfg.Seed, cfg.population(), n)
	st := srv.Run(isolationSource(srv.Generator(), rt, n))

	elapsed := (st.End - st.Start).Seconds()
	pt := PerType{
		Type:       rt,
		Throughput: st.Throughput(),
		LatencyMs:  st.Latency.Mean() / 1e6,
		P99Ms:      st.Latency.Percentile(99) / 1e6,
		SMUtil:     srv.DeviceUtilization(),
		BusUtil:    srv.BusUtilization(),
		Validated:  st.Validated,
		ValFails:   st.ValidationFailures,
		Errors:     st.Errors,
		Stragglers: st.Stragglers,
	}
	if elapsed > 0 {
		pt.MemUtil = float64(st.Device.MemBytes) / (devCfg.MemBandwidth * elapsed)
	}
	return pt
}

func isolationSource(gen *banking.Generator, rt banking.ReqType, n int) pipeline.Source {
	left := n
	return pipeline.FuncSource(func() ([]byte, bool) {
		if left == 0 {
			return nil, false
		}
		left--
		return gen.Request(rt), true
	})
}
