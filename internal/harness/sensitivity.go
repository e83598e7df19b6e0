package harness

import (
	"fmt"

	"rhythm/internal/banking"
	"rhythm/internal/netmodel"
	"rhythm/internal/pipeline"
	"rhythm/internal/platform"
	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// CohortSizeRow is one point of the §6.4 cohort-size sensitivity study.
type CohortSizeRow struct {
	Size       int
	Throughput float64
	LatencyMs  float64
	MemoryMB   float64 // device memory for the in-flight cohorts
	DynW       float64
}

// CohortSweep runs Titan B (account_summary isolation) across cohort
// sizes. The paper swept 256-8192 and picked 4096 as the balance of
// throughput against memory and latency (§6.4).
func CohortSweep(cfg Config, sizes []int) []CohortSizeRow {
	rows := make([]CohortSizeRow, len(sizes))
	// Each sweep point builds a private engine and device; run them
	// concurrently, assembled in size order.
	forEach(cfg.hostWorkers(), len(sizes), func(i int) {
		size := sizes[i]
		c := cfg
		c.CohortSize = size
		// Hold total requests roughly constant across sizes.
		c.GPUCohortsPerType = cfg.GPUCohortsPerType * cfg.CohortSize / size
		if c.GPUCohortsPerType < 2 {
			c.GPUCohortsPerType = 2
		}
		run := RunTitan(c, TitanRunOptions{Platform: service.TitanB, Types: []banking.ReqType{banking.AccountSummary}})
		pt := run.PerType[0]
		rows[i] = CohortSizeRow{
			Size:       size,
			Throughput: pt.Throughput,
			LatencyMs:  pt.LatencyMs,
			MemoryMB:   float64(int64(c.MaxCohorts)*banking.CohortDeviceBytes(banking.AccountSummary, size)) / (1 << 20),
			DynW:       run.DynW,
		}
	})
	return rows
}

// RenderCohortSweep formats the sweep.
func RenderCohortSweep(rows []CohortSizeRow) *Table {
	t := &Table{
		Title:   "Sec 6.4: Cohort size sensitivity (Titan B, account_summary)",
		Caption: "paper: larger cohorts raise throughput and memory; 4096 is the sweet spot",
		Headers: []string{"Cohort size", "KReq/s", "Mean latency ms", "Device memory MB"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Size), kilo(r.Throughput), f2(r.LatencyMs), f0(r.MemoryMB))
	}
	return t
}

// ParserResult is the §6.4 parser-divergence study.
type ParserResult struct {
	CohortSize       int
	SingleLatencyUs  float64
	SingleThroughput float64
	MixedLatencyUs   float64
	MixedThroughput  float64
	MixedDivergent   int64 // divergent block executions in the mixed parse
}

// ParserStudy measures parser throughput for a single-type cohort versus
// a realistic mixed-trace cohort (the paper measures 556 µs / 7.4M
// reqs/s for a mixed cohort of 4096, §6.4).
func ParserStudy(cfg Config) ParserResult {
	res := ParserResult{CohortSize: cfg.CohortSize}
	res.SingleLatencyUs, res.SingleThroughput, _ = parseOnce(cfg, false)
	res.MixedLatencyUs, res.MixedThroughput, res.MixedDivergent = parseOnce(cfg, true)
	return res
}

func parseOnce(cfg Config, mixed bool) (latUs, tput float64, divergent int64) {
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 4*cfg.CohortSize*banking.RequestSlot+32<<20, nil)
	_, gen := pipeline.NewPopulation(cfg.Seed, cfg.population(), cfg.CohortSize)
	raws := make([][]byte, cfg.CohortSize)
	for i := range raws {
		if mixed {
			raws[i], _ = gen.Mixed()
		} else {
			raws[i] = gen.Request(banking.AccountSummary)
		}
	}
	pb := banking.NewParseBatch(dev, cfg.CohortSize)
	pb.Reset(cfg.CohortSize)
	stream := dev.NewStream()
	stream.MemcpyH2D(pb.Buf, banking.PackRequests(nil, raws), nil)
	stream.Transpose(pb.ColBuf, pb.Buf, pb.Size, banking.RequestSlot/4, 4, nil)
	start := eng.Now()
	var ls simt.LaunchStats
	stream.Launch(banking.NewParserProgram(banking.ParserArgs{Batch: pb, ColMajor: true}), cfg.CohortSize,
		func(s simt.LaunchStats) { ls = s })
	eng.Run()
	elapsed := eng.Now() - start
	latUs = elapsed.Micros()
	if elapsed > 0 {
		tput = float64(cfg.CohortSize) / elapsed.Seconds()
	}
	return latUs, tput, ls.DivergentExec
}

// RenderParser formats the parser study.
func RenderParser(r ParserResult) *Table {
	t := &Table{
		Title:   "Sec 6.4: Parser divergence (cohort of mixed request types)",
		Caption: "paper: 556 us per mixed cohort of 4096 (7.4M reqs/s) - fast enough to feed the pipeline",
		Headers: []string{"Cohort", "Latency us", "Parser MReq/s", "Divergent block execs"},
	}
	t.AddRow(fmt.Sprintf("single-type (%d)", r.CohortSize), f1(r.SingleLatencyUs), f2(r.SingleThroughput/1e6), "0")
	t.AddRow(fmt.Sprintf("mixed (%d)", r.CohortSize), f1(r.MixedLatencyUs), f2(r.MixedThroughput/1e6), fmt.Sprint(r.MixedDivergent))
	return t
}

// HyperQResult compares the single-work-queue GTX690 against the
// 32-queue GTX Titan (§6.4).
type HyperQResult struct {
	SingleQueue PlatformRun
	HyperQ      PlatformRun
}

// HyperQ runs the Titan A configuration (whose copies and kernels share
// the bus and compute engine, so queue false dependencies bite) on both
// devices. To isolate the queue effect the 690 model keeps the Titan's
// SM count and clock — only Queues differs.
func HyperQ(cfg Config) HyperQResult {
	single := simt.GTXTitan()
	single.Name = "GTX Titan (1 queue)"
	single.Queues = 1
	types := []banking.ReqType{banking.AccountSummary, banking.Login}
	return HyperQResult{
		SingleQueue: RunTitan(cfg, TitanRunOptions{Platform: service.TitanA, DeviceConfig: &single, Types: types}),
		HyperQ:      RunTitan(cfg, TitanRunOptions{Platform: service.TitanA, Types: types}),
	}
}

// Render formats the HyperQ study.
func (r HyperQResult) Render() *Table {
	t := &Table{
		Title:   "Sec 6.4: HyperQ (hardware work queues)",
		Caption: "paper: a single work queue created false dependencies among process kernels, limiting throughput",
		Headers: []string{"Device", "KReq/s", "Mean latency ms"},
	}
	t.AddRow("1 hardware queue (GTX690-style)", kilo(r.SingleQueue.Throughput), f2(r.SingleQueue.LatencyMs))
	t.AddRow("32 hardware queues (HyperQ)", kilo(r.HyperQ.Throughput), f2(r.HyperQ.LatencyMs))
	return t
}

// PCIe4Result is the §6.1.1 projection: Titan A moved to a PCIe 4.0 bus.
type PCIe4Result struct {
	PCIe3 PlatformRun
	PCIe4 PlatformRun
}

// PCIe4Projection reruns Titan A with the bus bandwidth doubled. The
// paper projects "Titan A's throughput to 864K reqs/s" and notes that
// "even at 25 GB/s, the PCIe bus is still a bottleneck" — the run
// confirms both: throughput roughly doubles and bus utilization stays
// pinned.
func PCIe4Projection(cfg Config) PCIe4Result {
	return PCIe4Result{
		PCIe3: RunTitan(cfg, TitanRunOptions{Platform: service.TitanA}),
		PCIe4: RunTitan(cfg, TitanRunOptions{Platform: service.TitanA, BusBps: netmodel.PCIe4Bps}),
	}
}

// busUtil is a run's mix-weighted bus utilization.
func busUtil(run PlatformRun) float64 {
	var acc, w float64
	for _, pt := range run.PerType {
		acc += pt.BusUtil * banking.SpecFor(pt.Type).MixPercent
		w += banking.SpecFor(pt.Type).MixPercent
	}
	return acc / w
}

// Render formats the projection.
func (r PCIe4Result) Render() *Table {
	t := &Table{
		Title:   "Sec 6.1.1: Titan A on PCIe 4.0 (projection)",
		Caption: "paper: PCIe 4.0 'could increase Titan A's throughput to 864K reqs/s ... still a bottleneck'",
		Headers: []string{"Bus", "KReq/s", "Mean bus utilization", "Speedup"},
	}
	t.AddRow("PCIe 3.0 (12 GB/s)", kilo(r.PCIe3.Throughput), f2(busUtil(r.PCIe3)), "1.00x")
	t.AddRow("PCIe 4.0 (24 GB/s)", kilo(r.PCIe4.Throughput), f2(busUtil(r.PCIe4)),
		f2(r.PCIe4.Throughput/r.PCIe3.Throughput)+"x")
	return t
}

// CPUSIMDResult is the §6.4 "CPU based SIMD implementations" design
// point the paper flags as future work: Rhythm cohorts executed in AVX
// vectors on the Core i7 itself.
type CPUSIMDResult struct {
	Scalar PlatformRun // the event-based i7 baseline (8 workers)
	SIMD   PlatformRun // cohorts in 8-lane vectors on the same chip
	// ComputeBound / MemoryBound are the analytic rooflines of the SIMD
	// configuration (reqs/sec), showing which wall it hits.
	ComputeBound float64
	MemoryBound  float64
}

// CPUSIMDStudy runs the comparison. The SIMD platform uses the Titan B
// topology (local backend, no PCIe) with the i7's vector geometry and
// power envelope.
func CPUSIMDStudy(cfg Config) CPUSIMDResult {
	i7 := platform.CoreI7()
	scalar := RunCPU(cfg, i7, 8)
	simdCfg := simt.CoreI7SIMD()
	power := &PowerModel{
		Idle: i7.IdleWatts,
		Dyn: func(sm, mu, bu float64) float64 {
			// Full-tilt AVX on all cores draws about the measured
			// 8-worker dynamic power.
			base := i7.Dynamic(8)
			u := sm
			if mu > u {
				u = mu
			}
			return base * (0.25 + 0.75*u)
		},
	}
	simd := RunTitan(cfg, TitanRunOptions{
		Platform:     service.TitanB,
		DeviceConfig: &simdCfg,
		Power:        power,
	})
	// Rooflines: vector issue slots × lanes over mix instructions, and
	// memory bandwidth over the bytes each response moves (store +
	// transpose in and out).
	var instr, bytes float64
	for _, s := range banking.Specs {
		w := s.MixPercent / 100
		instr += w * float64(s.PaperInstr)
		bytes += w * 3 * float64(s.BufferBytes())
	}
	issue := float64(simdCfg.SMs*simdCfg.SchedulersPerSM) * simdCfg.ClockHz * float64(simdCfg.WarpSize)
	return CPUSIMDResult{
		Scalar:       scalar,
		SIMD:         simd,
		ComputeBound: issue / instr,
		MemoryBound:  simdCfg.MemBandwidth / bytes,
	}
}

// Render formats the CPU-SIMD study.
func (r CPUSIMDResult) Render() *Table {
	t := &Table{
		Title:   "Sec 6.4 (future work): CPU SIMD implementation of Rhythm",
		Caption: "cohorts in 8-lane AVX vectors on the Core i7 — amortizes fetch like the GPU, but commodity DRAM bandwidth becomes the wall",
		Headers: []string{"Configuration", "KReq/s", "Dyn W", "reqs/Joule (dyn)"},
	}
	t.AddRow("Core i7, event-based scalar (8 workers)", kilo(r.Scalar.Throughput), f1(r.Scalar.DynW), f0(r.Scalar.DynEff))
	t.AddRow("Core i7, Rhythm cohorts in AVX", kilo(r.SIMD.Throughput), f1(r.SIMD.DynW), f0(r.SIMD.DynEff))
	t.AddRow("  analytic compute roofline", kilo(r.ComputeBound), "", "")
	t.AddRow("  analytic memory-bandwidth roofline", kilo(r.MemoryBound), "", "")
	return t
}

// StragglerResult compares cohort tail latency with and without the
// §3.1 straggler timeout under a heavy-tailed remote backend.
type StragglerRow struct {
	Name       string
	Throughput float64
	MeanMs     float64
	P99Ms      float64
	Stragglers uint64
}

// StragglerStudy runs Titan A (remote backend) with a 3% chance of a
// 40 ms backend stall, with and without a 2 ms straggler deadline.
// Without the deadline every request in an affected cohort inherits the
// stall; with it, the cohort proceeds and the stragglers finish on the
// host.
func StragglerStudy(cfg Config) []StragglerRow {
	run := func(name string, timeout sim.Time) StragglerRow {
		mutate := func(o *pipeline.Options) {
			o.BackendTailProb = 0.03
			o.BackendTailFactor = 20000 // 2 µs base → 40 ms stall
			o.StragglerTimeout = timeout
		}
		r := RunTitan(cfg, TitanRunOptions{
			Platform: service.TitanA,
			Types:    []banking.ReqType{banking.BillPay},
			Mutate:   mutate,
		})
		pt := r.PerType[0]
		return StragglerRow{
			Name:       name,
			Throughput: pt.Throughput,
			MeanMs:     pt.LatencyMs,
			P99Ms:      pt.P99Ms,
			Stragglers: pt.Stragglers,
		}
	}
	return []StragglerRow{
		run("wait for stragglers (no deadline)", 0),
		run("2 ms straggler deadline, host re-execution", sim.Time(2_000_000)),
	}
}

// RenderStragglers formats the study.
func RenderStragglers(rows []StragglerRow) *Table {
	t := &Table{
		Title:   "Sec 3.1 (mechanism): straggler timeout under a heavy-tailed backend",
		Caption: "3% of backend lookups stall 40 ms; Rhythm either waits out the stall cohort-wide or sheds stragglers to the host CPU",
		Headers: []string{"Policy", "KReq/s", "Mean ms", "p99 ms", "Stragglers shed"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, kilo(r.Throughput), f2(r.MeanMs), f2(r.P99Ms), fmt.Sprint(r.Stragglers))
	}
	return t
}

// QuickPayResult is the quick_pay extension measurement: the
// variable-stage request the paper skipped (§5.1), next to bill_pay —
// the closest fixed-stage request — for context.
type QuickPayResult struct {
	QuickPay PlatformRun
	BillPay  PlatformRun
}

// QuickPayStudy runs both in isolation on Titan B.
func QuickPayStudy(cfg Config) QuickPayResult {
	return QuickPayResult{
		QuickPay: RunTitan(cfg, TitanRunOptions{Platform: service.TitanB, Types: []banking.ReqType{banking.QuickPay}}),
		BillPay:  RunTitan(cfg, TitanRunOptions{Platform: service.TitanB, Types: []banking.ReqType{banking.BillPay}}),
	}
}

// Render formats the study.
func (r QuickPayResult) Render() *Table {
	t := &Table{
		Title:   "Extension (Sec 5.1): quick_pay with variable kernel launches",
		Caption: "the paper skipped quick_pay ('a variable number of kernel launches based on backend data'); threads retire stage-by-stage as their payee lists drain",
		Headers: []string{"Request", "KReq/s", "Mean latency ms"},
	}
	t.AddRow("quick_pay (1-3 backend stages, data-dependent)", kilo(r.QuickPay.Throughput), f2(r.QuickPay.LatencyMs))
	t.AddRow("bill_pay (fixed 1 backend stage, reference)", kilo(r.BillPay.Throughput), f2(r.BillPay.LatencyMs))
	return t
}

// AblationResult is one design-choice ablation.
type AblationResult struct {
	Name     string
	Baseline PlatformRun
	Ablated  PlatformRun
}

// AblatePadding disables the §4.3.2 whitespace alignment.
func AblatePadding(cfg Config) AblationResult {
	types := []banking.ReqType{banking.AccountSummary}
	base := RunTitan(cfg, TitanRunOptions{Platform: service.TitanB, Types: types})
	ablated := RunTitan(cfg, TitanRunOptions{
		Platform: service.TitanB,
		Types:    types,
		Mutate:   func(o *pipeline.Options) { o.Padding = false },
	})
	return AblationResult{Name: "whitespace padding", Baseline: base, Ablated: ablated}
}

// AblateTranspose disables the column-major buffer transpose, leaving
// row-major buffers (§4.3.2's strawman).
func AblateTranspose(cfg Config) AblationResult {
	types := []banking.ReqType{banking.AccountSummary}
	base := RunTitan(cfg, TitanRunOptions{Platform: service.TitanB, Types: types})
	ablated := RunTitan(cfg, TitanRunOptions{
		Platform: service.TitanB,
		Types:    types,
		Mutate:   func(o *pipeline.Options) { o.ColMajor = false },
	})
	return AblationResult{Name: "buffer transpose (column-major layout)", Baseline: base, Ablated: ablated}
}

// RenderAblation formats one ablation.
func RenderAblation(r AblationResult) *Table {
	t := &Table{
		Title:   "Ablation: " + r.Name,
		Headers: []string{"Configuration", "KReq/s", "Mean latency ms"},
	}
	t.AddRow("with "+r.Name, kilo(r.Baseline.Throughput), f2(r.Baseline.LatencyMs))
	t.AddRow("without "+r.Name, kilo(r.Ablated.Throughput), f2(r.Ablated.LatencyMs))
	t.AddRow("speedup from "+r.Name, f2(r.Baseline.Throughput/r.Ablated.Throughput)+"x", "")
	return t
}

// IntraRequestResult compares inter-request SIMT execution (Rhythm's
// cohorts) against intra-request cooperation, which the paper found
// "performs poorly" because it cannot exploit cross-request similarity
// (§4.3.2).
type IntraRequestResult struct {
	InterThroughput float64
	IntraThroughput float64
}

// IntraVsInter models both mappings of account_summary generation onto
// the device: inter-request assigns one request per thread (a warp
// advances 32 requests per issued instruction); intra-request assigns one
// request per warp, so the sequential page-generation logic issues once
// per request and only the byte stores spread across lanes.
func IntraVsInter(cfg Config) IntraRequestResult {
	spec := banking.SpecFor(banking.AccountSummary)
	instr := int(spec.PaperInstr)
	bufWords := spec.BufferBytes() / 4
	// Use at least a paper-scale cohort: with a tiny cohort neither
	// mapping can fill the device and the comparison is about occupancy,
	// not about similarity.
	n := cfg.CohortSize
	if n < 2048 {
		n = 2048
	}

	run := func(prog simt.Program, threads int, requests int) float64 {
		eng := sim.NewEngine()
		dev := simt.NewDevice(eng, simt.GTXTitan(), 64<<20, nil)
		var dur sim.Time
		dev.NewStream().Launch(prog, threads, func(ls simt.LaunchStats) { dur = ls.Duration })
		eng.Run()
		return float64(requests) / dur.Seconds()
	}

	inter := simt.FuncProgram{Label: "inter", Body: func(t *simt.Thread) {
		t.Compute(instr) // lockstep: the warp issues these once for 32 requests
	}}
	intra := simt.FuncProgram{Label: "intra", Body: func(t *simt.Thread) {
		// Lane 0 runs the sequential page logic; other lanes only help
		// with stores, so the warp still issues the full instruction
		// stream per request.
		if t.Lane == 0 {
			t.Compute(instr)
		} else {
			t.Compute(bufWords / 32)
		}
	}}
	return IntraRequestResult{
		InterThroughput: run(inter, n, n),
		IntraThroughput: run(intra, n*32, n),
	}
}

// RenderIntra formats the mapping comparison.
func RenderIntra(r IntraRequestResult) *Table {
	t := &Table{
		Title:   "Ablation: inter-request vs intra-request parallelism",
		Caption: "paper: intra-request concurrency \"does not exploit the similarity in instruction control flow across requests and performs poorly\"",
		Headers: []string{"Mapping", "KReq/s (compute-only kernel)", "Relative"},
	}
	t.AddRow("inter-request (Rhythm cohorts)", kilo(r.InterThroughput), "1.00x")
	t.AddRow("intra-request (one request per warp)", kilo(r.IntraThroughput),
		f2(r.IntraThroughput/r.InterThroughput)+"x")
	return t
}

// TimeoutRow is one point of the cohort-formation-timeout study.
type TimeoutRow struct {
	Timeout    sim.Time
	Throughput float64
	LatencyMs  float64
	TimedOut   uint64
}

// TimeoutSweep measures the formation-timeout policy under a paced (not
// saturating) arrival stream, where partial cohorts actually occur:
// shorter timeouts cut latency but launch underfilled cohorts.
func TimeoutSweep(cfg Config, timeouts []sim.Time, arrivalRate float64) []TimeoutRow {
	var rows []TimeoutRow
	for _, to := range timeouts {
		po := titanOptions(cfg, service.TitanB)
		po.FormationTimeout = to
		n := cfg.gpuRequestsPerType()
		srv := pipeline.New(po, cfg.device(nil), 0, cfg.Seed, cfg.population(), n)
		gen := srv.Generator()

		// Paced arrivals at the given rate.
		interval := sim.Time(1e9 / arrivalRate)
		arrivals := make([]pipeline.Arrival, n)
		for i := range arrivals {
			arrivals[i] = pipeline.Arrival{
				Raw: gen.Request(banking.AccountSummary),
				At:  sim.Time(i) * interval,
			}
		}
		st := srv.RunPaced(arrivals)
		rows = append(rows, TimeoutRow{
			Timeout:    to,
			Throughput: st.Throughput(),
			LatencyMs:  st.Latency.Mean() / 1e6,
			TimedOut:   st.Cohort.TimedOut,
		})
	}
	return rows
}

// RenderTimeouts formats the timeout study.
func RenderTimeouts(rows []TimeoutRow) *Table {
	t := &Table{
		Title:   "Ablation: cohort formation timeout (paced arrivals)",
		Caption: "the mechanism of Sec 3.1; the value is a policy decision traded against latency",
		Headers: []string{"Timeout", "KReq/s", "Mean latency ms", "Cohorts timed out"},
	}
	for _, r := range rows {
		t.AddRow(r.Timeout.String(), kilo(r.Throughput), f2(r.LatencyMs), fmt.Sprint(r.TimedOut))
	}
	return t
}
