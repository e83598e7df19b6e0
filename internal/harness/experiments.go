package harness

import (
	"fmt"
	"math"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/httpx"
	"rhythm/internal/netmodel"
	"rhythm/internal/pipeline"
	"rhythm/internal/platform"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/trace"
)

// Table1 reproduces the platform inventory (Table 1).
func Table1() *Table {
	t := &Table{
		Title:   "Table 1: Experimental System Platforms",
		Headers: []string{"Platform", "GHz", "Description"},
	}
	t.AddRow("Core i5", "3.4", "Core i5 3570, 22 nm, 4 cores (4 threads)")
	t.AddRow("Core i7", "3.4", "Core i7 3770, 22 nm, 4 cores (8 threads)")
	t.AddRow("ARM A9", "1.2", "OMAP 4460, 45 nm, Panda board, 2 cores")
	t.AddRow("Titan", "0.8", "GTX Titan, 28 nm, 14 SMs, 6GB GDDR5, modeled by internal/simt")
	return t
}

// Table2Result carries the measured workload characterization.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one request type's measured characterization next to the
// paper's published values.
type Table2Row struct {
	Type       banking.ReqType
	Instr      float64 // measured, this implementation
	PaperInstr int64
	ContentKB  float64
	RhythmKB   int
	MixPercent float64
	Backends   int
}

// Table2 measures the workload: instructions per request averaged over
// random requests (the paper averaged 100), response sizes, mix, and
// backend round trips.
func Table2(cfg Config) Table2Result {
	var res Table2Result
	db := backend.New()
	bank := banking.NewWorkload()
	sessions, gen := pipeline.NewPopulation(cfg.Seed, cfg.population(), 200*int(banking.NumTypes))
	for _, rt := range banking.CoreTypes() {
		var instr int64
		var content int64
		const n = 100
		for i := 0; i < n; i++ {
			req, err := httpx.Parse(gen.Request(rt))
			if err != nil {
				panic(err)
			}
			ctx := bank.Execute(int(rt), &req, sessions, db, true)
			if ctx.Err != "" {
				panic(fmt.Sprintf("table2: %s failed: %s", rt, ctx.Err))
			}
			instr += ctx.Instr()
			content += int64(ctx.Page.Len())
		}
		s := banking.SpecFor(rt)
		res.Rows = append(res.Rows, Table2Row{
			Type:       rt,
			Instr:      float64(instr) / n,
			PaperInstr: s.PaperInstr,
			ContentKB:  float64(content) / n / 1024,
			RhythmKB:   s.RhythmKB,
			MixPercent: s.MixPercent,
			Backends:   s.Backends,
		})
	}
	return res
}

// Render formats the Table 2 reproduction.
func (r Table2Result) Render() *Table {
	t := &Table{
		Title:   "Table 2: SPECWeb Banking Workload (measured vs paper)",
		Caption: "instr = this implementation's structural count; paper = Pin-measured x86 count",
		Headers: []string{"Request", "Instr", "PaperInstr", "Ratio", "Content KB", "Rhythm KB", "Mix %", "Backends"},
	}
	var wInstr, wPaper float64
	for _, row := range r.Rows {
		t.AddRow(row.Type.String(), f0(row.Instr), fmt.Sprint(row.PaperInstr),
			f2(row.Instr/float64(row.PaperInstr)), f1(row.ContentKB),
			fmt.Sprint(row.RhythmKB), f2(row.MixPercent), fmt.Sprint(row.Backends))
		wInstr += row.Instr * row.MixPercent / 100
		wPaper += float64(row.PaperInstr) * row.MixPercent / 100
	}
	t.AddRow("average (mix)", f0(wInstr), f0(wPaper), f2(wInstr/wPaper),
		f1(banking.AvgContentBytes()/1024), f1(banking.AvgBufferBytes()/1024), "100.00",
		f2(banking.AvgBackends()))
	return t
}

// Table3Result bundles every platform's run.
type Table3Result struct {
	CPUs   []PlatformRun
	Titans []PlatformRun
}

// All returns every run, CPU first, Titans last (Table 3 row order).
func (r Table3Result) All() []PlatformRun {
	return append(append([]PlatformRun{}, r.CPUs...), r.Titans...)
}

// find returns the named run.
func (r Table3Result) find(name string) PlatformRun {
	for _, run := range r.All() {
		if run.Name == name {
			return run
		}
	}
	panic("harness: no run named " + name)
}

// Table3 runs the main experiment: every platform configuration of
// Table 3 over the full workload.
func Table3(cfg Config) Table3Result {
	var res Table3Result
	cpuConfigs := []struct {
		cpu     platform.CPU
		workers int
	}{
		{platform.CoreI5(), 1},
		{platform.CoreI5(), 4},
		{platform.CoreI7(), 4},
		{platform.CoreI7(), 8},
		{platform.ARMCortexA9(), 1},
		{platform.ARMCortexA9(), 2},
	}
	// Every platform run is independent (private engines throughout), so
	// the nine Table 3 rows fan out across host workers; fixed slots keep
	// the row order (and rendered table) identical to a serial run.
	platforms := []service.Platform{service.TitanA, service.TitanB, service.TitanC}
	res.CPUs = make([]PlatformRun, len(cpuConfigs))
	res.Titans = make([]PlatformRun, len(platforms))
	forEach(cfg.hostWorkers(), len(cpuConfigs)+len(platforms), func(i int) {
		if i < len(cpuConfigs) {
			c := cpuConfigs[i]
			res.CPUs[i] = RunCPU(cfg, c.cpu, c.workers)
		} else {
			p := platforms[i-len(cpuConfigs)]
			res.Titans[i-len(cpuConfigs)] = RunTitan(cfg, TitanRunOptions{Platform: p})
		}
	})
	return res
}

// paperTable3 is the paper's published Table 3, for side-by-side output.
var paperTable3 = map[string][4]float64{ // latencyMs, throughputK, wallEff, dynEff
	"Core i5 1w": {0.016, 75, 972, 3283},
	"Core i5 4w": {0.016, 282, 2447, 4712},
	"Core i7 4w": {0.014, 331, 1901, 2735},
	"Core i7 8w": {0.014, 377, 2042, 2873},
	"ARM A9 1w":  {0.176, 8, 1672, 4061},
	"ARM A9 2w":  {0.176, 16, 2683, 4830},
	"Titan A":    {86, 398, 1469, 2193},
	"Titan B":    {24, 1535, 3329, 4410},
	"Titan C":    {10, 3082, 9070, 12264},
}

// Render formats the Table 3 reproduction with the paper's numbers
// alongside.
func (r Table3Result) Render() *Table {
	t := &Table{
		Title:   "Table 3: SPECWeb Banking results (measured | paper)",
		Caption: "Throughput in KReqs/s; efficiency in reqs/Joule; latency is mean",
		Headers: []string{"Platform", "Idle W", "Wall W", "Dyn W", "Lat ms", "KReq/s", "eff(wall)", "eff(dyn)", "| paper KReq/s", "paper eff(dyn)"},
	}
	for _, run := range r.All() {
		p := paperTable3[run.Name]
		t.AddRow(run.Name, f0(run.IdleW), f0(run.WallW), f1(run.DynW),
			f3(run.LatencyMs), f0(run.Throughput/1e3), f0(run.WallEff), f0(run.DynEff),
			f0(p[1]), f0(p[3]))
	}
	return t
}

// Fig2Result is the request-similarity study.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2Row is one bar of Fig 2.
type Fig2Row struct {
	Type    banking.ReqType
	Traces  int // unique traces merged
	Speedup float64
	Norm    float64 // speedup / ideal, the figure's y-axis
}

// Fig2 reproduces the trace-merge study (§2.3): capture basic-block
// traces for independent requests of each type, merge the unique ones,
// and report speedup relative to ideal.
func Fig2(cfg Config) Fig2Result {
	var res Fig2Result
	db := backend.New()
	bank := banking.NewWorkload()
	sessions, gen := pipeline.NewPopulation(cfg.Seed, cfg.population(), cfg.TraceRequests*int(banking.NumTypes))
	for _, rt := range banking.CoreTypes() {
		var traces []trace.Trace
		for i := 0; i < cfg.TraceRequests; i++ {
			req, err := httpx.Parse(gen.Request(rt))
			if err != nil {
				panic(err)
			}
			ctx := bank.Execute(int(rt), &req, sessions, db, true)
			if ctx.Err != "" {
				panic(fmt.Sprintf("fig2: %s failed: %s", rt, ctx.Err))
			}
			traces = append(traces, trace.Trace(ctx.Page.Blocks()))
		}
		uniq := trace.Unique(traces)
		// The paper merges 2-6 unique traces per type; cap similarly.
		if len(uniq) > 6 {
			uniq = uniq[:6]
		}
		a := trace.Analyze(uniq)
		res.Rows = append(res.Rows, Fig2Row{
			Type:    rt,
			Traces:  a.Traces,
			Speedup: a.Speedup(),
			Norm:    a.NormalizedSpeedup(),
		})
	}
	return res
}

// Render formats Fig 2.
func (r Fig2Result) Render() *Table {
	t := &Table{
		Title:   "Fig 2: Potential speedup on data-parallel hardware, relative to ideal",
		Caption: "paper observes nearly linear (norm ~1.0) for every request type",
		Headers: []string{"Request", "Unique traces", "Speedup", "Normalized"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Type.String(), fmt.Sprint(row.Traces), f2(row.Speedup), f3(row.Norm))
	}
	return t
}

// Fig8Row is one point of the throughput-efficiency scatter.
type Fig8Row struct {
	Platform string
	NormTput float64 // vs Core i7 8w
	NormEff  float64 // vs ARM A9 2w
}

// Fig8 derives the Fig 8 scatter (wall or dynamic power view) from a
// Table 3 result.
func Fig8(r Table3Result, dynamic bool) []Fig8Row {
	i7 := r.find("Core i7 8w")
	a9 := r.find("ARM A9 2w")
	var rows []Fig8Row
	for _, run := range r.All() {
		eff, ref := run.WallEff, a9.WallEff
		if dynamic {
			eff, ref = run.DynEff, a9.DynEff
		}
		rows = append(rows, Fig8Row{
			Platform: run.Name,
			NormTput: run.Throughput / i7.Throughput,
			NormEff:  eff / ref,
		})
	}
	return rows
}

// inRegion reports whether the point is in the desired region: at least
// the i7's throughput at at least the A9's efficiency.
func (row Fig8Row) inRegion() bool { return row.NormEff >= 1 && row.NormTput >= 1 }

// RenderFig8 formats one Fig 8 panel.
func RenderFig8(rows []Fig8Row, dynamic bool) *Table {
	name := "8a (wall power)"
	if dynamic {
		name = "8b (dynamic power)"
	}
	t := &Table{
		Title:   "Fig " + name + ": throughput vs efficiency",
		Caption: "x: efficiency normalized to ARM A9 2w; y: throughput normalized to Core i7 8w; desired region is x>=1, y>=1",
		Headers: []string{"Platform", "Norm efficiency (x)", "Norm throughput (y)", "In desired region"},
	}
	for _, row := range rows {
		in := "no"
		if row.inRegion() {
			in = "YES"
		}
		t.AddRow(row.Platform, f2(row.NormEff), f2(row.NormTput), in)
	}
	return t
}

// fig8Metrics reports each Table 3 run as Figure 8 plots it, in both
// power views, with the mean latency it pays, and how many runs land in
// the desired region of each view.
func fig8Metrics(r Table3Result) []Metric {
	wall, dyn := Fig8(r, false), Fig8(r, true)
	var ms []Metric
	var inWall, inDyn float64
	for i, run := range r.All() {
		ms = append(ms,
			Metric{run.Name + "/norm_throughput", dyn[i].NormTput},
			Metric{run.Name + "/norm_eff_wall", wall[i].NormEff},
			Metric{run.Name + "/norm_eff_dyn", dyn[i].NormEff},
			Metric{run.Name + "/latency_ms", run.LatencyMs})
		if wall[i].inRegion() {
			inWall++
		}
		if dyn[i].inRegion() {
			inDyn++
		}
	}
	return append(ms, Metric{"desired_region/platforms_wall", inWall}, Metric{"desired_region/platforms_dyn", inDyn})
}

// Fig9Row compares Titan A's achieved throughput to its PCIe 3.0 bound
// for one request type.
type Fig9Row struct {
	Type     banking.ReqType
	Achieved float64
	Bound    float64
	Fraction float64
}

// Fig9 reproduces the PCIe limitation study from a Titan A run.
func Fig9(titanA PlatformRun) []Fig9Row {
	var rows []Fig9Row
	for _, pt := range titanA.PerType {
		bound := netmodel.PCIeBound(pt.Type, netmodel.PCIe3Bps)
		rows = append(rows, Fig9Row{
			Type:     pt.Type,
			Achieved: pt.Throughput,
			Bound:    bound,
			Fraction: pt.Throughput / bound,
		})
	}
	return rows
}

// RenderFig9 formats Fig 9.
func RenderFig9(rows []Fig9Row) *Table {
	t := &Table{
		Title:   "Fig 9: Titan A achieved vs PCIe 3.0 bound",
		Caption: "paper achieves 83-95% of the bound (chunked transfers); an event-driven bus model tracks the bound more closely",
		Headers: []string{"Request", "Achieved KReq/s", "PCIe bound KReq/s", "Fraction"},
	}
	for _, row := range rows {
		t.AddRow(row.Type.String(), kilo(row.Achieved), kilo(row.Bound), f2(row.Fraction))
	}
	return t
}

// Fig10Row is one request type's Titan B point.
type Fig10Row struct {
	Type     banking.ReqType
	NormTput float64 // per-type, vs Core i7 8w
	NormEff  float64 // per-type dynamic efficiency vs ARM A9 2w
	PadRatio float64 // Rhythm buffer / content size (padding overhead)
}

// Fig10 derives the per-type Titan B throughput-efficiency analysis.
// Per-type dynamic efficiency uses the platform's dynamic watts with the
// type's own throughput, matching the paper's per-request-type reading.
func Fig10(r Table3Result) []Fig10Row {
	i7 := r.find("Core i7 8w")
	a9 := r.find("ARM A9 2w")
	tb := r.find("Titan B")
	perType := func(run PlatformRun, rt banking.ReqType) PerType {
		for _, pt := range run.PerType {
			if pt.Type == rt {
				return pt
			}
		}
		panic("harness: missing type in run")
	}
	var rows []Fig10Row
	for _, pt := range tb.PerType {
		s := banking.SpecFor(pt.Type)
		i7t := perType(i7, pt.Type).Throughput
		a9t := perType(a9, pt.Type).Throughput
		rows = append(rows, Fig10Row{
			Type:     pt.Type,
			NormTput: pt.Throughput / i7t,
			NormEff:  (pt.Throughput / tb.DynW) / (a9t / a9.DynW),
			PadRatio: float64(s.BufferBytes()) / float64(s.ContentBytes()),
		})
	}
	return rows
}

// correlation is the Pearson correlation coefficient of xs and ys.
func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx, sy = sx+xs[i], sy+ys[i]
		sxx, syy, sxy = sxx+xs[i]*xs[i], syy+ys[i]*ys[i], sxy+xs[i]*ys[i]
	}
	return (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
}

// RenderFig10 formats Fig 10.
func RenderFig10(rows []Fig10Row) *Table {
	t := &Table{
		Title:   "Fig 10: Titan B per-request-type throughput-efficiency (dynamic power)",
		Caption: "paper: types whose buffer is close to the content size (low pad ratio) do best (3.5-5x i7, 105-120% of ARM)",
		Headers: []string{"Request", "Tput vs i7 8w", "Dyn eff vs A9 2w", "Pad ratio (buffer/content)"},
	}
	for _, row := range rows {
		t.AddRow(row.Type.String(), f2(row.NormTput), f2(row.NormEff), f2(row.PadRatio))
	}
	return t
}

// ScalingResult is the §6.2 many-core comparison.
type ScalingResult struct {
	Rows []ScalingRow
}

// ScalingRow sizes one scaled system against one Rhythm platform.
type ScalingRow struct {
	Target string // Titan B or C
	Core   string // ARM or i5
	Scale  platform.ScaleOut
}

// Scaling reproduces §6.2: the single-thread core counts needed to match
// Titan B and C throughput and the uncore power left over.
func Scaling(r Table3Result) ScalingResult {
	assume := platform.PaperScaling()
	armPerCore := r.find("ARM A9 1w").Throughput
	i5PerCore := r.find("Core i5 1w").Throughput
	var res ScalingResult
	for _, target := range []string{"Titan B", "Titan C"} {
		run := r.find(target)
		res.Rows = append(res.Rows,
			ScalingRow{target, "ARM A9", platform.ScaleToMatch(armPerCore, run.Throughput, assume.ARMCoreWatts, run.DynW)},
			ScalingRow{target, "Core i5", platform.ScaleToMatch(i5PerCore, run.Throughput, assume.I5CoreWatts, run.DynW)},
		)
	}
	return res
}

// metrics reports the core counts and the power left over for each
// match, and each Titan's dynamic watts.
func (r ScalingResult) metrics() []Metric {
	var ms []Metric
	for i, row := range r.Rows {
		if i%2 == 0 {
			ms = append(ms, Metric{row.Target + "/dyn_w", row.Scale.TargetWatts})
		}
		ms = append(ms,
			Metric{row.Target + "/" + row.Core + "/cores", float64(row.Scale.Cores)},
			Metric{row.Target + "/" + row.Core + "/headroom_w", row.Scale.UncoreBudget})
	}
	return ms
}

// Render formats the scaling study. The "budget" column reads two ways,
// as in the paper: positive = power left in the Rhythm envelope for the
// scaled system's uncore (Titan B rows, paper: 40 W ARM / 22 W i5);
// negative = power the scaled system needs beyond Rhythm's — the margin
// Rhythm has to implement the transpose unit and still win (Titan C
// rows, paper: >170 W).
func (r ScalingResult) Render() *Table {
	t := &Table{
		Title:   "Sec 6.2: Scaling many-core processors to match Rhythm",
		Caption: "paper: 192 ARM / 21 i5 cores match Titan B (40 W / 22 W uncore headroom); 385 ARM for Titan C (>170 W margin for the transpose unit)",
		Headers: []string{"Match", "Core type", "Cores needed", "Core W", "Rhythm dyn W", "Headroom W", "Reading"},
	}
	for _, row := range r.Rows {
		reading := "uncore budget in Rhythm's envelope"
		if row.Scale.UncoreBudget < 0 {
			reading = "Rhythm margin vs the scaled system"
		}
		t.AddRow(row.Target, row.Core, fmt.Sprint(row.Scale.Cores),
			f0(row.Scale.CoreWatts), f0(row.Scale.TargetWatts), f0(row.Scale.UncoreBudget), reading)
	}
	return t
}

// ResourceResult is the §6.3 bandwidth and memory analysis.
type ResourceResult struct {
	Titans     []PlatformRun
	Compressed float64 // Titan C's Gbps with 80% compression
	SessionsMB int64   // 16M live sessions
	ArrayGB    float64 // a 64M-slot session array (25% load)
	Cohorts    int     // cohorts of 4096 fitting a 6 GB Titan
}

// Resources reproduces §6.3 from measured throughputs.
func Resources(r Table3Result) ResourceResult {
	return ResourceResult{
		Titans:     r.Titans,
		Compressed: netmodel.CompressedGbps(r.find("Titan C").Throughput, 0.8),
		SessionsMB: netmodel.SessionMemory(16<<20) >> 20,
		ArrayGB:    float64(netmodel.SessionMemory(64<<20)) / (1 << 30),
		Cohorts:    netmodel.MaxCohortsInFlight(6<<30, 64<<20, banking.AccountSummary, 4096),
	}
}

func (r ResourceResult) metrics() []Metric {
	var ms []Metric
	for _, run := range r.Titans {
		ms = append(ms, Metric{run.Name + "/network_gbps", netmodel.NetworkGbps(run.Throughput)})
	}
	return append(ms,
		Metric{"Titan C/compressed_gbps", r.Compressed},
		Metric{"sessions_16M/mb", float64(r.SessionsMB)},
		Metric{"session_array_64M/gb", r.ArrayGB},
		Metric{"cohorts_4096_in_6GB/count", float64(r.Cohorts)})
}

// Render formats the resource analysis.
func (r ResourceResult) Render() *Table {
	t := &Table{
		Title:   "Sec 6.3: System resource requirements",
		Headers: []string{"Quantity", "Value"},
	}
	for _, run := range r.Titans {
		t.AddRow(run.Name+" network bandwidth", fmt.Sprintf("%.0f Gbps at %.0fK reqs/s (paper: 67/258/517)", netmodel.NetworkGbps(run.Throughput), run.Throughput/1e3))
	}
	t.AddRow("Titan C with 80% compression", fmt.Sprintf("%.0f Gbps (fits the IEEE 802.3bj 100 Gbps link)", r.Compressed))
	t.AddRow("Session array, 16M live sessions", fmt.Sprintf("%d MB at %d B/session", r.SessionsMB, session.NodeBytes))
	t.AddRow("Session array, 64M slots (25% load)", fmt.Sprintf("%.1f GB", r.ArrayGB))
	t.AddRow("Cohorts of 4096 fitting a 6 GB Titan", fmt.Sprintf("%d (paper: 8)", r.Cohorts))
	return t
}
