package harness

import (
	"fmt"
	"io"
	"math"

	"rhythm/internal/banking"
	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// Metric is one headline number an experiment reports; rhythm-bench
// -json writes one record per metric.
type Metric struct {
	Name  string
	Value float64
}

// Experiment is one entry of the evaluation, declared once in
// Experiments. rhythm-bench's usage text, its selectors, the -json
// stream, the committed BENCH_baseline.json, the Claims table and
// DESIGN.md §4 all follow this list.
type Experiment struct {
	Name string
	Ref  string // where the paper or DESIGN.md describes it
	Desc string // one line for the usage text
	// Pin fixes the geometry the committed numbers were taken at; scale
	// flags do not reach a pinned experiment. Nil runs at the caller's
	// configuration.
	Pin func(*Config)
	// Run prints the experiment's tables to s.Out and returns its
	// headline metrics.
	Run func(s *Session) []Metric
	// Gated puts the experiment in BENCH_baseline.json: CI reruns it at
	// the default configuration and compares every metric bitwise.
	Gated bool
}

// Session is what one rhythm-bench invocation hands each experiment it
// runs: the configuration, where tables go, and the Table 3 runs that
// five experiments derive their output from.
type Session struct {
	Cfg Config
	Out io.Writer
	t3  *Table3Result
}

// Run runs one experiment under its pinned geometry, if it has one.
func (s *Session) Run(e Experiment) []Metric {
	if e.Pin == nil {
		return e.Run(s)
	}
	pinned := *s
	e.Pin(&pinned.Cfg)
	return e.Run(&pinned)
}

// table3 runs the (expensive) Table 3 platforms once per session.
func (s *Session) table3() Table3Result {
	if s.t3 == nil {
		fmt.Fprintln(s.Out, "running Table 3 platforms (14 request types x 9 configurations)...")
		r := Table3(s.Cfg)
		s.t3 = &r
	}
	return *s.t3
}

// The selectors Select accepts beside experiment names.
const (
	SelectAll    = "all"    // every entry, in order
	SelectGated  = "gated"  // the entries BENCH_baseline.json holds
	SelectClaims = "claims" // every entry, judged against Claims
)

// Select resolves a name from the command line: one experiment or a
// selector. Unknown names return nil.
func Select(name string) []Experiment {
	var picked []Experiment
	for _, e := range Experiments {
		if name == e.Name || name == SelectAll || name == SelectClaims || (name == SelectGated && e.Gated) {
			picked = append(picked, e)
		}
	}
	return picked
}

// platformMetrics reports the per-platform headline pair tracked across
// revisions: steady-state throughput and dynamic-power efficiency.
func platformMetrics(runs ...PlatformRun) []Metric {
	var ms []Metric
	for _, r := range runs {
		ms = append(ms,
			Metric{r.Name + "/throughput_req_s", r.Throughput},
			Metric{r.Name + "/dyn_eff_req_j", r.DynEff})
	}
	return ms
}

// spread reports the smallest and the largest of f(0..n-1) as name_min
// and name_max.
func spread(name string, n int, f func(int) float64) []Metric {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		lo, hi = math.Min(lo, f(i)), math.Max(hi, f(i))
	}
	return []Metric{{name + "_min", lo}, {name + "_max", hi}}
}

// Experiments is the evaluation, in the order "all" runs it.
var Experiments = []Experiment{
	{Name: "table1", Ref: "Table 1", Desc: "platform inventory",
		Run: func(s *Session) []Metric {
			Table1().Print(s.Out)
			return []Metric{{"Titan/sms", float64(simt.GTXTitan().SMs)}}
		}},
	{Name: "table2", Ref: "Table 2", Desc: "workload characterization",
		Run: func(s *Session) []Metric {
			r := Table2(s.Cfg)
			r.Render().Print(s.Out)
			rows := r.Rows
			var mix float64
			for _, row := range rows {
				mix += row.Instr * row.MixPercent / 100
			}
			ms := []Metric{{"mix/instr_per_req", mix}}
			ms = append(ms, spread("per_type/instr_ratio", len(rows), func(i int) float64 {
				return rows[i].Instr / float64(rows[i].PaperInstr)
			})...)
			return append(ms, spread("per_type/content_kb_error", len(rows), func(i int) float64 {
				return math.Abs(rows[i].ContentKB - float64(banking.SpecFor(rows[i].Type).SpecWebKB))
			})...)
		}},
	{Name: "fig2", Ref: "Figure 2", Desc: "request-similarity trace study",
		Run: func(s *Session) []Metric {
			r := Fig2(s.Cfg)
			r.Render().Print(s.Out)
			rows := r.Rows
			ms := spread("per_type/unique_traces", len(rows), func(i int) float64 { return float64(rows[i].Traces) })
			return append(ms, spread("per_type/normalized_speedup", len(rows), func(i int) float64 { return rows[i].Norm })...)
		}},
	{Name: "table3", Ref: "Table 3", Desc: "main results: all platforms", Gated: true,
		Run: func(s *Session) []Metric {
			r := s.table3()
			r.Render().Print(s.Out)
			return platformMetrics(r.All()...)
		}},
	{Name: "fig8", Ref: "Figures 8a/8b", Desc: "throughput-efficiency scatter, and the latency paid, over the table3 runs",
		Run: func(s *Session) []Metric {
			r := s.table3()
			RenderFig8(Fig8(r, false), false).Print(s.Out)
			RenderFig8(Fig8(r, true), true).Print(s.Out)
			return fig8Metrics(r)
		}},
	{Name: "fig9", Ref: "Figure 9", Desc: "Titan A vs PCIe bound",
		Run: func(s *Session) []Metric {
			fmt.Fprintln(s.Out, "running Titan A isolation runs...")
			a := RunTitan(s.Cfg, TitanRunOptions{Platform: service.TitanA})
			rows := Fig9(a)
			RenderFig9(rows).Print(s.Out)
			return append(platformMetrics(a), spread("per_type/bound_fraction", len(rows), func(i int) float64 { return rows[i].Fraction })...)
		}},
	{Name: "fig10", Ref: "Figure 10", Desc: "Titan B per-type analysis of the table3 runs",
		Run: func(s *Session) []Metric {
			rows := Fig10(s.table3())
			RenderFig10(rows).Print(s.Out)
			pads, tputs := make([]float64, len(rows)), make([]float64, len(rows))
			for i, row := range rows {
				pads[i], tputs[i] = row.PadRatio, row.NormTput
			}
			ms := spread("per_type/norm_throughput", len(rows), func(i int) float64 { return tputs[i] })
			ms = append(ms, spread("per_type/norm_eff_dyn", len(rows), func(i int) float64 { return rows[i].NormEff })...)
			return append(ms, Metric{"per_type/pad_throughput_correlation", correlation(pads, tputs)})
		}},
	{Name: "scaling", Ref: "Sec 6.2", Desc: "many-core scaling comparison from the table3 runs",
		Run: func(s *Session) []Metric {
			r := Scaling(s.table3())
			r.Render().Print(s.Out)
			return r.metrics()
		}},
	{Name: "resources", Ref: "Sec 6.3", Desc: "network/memory requirements of the table3 runs",
		Run: func(s *Session) []Metric {
			r := Resources(s.table3())
			r.Render().Print(s.Out)
			return r.metrics()
		}},
	{Name: "cohort-sweep", Ref: "Sec 6.4", Desc: "cohort size sensitivity",
		Run: func(s *Session) []Metric {
			rows := CohortSweep(s.Cfg, []int{256, 512, 1024, 2048, 4096, 8192})
			RenderCohortSweep(rows).Print(s.Out)
			var ms []Metric
			for _, row := range rows {
				ms = append(ms,
					Metric{fmt.Sprintf("cohort%d/throughput_req_s", row.Size), row.Throughput},
					Metric{fmt.Sprintf("cohort%d/latency_ms", row.Size), row.LatencyMs},
					Metric{fmt.Sprintf("cohort%d/memory_mb", row.Size), row.MemoryMB},
					Metric{fmt.Sprintf("cohort%d/dyn_w", row.Size), row.DynW})
			}
			return ms
		}},
	{Name: "parser", Ref: "Sec 6.4", Desc: "parser divergence on mixed cohorts",
		Run: func(s *Session) []Metric {
			r := ParserStudy(s.Cfg)
			RenderParser(r).Print(s.Out)
			return []Metric{
				{"single/throughput_req_s", r.SingleThroughput},
				{"mixed/throughput_req_s", r.MixedThroughput},
				{"mixed/latency_us", r.MixedLatencyUs},
				{"mixed/divergent_execs", float64(r.MixedDivergent)},
			}
		}},
	{Name: "hyperq", Ref: "Sec 6.4", Desc: "single work queue vs HyperQ",
		Run: func(s *Session) []Metric {
			r := HyperQ(s.Cfg)
			r.Render().Print(s.Out)
			return platformMetrics(r.SingleQueue, r.HyperQ)
		}},
	{Name: "pcie4", Ref: "Sec 6.1.1", Desc: "Titan A on PCIe 4.0 projection",
		Run: func(s *Session) []Metric {
			r := PCIe4Projection(s.Cfg)
			r.Render().Print(s.Out)
			return []Metric{
				{"pcie3/throughput_req_s", r.PCIe3.Throughput},
				{"pcie4/throughput_req_s", r.PCIe4.Throughput},
				{"pcie3/bus_util", busUtil(r.PCIe3)},
				{"pcie4/bus_util", busUtil(r.PCIe4)},
			}
		}},
	{Name: "cpu-simd", Ref: "Sec 6.4 future work", Desc: "Rhythm cohorts in AVX on the Core i7",
		Run: func(s *Session) []Metric {
			c := s.Cfg
			if c.CohortSize > 1024 {
				c.CohortSize = 1024 // AVX cohorts don't need GPU-scale batches
			}
			r := CPUSIMDStudy(c)
			r.Render().Print(s.Out)
			return []Metric{
				{"scalar/throughput_req_s", r.Scalar.Throughput},
				{"simd/throughput_req_s", r.SIMD.Throughput},
				{"simd/dyn_eff_req_j", r.SIMD.DynEff},
				{"compute_roofline/throughput_req_s", r.ComputeBound},
				{"memory_roofline/throughput_req_s", r.MemoryBound},
			}
		}},
	{Name: "stragglers", Ref: "Sec 3.1", Desc: "straggler timeout under a heavy-tailed backend",
		Run: func(s *Session) []Metric {
			rows := StragglerStudy(s.Cfg)
			RenderStragglers(rows).Print(s.Out)
			var ms []Metric
			for i, key := range []string{"wait", "deadline"} {
				ms = append(ms,
					Metric{key + "/throughput_req_s", rows[i].Throughput},
					Metric{key + "/p99_ms", rows[i].P99Ms},
					Metric{key + "/stragglers", float64(rows[i].Stragglers)})
			}
			return ms
		}},
	{Name: "gpufs", Ref: "Sec 5.1 future work", Desc: "check_detail_images via a GPUfs image cache",
		Run: func(s *Session) []Metric {
			r := CheckImagesStudy(s.Cfg)
			r.Render().Print(s.Out)
			return []Metric{
				{"gpufs/throughput_req_s", r.GPUFs},
				{"hostfs/throughput_req_s", r.HostFS},
				{"hostfs/faults", float64(r.Faults)},
			}
		}},
	{Name: "quick-pay", Ref: "Sec 5.1 extension", Desc: "quick_pay with variable kernel launches",
		Run: func(s *Session) []Metric {
			r := QuickPayStudy(s.Cfg)
			r.Render().Print(s.Out)
			return []Metric{
				{"quick_pay/throughput_req_s", r.QuickPay.Throughput},
				{"quick_pay/latency_ms", r.QuickPay.LatencyMs},
				{"bill_pay/throughput_req_s", r.BillPay.Throughput},
				{"bill_pay/latency_ms", r.BillPay.LatencyMs},
			}
		}},
	{Name: "scaleout", Ref: "DESIGN.md Sec 17", Desc: "measured weak-scaling sweep over loopback fabric nodes", Gated: true,
		// The 32-node point needs modest per-node work to stay quick.
		Pin: func(c *Config) { c.CohortSize, c.GPUCohortsPerType, c.MaxCohorts = 256, 3, 4 },
		Run: func(s *Session) []Metric {
			r := ScaleOutStudy(s.Cfg, []int{1, 2, 4, 8, 16, 32})
			r.Render().Print(s.Out)
			var ms []Metric
			for _, row := range r.Rows {
				ms = append(ms,
					Metric{fmt.Sprintf("nodes%d/throughput_req_s", row.Nodes), row.ThroughputK * 1e3},
					Metric{fmt.Sprintf("nodes%d/efficiency", row.Nodes), row.Efficiency},
					Metric{fmt.Sprintf("nodes%d/kernel_errs", row.Nodes), float64(row.KernelErrs)},
					Metric{fmt.Sprintf("nodes%d/lost_writes", row.Nodes), float64(row.LostWrites)})
			}
			return ms
		}},
	{Name: "ablations", Ref: "DESIGN.md Sec 5", Desc: "padding / transpose / intra-request ablations",
		Run: func(s *Session) []Metric {
			pad, tr, intra := AblatePadding(s.Cfg), AblateTranspose(s.Cfg), IntraVsInter(s.Cfg)
			RenderAblation(pad).Print(s.Out)
			RenderAblation(tr).Print(s.Out)
			RenderIntra(intra).Print(s.Out)
			return []Metric{
				{"padding_on/throughput_req_s", pad.Baseline.Throughput},
				{"padding_off/throughput_req_s", pad.Ablated.Throughput},
				{"transpose_on/throughput_req_s", tr.Baseline.Throughput},
				{"transpose_off/throughput_req_s", tr.Ablated.Throughput},
				{"inter_request/throughput_req_s", intra.InterThroughput},
				{"intra_request/throughput_req_s", intra.IntraThroughput},
			}
		}},
	{Name: "timeout", Ref: "DESIGN.md Sec 5", Desc: "cohort formation timeout policy sweep",
		Run: func(s *Session) []Metric {
			rows := TimeoutSweep(s.Cfg, []sim.Time{50_000, 200_000, 1_000_000, 10_000_000}, 2e6)
			RenderTimeouts(rows).Print(s.Out)
			var ms []Metric
			for _, row := range rows {
				key := fmt.Sprintf("timeout%dus", row.Timeout/1000)
				ms = append(ms,
					Metric{key + "/throughput_req_s", row.Throughput},
					Metric{key + "/latency_ms", row.LatencyMs},
					Metric{key + "/cohorts_timed_out", float64(row.TimedOut)})
			}
			return ms
		}},
	{Name: "adaptive", Ref: "DESIGN.md Sec 12", Desc: "SLO-aware adaptive formation vs fixed timeout", Gated: true,
		// Short calibration runs: the study replays a queueing model.
		Pin: func(c *Config) {
			c.CPURequestsPerType, c.GPUCohortsPerType, c.CohortSize, c.ValidateEvery = 100, 2, 128, 0
		},
		Run: func(s *Session) []Metric {
			r := AdaptiveStudy(s.Cfg)
			RenderAdaptive(r).Print(s.Out)
			ms := []Metric{
				{"model/svc_base_us", r.SvcBaseUs},
				{"model/svc_per_req_us", r.SvcPerReqUs},
			}
			for _, row := range r.Rows {
				ms = append(ms,
					Metric{"fixed_" + row.Phase + "/throughput_req_s", row.FixedTput},
					Metric{"fixed_" + row.Phase + "/p99_ms", row.FixedP99Ms},
					Metric{"adaptive_" + row.Phase + "/throughput_req_s", row.AdaptiveTput},
					Metric{"adaptive_" + row.Phase + "/p99_ms", row.AdaptiveP99Ms},
					Metric{row.Phase + "/converge_ticks", float64(row.ConvergeTicks)})
			}
			return ms
		}},
	{Name: "workloads", Ref: "DESIGN.md Sec 16", Desc: "mixed banking + ecom + telemetry stream on shared devices", Gated: true,
		// One full telemetry ring per stream.
		Pin: func(c *Config) { c.CohortSize, c.MaxCohorts = 128, 4 },
		Run: func(s *Session) []Metric {
			r := WorkloadMixStudy(s.Cfg, 4)
			r.Render().Print(s.Out)
			ms := []Metric{
				{"mixed/throughput_req_s", r.ThroughputK * 1e3},
				{"telemetry/frames_delivered", float64(r.FramesDelivered)},
				{"telemetry/frames_lost", float64(r.FramesLost)},
			}
			for _, row := range r.Rows {
				ms = append(ms,
					Metric{row.Workload + "/requests", float64(row.Requests)},
					Metric{row.Workload + "/share_pct", row.SharePct},
					Metric{row.Workload + "/kernel_errs", float64(row.KernelErrs)})
			}
			return ms
		}},
}
