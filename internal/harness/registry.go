package harness

import (
	"fmt"
	"io"

	"rhythm/internal/service"
	"rhythm/internal/sim"
)

// Metric is one headline number an experiment reports; rhythm-bench
// -json writes one record per metric.
type Metric struct {
	Name  string
	Value float64
}

// Experiment is one entry of the evaluation, declared once in
// Experiments. rhythm-bench's usage text, its "all" and "gated"
// selectors, the -json stream, the committed BENCH_baseline.json and
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
	SelectAll   = "all"   // every entry, in order
	SelectGated = "gated" // the entries BENCH_baseline.json holds
)

// Select resolves a name from the command line: one experiment or a
// selector. Unknown names return nil.
func Select(name string) []Experiment {
	var picked []Experiment
	for _, e := range Experiments {
		if name == e.Name || name == SelectAll || (name == SelectGated && e.Gated) {
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

// Experiments is the evaluation, in the order "all" runs it.
var Experiments = []Experiment{
	{Name: "table1", Ref: "Table 1", Desc: "platform inventory",
		Run: func(s *Session) []Metric { Table1().Print(s.Out); return nil }},
	{Name: "table2", Ref: "Table 2", Desc: "workload characterization",
		Run: func(s *Session) []Metric { Table2(s.Cfg).Render().Print(s.Out); return nil }},
	{Name: "fig2", Ref: "Figure 2", Desc: "request-similarity trace study",
		Run: func(s *Session) []Metric { Fig2(s.Cfg).Render().Print(s.Out); return nil }},
	{Name: "table3", Ref: "Table 3", Desc: "main results: all platforms", Gated: true,
		Run: func(s *Session) []Metric {
			r := s.table3()
			r.Render().Print(s.Out)
			return platformMetrics(r.All()...)
		}},
	{Name: "fig8", Ref: "Figures 8a/8b", Desc: "throughput-efficiency scatter over the table3 runs",
		Run: func(s *Session) []Metric {
			r := s.table3()
			RenderFig8(Fig8(r, false), false).Print(s.Out)
			RenderFig8(Fig8(r, true), true).Print(s.Out)
			return nil
		}},
	{Name: "fig9", Ref: "Figure 9", Desc: "Titan A vs PCIe bound",
		Run: func(s *Session) []Metric {
			fmt.Fprintln(s.Out, "running Titan A isolation runs...")
			a := RunTitan(s.Cfg, TitanRunOptions{Platform: service.TitanA})
			RenderFig9(Fig9(a)).Print(s.Out)
			return platformMetrics(a)
		}},
	{Name: "fig10", Ref: "Figure 10", Desc: "Titan B per-type analysis of the table3 runs",
		Run: func(s *Session) []Metric { RenderFig10(Fig10(s.table3())).Print(s.Out); return nil }},
	{Name: "scaling", Ref: "Sec 6.2", Desc: "many-core scaling comparison from the table3 runs",
		Run: func(s *Session) []Metric { Scaling(s.table3()).Render().Print(s.Out); return nil }},
	{Name: "resources", Ref: "Sec 6.3", Desc: "network/memory requirements of the table3 runs",
		Run: func(s *Session) []Metric { Resources(s.table3()).Render().Print(s.Out); return nil }},
	{Name: "cohort-sweep", Ref: "Sec 6.4", Desc: "cohort size sensitivity",
		Run: func(s *Session) []Metric {
			rows := CohortSweep(s.Cfg, []int{256, 512, 1024, 2048, 4096, 8192})
			RenderCohortSweep(rows).Print(s.Out)
			var ms []Metric
			for _, row := range rows {
				ms = append(ms,
					Metric{fmt.Sprintf("cohort%d/throughput_req_s", row.Size), row.Throughput},
					Metric{fmt.Sprintf("cohort%d/latency_ms", row.Size), row.LatencyMs})
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
			}
		}},
	{Name: "cpu-simd", Ref: "Sec 6.4 future work", Desc: "Rhythm cohorts in AVX on the Core i7",
		Run: func(s *Session) []Metric {
			c := s.Cfg
			if c.CohortSize > 1024 {
				c.CohortSize = 1024 // AVX cohorts don't need GPU-scale batches
			}
			CPUSIMDStudy(c).Render().Print(s.Out)
			return nil
		}},
	{Name: "stragglers", Ref: "Sec 3.1", Desc: "straggler timeout under a heavy-tailed backend",
		Run: func(s *Session) []Metric { RenderStragglers(StragglerStudy(s.Cfg)).Print(s.Out); return nil }},
	{Name: "gpufs", Ref: "Sec 5.1 future work", Desc: "check_detail_images via a GPUfs image cache",
		Run: func(s *Session) []Metric { CheckImagesStudy(s.Cfg).Render().Print(s.Out); return nil }},
	{Name: "quick-pay", Ref: "Sec 5.1 extension", Desc: "quick_pay with variable kernel launches",
		Run: func(s *Session) []Metric { QuickPayStudy(s.Cfg).Render().Print(s.Out); return nil }},
	{Name: "scale-out", Ref: "Sec 3.2 future work", Desc: "N devices behind one front-end link, analytic projection",
		Run: func(s *Session) []Metric {
			ScaleOutProjection(s.Cfg, []int{1, 2, 4, 8, 16}).Render().Print(s.Out)
			return nil
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
			RenderAblation(AblatePadding(s.Cfg)).Print(s.Out)
			RenderAblation(AblateTranspose(s.Cfg)).Print(s.Out)
			RenderIntra(IntraVsInter(s.Cfg)).Print(s.Out)
			return nil
		}},
	{Name: "timeout", Ref: "DESIGN.md Sec 5", Desc: "cohort formation timeout policy sweep",
		Run: func(s *Session) []Metric {
			timeouts := []sim.Time{50_000, 200_000, 1_000_000, 10_000_000}
			RenderTimeouts(TimeoutSweep(s.Cfg, timeouts, 2e6)).Print(s.Out)
			return nil
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
