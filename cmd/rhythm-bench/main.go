// Command rhythm-bench regenerates the paper's tables and figures. Each
// subcommand reproduces one experiment; "all" runs the full evaluation.
//
// Usage:
//
//	rhythm-bench [flags] <experiment>
//
// Experiments: table1 table2 table3 fig2 fig8 fig9 fig10 scaling
// resources cohort-sweep parser hyperq cluster-scaling ablations
// timeout workloads frontend flight all
//
// Flags scale the runs; -paper uses the paper's cohort geometry
// (4096-request cohorts, 8 contexts), which takes several minutes.
// -json suppresses the tables and instead emits one JSON record per
// line on stdout (experiment, metric, value, wall_clock_secs) so
// results can be tracked across revisions. The stream opens with an
// env/host_cores record so a reader can tell whether wall-clock
// numbers came from a host that could actually run anything in
// parallel. Every simulated (virtual-time) value is bit-identical at
// any -sim-parallelism setting; only wall_clock_secs varies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rhythm/internal/harness"
	"rhythm/internal/sim"
)

func main() {
	var (
		paper    = flag.Bool("paper", false, "use the paper's cohort geometry (slower)")
		cohort   = flag.Int("cohort", 0, "override cohort size")
		contexts = flag.Int("contexts", 0, "override in-flight cohort contexts")
		gpuCoh   = flag.Int("gpu-cohorts", 0, "override cohorts per GPU isolation run")
		cpuReqs  = flag.Int("cpu-requests", 0, "override requests per CPU isolation run")
		seed     = flag.Int64("seed", 0, "override workload seed")
		jsonOut  = flag.Bool("json", false, "emit JSON records instead of tables")
		simPar   = flag.Int("sim-parallelism", 0, "host workers per device for independent kernel launches (0 = all cores, 1 = serial; virtual-time results identical)")
	)
	flag.Usage = usage
	flag.Parse()

	cfg := harness.DefaultConfig()
	if *paper {
		cfg = harness.PaperScaleConfig()
	}
	if *cohort > 0 {
		cfg.CohortSize = *cohort
	}
	if *contexts > 0 {
		cfg.MaxCohorts = *contexts
	}
	if *gpuCoh > 0 {
		cfg.GPUCohortsPerType = *gpuCoh
	}
	if *cpuReqs > 0 {
		cfg.CPURequestsPerType = *cpuReqs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *simPar != 0 {
		cfg.SimParallelism = *simPar
	}
	if runtime.NumCPU() == 1 && cfg.SimParallelism != 1 {
		fmt.Fprintln(os.Stderr, "rhythm-bench: single-core host: simulator parallelism cannot speed anything up; wall_clock_secs reflects serial execution")
	}

	what := flag.Arg(0)
	if what == "" {
		what = "all"
	}
	if err := run(cfg, what, *jsonOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rhythm-bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `rhythm-bench regenerates the Rhythm paper's evaluation.

Usage: rhythm-bench [flags] <experiment>

Experiments:
  table1        platform inventory (Table 1)
  table2        workload characterization (Table 2)
  table3        main results: all platforms (Table 3)
  fig2          request-similarity trace study (Figure 2)
  fig8          throughput-efficiency scatter (Figures 8a/8b; implies table3)
  fig9          Titan A vs PCIe bound (Figure 9)
  fig10         Titan B per-type analysis (Figure 10; implies table3)
  scaling       many-core scaling comparison (Sec 6.2; implies table3)
  resources     network/memory requirements (Sec 6.3; implies table3)
  cohort-sweep  cohort size sensitivity (Sec 6.4)
  parser        parser divergence on mixed cohorts (Sec 6.4)
  hyperq        single work queue vs HyperQ (Sec 6.4)
  pcie4         Titan A on PCIe 4.0 projection (Sec 6.1.1)
  cpu-simd      Rhythm cohorts in AVX on the Core i7 (Sec 6.4 future work)
  stragglers    straggler timeout under a heavy-tailed backend (Sec 3.1)
  gpufs         check_detail_images via a GPUfs image cache (Sec 5.1 future work)
  quick-pay     quick_pay with variable kernel launches (Sec 5.1 extension)
  scale-out     N devices behind one front-end link, analytic projection (Sec 3.2 future work)
  scaleout      measured weak-scaling sweep over loopback fabric nodes (DESIGN.md Sec 17)
  cluster-scaling  measured multi-device sweep through the cluster layer
  ablations     padding / transpose / intra-request ablations
  timeout       cohort formation timeout policy sweep
  adaptive      SLO-aware adaptive formation vs fixed timeout (DESIGN.md Sec 12)
  workloads     mixed banking + ecom + telemetry stream on shared devices (DESIGN.md Sec 16)
  frontend      zero-copy frontend hot path + render cache (DESIGN.md Sec 14)
  flight        flight recorder always-on overhead (DESIGN.md Sec 15)
  all           everything above

Flags:
`)
	flag.PrintDefaults()
}

// metric is one headline number an experiment reports in -json mode.
type metric struct {
	name  string
	value float64
}

// record is the -json line format. Every experiment emits at least its
// wall clock; experiments with headline numbers emit one record per
// metric, each stamped with the experiment's wall clock. Wall clock is
// the only host-dependent field — everything else is virtual-time and
// bit-identical across hosts and parallelism settings.
type record struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	WallClockS float64 `json:"wall_clock_secs"`
}

// frontendCfg pins the frontend study's corpus to the committed
// BENCH_frontend.json scale regardless of -paper / override flags.
func frontendCfg(cfg harness.Config) harness.Config {
	cfg.CPURequestsPerType = 800
	return cfg
}

// workloadsCfg pins the mixed-workload study to the committed
// BENCH_workloads.json geometry (one full telemetry ring per stream)
// regardless of -paper / override flags.
func workloadsCfg(cfg harness.Config) harness.Config {
	cfg.CohortSize = 128
	cfg.MaxCohorts = 4
	return cfg
}

// scaleoutCfg pins the measured fabric sweep to the committed
// BENCH_scaleout.json geometry (the 32-node point needs modest
// per-node work to stay inside the CI wall-clock budget) regardless of
// -paper / override flags.
func scaleoutCfg(cfg harness.Config) harness.Config {
	cfg.CohortSize = 256
	cfg.GPUCohortsPerType = 3
	cfg.MaxCohorts = 4
	return cfg
}

// adaptiveCfg trims the study's calibration runs to the committed
// BENCH_adaptive.json geometry so the gate compares like with like at
// any -paper / override flags.
func adaptiveCfg(cfg harness.Config) harness.Config {
	cfg.CPURequestsPerType = 100
	cfg.GPUCohortsPerType = 2
	cfg.CohortSize = 128
	cfg.ValidateEvery = 0
	return cfg
}

// platformMetrics reports the per-platform headline pair tracked across
// revisions: steady-state throughput and dynamic-power efficiency.
func platformMetrics(runs ...harness.PlatformRun) []metric {
	var ms []metric
	for _, r := range runs {
		ms = append(ms,
			metric{r.Name + "/throughput_req_s", r.Throughput},
			metric{r.Name + "/dyn_eff_req_j", r.DynEff})
	}
	return ms
}

func run(cfg harness.Config, what string, jsonMode bool, stdout io.Writer) error {
	out := stdout
	var enc *json.Encoder
	if jsonMode {
		out = io.Discard
		enc = json.NewEncoder(stdout)
		// Lead with the host's core count so wall-clock consumers (and
		// the CI speedup step) can tell a single-core run apart from a
		// genuinely slow one.
		enc.Encode(record{Experiment: "env", Metric: "host_cores", Value: float64(runtime.NumCPU())})
	}
	// Experiments that reuse the (expensive) Table 3 runs share one.
	var t3 *harness.Table3Result
	table3 := func() harness.Table3Result {
		if t3 == nil {
			fmt.Fprintln(out, "running Table 3 platforms (14 request types x 9 configurations)...")
			r := harness.Table3(cfg)
			t3 = &r
		}
		return *t3
	}

	do := map[string]func() []metric{
		"table1": func() []metric { harness.Table1().Print(out); return nil },
		"table2": func() []metric { harness.Table2(cfg).Render().Print(out); return nil },
		"table3": func() []metric {
			r := table3()
			r.Render().Print(out)
			return platformMetrics(r.All()...)
		},
		"fig2": func() []metric { harness.Fig2(cfg).Render().Print(out); return nil },
		"fig8": func() []metric {
			r := table3()
			harness.RenderFig8(harness.Fig8(r, false), false).Print(out)
			harness.RenderFig8(harness.Fig8(r, true), true).Print(out)
			return nil
		},
		"fig9": func() []metric {
			fmt.Fprintln(out, "running Titan A isolation runs...")
			a := harness.RunTitan(cfg, harness.TitanRunOptions{Variant: harness.TitanA})
			harness.RenderFig9(harness.Fig9(a)).Print(out)
			return platformMetrics(a)
		},
		"fig10":     func() []metric { harness.RenderFig10(harness.Fig10(table3())).Print(out); return nil },
		"scaling":   func() []metric { harness.Scaling(table3()).Render().Print(out); return nil },
		"resources": func() []metric { harness.Resources(table3()).Render().Print(out); return nil },
		"cohort-sweep": func() []metric {
			sizes := []int{256, 512, 1024, 2048, 4096, 8192}
			rows := harness.CohortSweep(cfg, sizes)
			harness.RenderCohortSweep(rows).Print(out)
			var ms []metric
			for _, row := range rows {
				ms = append(ms,
					metric{fmt.Sprintf("cohort%d/throughput_req_s", row.Size), row.Throughput},
					metric{fmt.Sprintf("cohort%d/latency_ms", row.Size), row.LatencyMs})
			}
			return ms
		},
		"parser": func() []metric {
			r := harness.ParserStudy(cfg)
			harness.RenderParser(r).Print(out)
			return []metric{
				{"single/throughput_req_s", r.SingleThroughput},
				{"mixed/throughput_req_s", r.MixedThroughput},
				{"mixed/latency_us", r.MixedLatencyUs},
			}
		},
		"hyperq": func() []metric {
			r := harness.HyperQ(cfg)
			r.Render().Print(out)
			return platformMetrics(r.SingleQueue, r.HyperQ)
		},
		"pcie4": func() []metric {
			r := harness.PCIe4Projection(cfg)
			r.Render().Print(out)
			return []metric{
				{"pcie3/throughput_req_s", r.PCIe3.Throughput},
				{"pcie4/throughput_req_s", r.PCIe4.Throughput},
			}
		},
		"stragglers": func() []metric { harness.RenderStragglers(harness.StragglerStudy(cfg)).Print(out); return nil },
		"gpufs":      func() []metric { harness.CheckImagesStudy(cfg).Render().Print(out); return nil },
		"quick-pay":  func() []metric { harness.QuickPayStudy(cfg).Render().Print(out); return nil },
		"scale-out": func() []metric {
			harness.ScaleOutProjection(cfg, []int{1, 2, 4, 8, 16}).Render().Print(out)
			return nil
		},
		"scaleout": func() []metric {
			r := harness.ScaleOutStudy(scaleoutCfg(cfg), []int{1, 2, 4, 8, 16, 32})
			r.Render().Print(out)
			var ms []metric
			for _, row := range r.Rows {
				ms = append(ms,
					metric{fmt.Sprintf("nodes%d/throughput_req_s", row.Nodes), row.ThroughputK * 1e3},
					metric{fmt.Sprintf("nodes%d/efficiency", row.Nodes), row.Efficiency},
					metric{fmt.Sprintf("nodes%d/kernel_errs", row.Nodes), float64(row.KernelErrs)},
					metric{fmt.Sprintf("nodes%d/lost_writes", row.Nodes), float64(row.LostWrites)})
			}
			return ms
		},
		"cluster-scaling": func() []metric {
			r := harness.ClusterScalingStudy(cfg, []int{1, 2, 4, 8})
			r.Render().Print(out)
			var ms []metric
			for _, row := range r.Rows {
				ms = append(ms,
					metric{fmt.Sprintf("devices%d/throughput_req_s", row.Devices), row.ThroughputK * 1e3},
					metric{fmt.Sprintf("devices%d/speedup", row.Devices), row.Speedup})
			}
			return ms
		},
		"cpu-simd": func() []metric {
			c := cfg
			if c.CohortSize > 1024 {
				c.CohortSize = 1024 // AVX cohorts don't need GPU-scale batches
			}
			harness.CPUSIMDStudy(c).Render().Print(out)
			return nil
		},
		"ablations": func() []metric {
			harness.RenderAblation(harness.AblatePadding(cfg)).Print(out)
			harness.RenderAblation(harness.AblateTranspose(cfg)).Print(out)
			harness.RenderIntra(harness.IntraVsInter(cfg)).Print(out)
			return nil
		},
		"timeout": func() []metric {
			timeouts := []sim.Time{
				sim.Time(50_000), sim.Time(200_000), sim.Time(1_000_000), sim.Time(10_000_000),
			}
			harness.RenderTimeouts(harness.TimeoutSweep(cfg, timeouts, 2e6)).Print(out)
			return nil
		},
		"frontend": func() []metric {
			r := harness.FrontendStudy(frontendCfg(cfg))
			harness.RenderFrontend(r).Print(out)
			var ms []metric
			for _, m := range r.Modes() {
				// Metric names are chosen so only the intended gates fire:
				// wall_throughput_req_s does NOT match the default
				// /throughput_req_s benchgate suffix (it is wall-clock,
				// host-dependent); the frontend leg gates allocs_per_req
				// (lower-better), cache_hit_pct, and speedup_x instead.
				ms = append(ms,
					metric{m.Name + "/wall_throughput_req_s", m.ThroughputReqS},
					metric{m.Name + "/allocs_per_req", m.AllocsPerReq},
					metric{m.Name + "/speedup_x", m.SpeedupX})
			}
			ms = append(ms, metric{"cached/cache_hit_pct", r.Cached.HitPct})
			return ms
		},
		"flight": func() []metric {
			r := harness.FlightStudy(frontendCfg(cfg))
			harness.RenderFlight(r).Print(out)
			// Only slowdown_x is gated (lower-better, tight tolerance):
			// it is a same-host ratio, so runner speed divides out. The
			// wall-clock throughputs are informational.
			return []metric{
				{"recorder-off/wall_throughput_req_s", r.Off.ThroughputReqS},
				{"recorder-on/wall_throughput_req_s", r.On.ThroughputReqS},
				{"recorder-off/allocs_per_req", r.Off.AllocsPerReq},
				{"recorder-on/allocs_per_req", r.On.AllocsPerReq},
				{"recorder/slowdown_x", r.SlowdownX},
				{"recorder/promoted", float64(r.Promoted)},
			}
		},
		"workloads": func() []metric {
			r := harness.WorkloadMixStudy(workloadsCfg(cfg), 4)
			r.Render().Print(out)
			ms := []metric{
				{"mixed/throughput_req_s", r.ThroughputK * 1e3},
				{"telemetry/frames_delivered", float64(r.FramesDelivered)},
				{"telemetry/frames_lost", float64(r.FramesLost)},
			}
			for _, row := range r.Rows {
				ms = append(ms,
					metric{row.Workload + "/requests", float64(row.Requests)},
					metric{row.Workload + "/share_pct", row.SharePct},
					metric{row.Workload + "/kernel_errs", float64(row.KernelErrs)})
			}
			return ms
		},
		"adaptive": func() []metric {
			r := harness.AdaptiveStudy(adaptiveCfg(cfg))
			harness.RenderAdaptive(r).Print(out)
			ms := []metric{
				{"model/svc_base_us", r.SvcBaseUs},
				{"model/svc_per_req_us", r.SvcPerReqUs},
			}
			for _, row := range r.Rows {
				ms = append(ms,
					metric{"fixed_" + row.Phase + "/throughput_req_s", row.FixedTput},
					metric{"fixed_" + row.Phase + "/p99_ms", row.FixedP99Ms},
					metric{"adaptive_" + row.Phase + "/throughput_req_s", row.AdaptiveTput},
					metric{"adaptive_" + row.Phase + "/p99_ms", row.AdaptiveP99Ms},
					metric{row.Phase + "/converge_ticks", float64(row.ConvergeTicks)},
				)
			}
			return ms
		},
	}

	exec := func(name string) {
		start := time.Now()
		metrics := do[name]()
		wall := time.Since(start).Seconds()
		if enc == nil {
			return
		}
		enc.Encode(record{Experiment: name, Metric: "wall_clock_secs", Value: wall, WallClockS: wall})
		for _, m := range metrics {
			enc.Encode(record{Experiment: name, Metric: m.name, Value: m.value, WallClockS: wall})
		}
	}

	order := []string{
		"table1", "table2", "fig2", "table3", "fig8", "fig9", "fig10",
		"scaling", "resources", "cohort-sweep", "parser", "hyperq",
		"pcie4", "cpu-simd", "stragglers", "gpufs", "quick-pay", "scale-out",
		"scaleout", "cluster-scaling", "ablations", "timeout", "adaptive", "workloads",
		"frontend", "flight",
	}
	if what == "all" {
		fmt.Fprintf(out, "Rhythm reproduction: full evaluation (cohort=%d contexts=%d)\n\n", cfg.CohortSize, cfg.MaxCohorts)
		for _, name := range order {
			exec(name)
		}
		return nil
	}
	if _, ok := do[what]; !ok {
		return fmt.Errorf("unknown experiment %q (run with -h for the list)", what)
	}
	exec(what)
	return nil
}
