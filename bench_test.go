package rhythm

// Benchmarks that regenerate the paper's evaluation, one per table and
// figure (see DESIGN.md's experiment index). These are macro-benchmarks:
// each iteration runs a reduced-scale experiment and reports the paper's
// metric (requests/sec of simulated time, etc.) via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the evaluation end to end.
// cmd/rhythm-bench runs the same experiments at larger scale with
// formatted tables.

import (
	"testing"

	"rhythm/internal/harness"
	"rhythm/internal/platform"
	"rhythm/internal/sim"
)

// benchConfig keeps each iteration small enough to benchmark.
func benchConfig() harness.Config {
	c := harness.DefaultConfig()
	c.CPURequestsPerType = 300
	c.GPUCohortsPerType = 3
	c.CohortSize = 512
	c.MaxCohorts = 4
	c.ValidateEvery = 0
	c.TraceRequests = 30
	return c
}

// BenchmarkTable2Workload measures the workload characterization run
// (Table 2): per-type instruction counts and response sizes.
func BenchmarkTable2Workload(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := harness.Table2(cfg)
		if len(res.Rows) != 14 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig2TraceMerge measures the request-similarity study (Fig 2)
// and reports the workload's mean normalized speedup.
func BenchmarkFig2TraceMerge(b *testing.B) {
	cfg := benchConfig()
	var norm float64
	for i := 0; i < b.N; i++ {
		res := harness.Fig2(cfg)
		norm = 0
		for _, row := range res.Rows {
			norm += row.Norm
		}
		norm /= float64(len(res.Rows))
	}
	b.ReportMetric(norm, "normalized-speedup")
}

// Table 3 rows: one benchmark per platform configuration. Each reports
// the platform's workload throughput in reqs/sec of simulated time.
func benchCPU(b *testing.B, cpu platform.CPU, workers int) {
	cfg := benchConfig()
	var tput float64
	for i := 0; i < b.N; i++ {
		tput = harness.RunCPU(cfg, cpu, workers).Throughput
	}
	b.ReportMetric(tput, "reqs/s")
}

func BenchmarkTable3CoreI5_1w(b *testing.B) { benchCPU(b, platform.CoreI5(), 1) }
func BenchmarkTable3CoreI5_4w(b *testing.B) { benchCPU(b, platform.CoreI5(), 4) }
func BenchmarkTable3CoreI7_4w(b *testing.B) { benchCPU(b, platform.CoreI7(), 4) }
func BenchmarkTable3CoreI7_8w(b *testing.B) { benchCPU(b, platform.CoreI7(), 8) }
func BenchmarkTable3ARMA9_1w(b *testing.B)  { benchCPU(b, platform.ARMCortexA9(), 1) }
func BenchmarkTable3ARMA9_2w(b *testing.B)  { benchCPU(b, platform.ARMCortexA9(), 2) }

func benchTitan(b *testing.B, p Platform) {
	cfg := benchConfig()
	var run harness.PlatformRun
	for i := 0; i < b.N; i++ {
		run = harness.RunTitan(cfg, harness.TitanRunOptions{Platform: p})
	}
	b.ReportMetric(run.Throughput, "reqs/s")
	b.ReportMetric(run.DynW, "dynamic-watts")
	b.ReportMetric(run.DynEff, "reqs/joule")
}

func BenchmarkTable3TitanA(b *testing.B) { benchTitan(b, TitanA) }
func BenchmarkTable3TitanB(b *testing.B) { benchTitan(b, TitanB) }
func BenchmarkTable3TitanC(b *testing.B) { benchTitan(b, TitanC) }

// BenchmarkFig8Scatter builds the throughput-efficiency scatter from a
// reduced Table 3 run (Figures 8a/8b).
func BenchmarkFig8Scatter(b *testing.B) {
	cfg := benchConfig()
	cfg.GPUCohortsPerType = 2
	var titanCNorm float64
	for i := 0; i < b.N; i++ {
		t3 := harness.Table3(cfg)
		rows := harness.Fig8(t3, true)
		for _, r := range rows {
			if r.Platform == "Titan C" {
				titanCNorm = r.NormTput
			}
		}
	}
	b.ReportMetric(titanCNorm, "titanC-tput-vs-i7")
}

// BenchmarkFig9PCIe runs Titan A against its PCIe bound (Figure 9) and
// reports the mean achieved fraction.
func BenchmarkFig9PCIe(b *testing.B) {
	cfg := benchConfig()
	var frac float64
	for i := 0; i < b.N; i++ {
		a := harness.RunTitan(cfg, harness.TitanRunOptions{Platform: TitanA})
		rows := harness.Fig9(a)
		frac = 0
		for _, r := range rows {
			frac += r.Fraction
		}
		frac /= float64(len(rows))
	}
	b.ReportMetric(frac, "fraction-of-bound")
}

// BenchmarkFig10PerType runs the Titan B per-type analysis (Figure 10).
func BenchmarkFig10PerType(b *testing.B) {
	cfg := benchConfig()
	cfg.GPUCohortsPerType = 2
	var best float64
	for i := 0; i < b.N; i++ {
		t3 := harness.Table3(cfg)
		for _, row := range harness.Fig10(t3) {
			if row.NormTput > best {
				best = row.NormTput
			}
		}
	}
	b.ReportMetric(best, "best-type-tput-vs-i7")
}

// BenchmarkScalingStudy reproduces §6.2's many-core arithmetic from a
// reduced Table 3 run.
func BenchmarkScalingStudy(b *testing.B) {
	cfg := benchConfig()
	cfg.GPUCohortsPerType = 2
	var armCores int
	for i := 0; i < b.N; i++ {
		sc := harness.Scaling(harness.Table3(cfg))
		armCores = sc.Rows[0].Scale.Cores
	}
	b.ReportMetric(float64(armCores), "arm-cores-to-match-titanB")
}

// BenchmarkResources reproduces the §6.3 bandwidth/memory analysis.
func BenchmarkResources(b *testing.B) {
	cfg := benchConfig()
	cfg.GPUCohortsPerType = 2
	for i := 0; i < b.N; i++ {
		res := harness.Resources(harness.Table3(cfg))
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Cohort-size sensitivity (§6.4), one benchmark per size.
func benchCohortSize(b *testing.B, size int) {
	cfg := benchConfig()
	var tput float64
	for i := 0; i < b.N; i++ {
		rows := harness.CohortSweep(cfg, []int{size})
		tput = rows[0].Throughput
	}
	b.ReportMetric(tput, "reqs/s")
}

func BenchmarkCohortSize256(b *testing.B)  { benchCohortSize(b, 256) }
func BenchmarkCohortSize1024(b *testing.B) { benchCohortSize(b, 1024) }
func BenchmarkCohortSize4096(b *testing.B) { benchCohortSize(b, 4096) }

// BenchmarkParserDivergence measures the mixed-cohort parser (§6.4).
func BenchmarkParserDivergence(b *testing.B) {
	cfg := benchConfig()
	cfg.CohortSize = 4096
	var res harness.ParserResult
	for i := 0; i < b.N; i++ {
		res = harness.ParserStudy(cfg)
	}
	b.ReportMetric(res.MixedThroughput, "mixed-reqs/s")
	b.ReportMetric(res.MixedLatencyUs, "mixed-cohort-us")
}

// BenchmarkHyperQ compares one hardware work queue to 32 (§6.4).
func BenchmarkHyperQ(b *testing.B) {
	cfg := benchConfig()
	var gain float64
	for i := 0; i < b.N; i++ {
		r := harness.HyperQ(cfg)
		gain = r.HyperQ.Throughput / r.SingleQueue.Throughput
	}
	b.ReportMetric(gain, "hyperq-speedup")
}

// Ablations of the design choices DESIGN.md calls out.
func BenchmarkAblationPadding(b *testing.B) {
	cfg := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := harness.AblatePadding(cfg)
		speedup = r.Baseline.Throughput / r.Ablated.Throughput
	}
	b.ReportMetric(speedup, "padding-speedup")
}

func BenchmarkAblationTranspose(b *testing.B) {
	cfg := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := harness.AblateTranspose(cfg)
		speedup = r.Baseline.Throughput / r.Ablated.Throughput
	}
	b.ReportMetric(speedup, "transpose-speedup")
}

func BenchmarkAblationIntraRequest(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := harness.IntraVsInter(cfg)
		ratio = r.InterThroughput / r.IntraThroughput
	}
	b.ReportMetric(ratio, "inter-vs-intra")
}

// BenchmarkCohortTimeout sweeps the formation-timeout policy under paced
// arrivals.
func BenchmarkCohortTimeout(b *testing.B) {
	cfg := benchConfig()
	cfg.CohortSize = 256
	cfg.GPUCohortsPerType = 2
	var lat float64
	for i := 0; i < b.N; i++ {
		rows := harness.TimeoutSweep(cfg, []sim.Time{sim.Time(1_000_000)}, 2e6)
		lat = rows[0].LatencyMs
	}
	b.ReportMetric(lat, "latency-ms")
}

// BenchmarkEndToEndMixed pushes the Table 2 mix through the public API
// (the quickstart scenario) and reports simulated throughput.
func BenchmarkEndToEndMixed(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		srv := NewSimServer(Options{
			Platform:         TitanB,
			CohortSize:       512,
			MaxCohorts:       6,
			FormationTimeout: 2_000_000, // 2 ms
			ValidateEvery:    0,
		})
		st := srv.Serve(srv.GenerateMixed(4 * 512))
		tput = st.Throughput
	}
	b.ReportMetric(tput, "reqs/s")
}

// BenchmarkPCIe4Projection reruns Titan A on a doubled bus (§6.1.1).
func BenchmarkPCIe4Projection(b *testing.B) {
	cfg := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := harness.PCIe4Projection(cfg)
		speedup = r.PCIe4.Throughput / r.PCIe3.Throughput
	}
	b.ReportMetric(speedup, "pcie4-speedup")
}

// BenchmarkStragglerTimeout measures the §3.1 straggler mechanism under
// a heavy-tailed backend.
func BenchmarkStragglerTimeout(b *testing.B) {
	cfg := benchConfig()
	var p99Cut float64
	for i := 0; i < b.N; i++ {
		rows := harness.StragglerStudy(cfg)
		p99Cut = rows[0].P99Ms / rows[1].P99Ms
	}
	b.ReportMetric(p99Cut, "p99-improvement")
}

// BenchmarkGPUfsCheckImages measures the future-work check_detail_images
// service on a GPUfs-style device cache (§5.1).
func BenchmarkGPUfsCheckImages(b *testing.B) {
	cfg := benchConfig()
	var r harness.CheckImagesResult
	for i := 0; i < b.N; i++ {
		r = harness.CheckImagesStudy(cfg)
	}
	b.ReportMetric(r.GPUFs, "gpufs-reqs/s")
	b.ReportMetric(r.GPUFs/r.HostFS, "gpufs-speedup")
}

// BenchmarkCPUSIMD measures the §6.4 future-work CPU-SIMD design point.
func BenchmarkCPUSIMD(b *testing.B) {
	cfg := benchConfig()
	var r harness.CPUSIMDResult
	for i := 0; i < b.N; i++ {
		r = harness.CPUSIMDStudy(cfg)
	}
	b.ReportMetric(r.SIMD.Throughput, "simd-reqs/s")
	b.ReportMetric(r.MemoryBound, "memory-roofline")
}
