package harness

import (
	"bytes"
	"math"
	"testing"

	"rhythm/internal/banking"
	"rhythm/internal/platform"
	"rhythm/internal/service"
	"rhythm/internal/sim"
)

// tinyConfig keeps unit tests fast; the cmd binary and benchmarks run at
// full scale.
func tinyConfig() Config {
	c := DefaultConfig()
	c.CPURequestsPerType = 200
	c.GPUCohortsPerType = 3
	c.CohortSize = 256
	c.MaxCohorts = 3
	c.ValidateEvery = 128
	c.TraceRequests = 20
	return c
}

func TestRunCPUMatchesPaperThroughput(t *testing.T) {
	// The i7 8-worker row anchors the calibration: published 377K reqs/s.
	cfg := tinyConfig()
	run := RunCPU(cfg, platform.CoreI7(), 8)
	if math.Abs(run.Throughput-377e3)/377e3 > 0.25 {
		t.Fatalf("i7 8w throughput = %.0f, want within 25%% of 377K", run.Throughput)
	}
	if len(run.PerType) != len(banking.CoreTypes()) {
		t.Fatalf("per-type rows = %d", len(run.PerType))
	}
	for _, pt := range run.PerType {
		if pt.ValFails != 0 {
			t.Errorf("%s: %d validation failures", pt.Type, pt.ValFails)
		}
		if pt.Errors != 0 {
			t.Errorf("%s: %d error responses", pt.Type, pt.Errors)
		}
	}
}

func TestRunCPUARMShape(t *testing.T) {
	cfg := tinyConfig()
	arm := RunCPU(cfg, platform.ARMCortexA9(), 2)
	// Paper: 16K reqs/s.
	if math.Abs(arm.Throughput-16e3)/16e3 > 0.3 {
		t.Fatalf("ARM 2w throughput = %.0f, want ~16K", arm.Throughput)
	}
	if arm.DynEff < 3500 || arm.DynEff > 6500 {
		t.Fatalf("ARM dyn efficiency = %.0f, want ~4830", arm.DynEff)
	}
}

func TestRunTitanBShape(t *testing.T) {
	cfg := tinyConfig()
	run := RunTitan(cfg, TitanRunOptions{Platform: service.TitanB})
	// Paper: 1.535M reqs/s at cohort 4096. At this test's cohort size of
	// 256 the device is underfilled, so accept a wider band; the
	// paper-scale check below pins the real number.
	if run.Throughput < 0.7e6 || run.Throughput > 3.0e6 {
		t.Fatalf("Titan B throughput = %.0f, want ~1.5M (reduced scale)", run.Throughput)
	}
	// Underfilled cohorts draw less power (lower utilization) — the
	// curve itself is checked at paper scale below.
	if run.DynW < 90 || run.DynW > 260 {
		t.Fatalf("Titan B dynamic watts = %.0f out of range", run.DynW)
	}
	for _, pt := range run.PerType {
		if pt.ValFails != 0 {
			t.Errorf("%s: validation failures", pt.Type)
		}
	}
}

func TestRunTitanBPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale cohort run skipped in -short mode")
	}
	cfg := tinyConfig()
	cfg.CohortSize = 4096
	cfg.MaxCohorts = 4
	cfg.GPUCohortsPerType = 4
	run := RunTitan(cfg, TitanRunOptions{Platform: service.TitanB, Types: []banking.ReqType{banking.AccountSummary}})
	// account_summary is heavier than the mix average; the paper's Fig 10
	// places Titan B per-type throughput at 3.5-5x the i7's ~331K-per-type
	// ≈ 1.1-1.6M. Accept 0.9-2.5M.
	got := run.PerType[0].Throughput
	if got < 0.9e6 || got > 2.5e6 {
		t.Fatalf("Titan B account_summary at cohort 4096 = %.0f reqs/s", got)
	}
	// At paper scale the device saturates and the power curve should
	// land near the published 232 W dynamic.
	if run.DynW < 190 || run.DynW > 260 {
		t.Fatalf("Titan B dynamic watts at paper scale = %.0f, want ~232", run.DynW)
	}
}

func TestTitanOrdering(t *testing.T) {
	// The headline shape: A < B < C in throughput; A is PCIe-bound.
	cfg := tinyConfig()
	types := []banking.ReqType{banking.AccountSummary}
	a := RunTitan(cfg, TitanRunOptions{Platform: service.TitanA, Types: types})
	b := RunTitan(cfg, TitanRunOptions{Platform: service.TitanB, Types: types})
	c := RunTitan(cfg, TitanRunOptions{Platform: service.TitanC, Types: types})
	if !(a.Throughput < b.Throughput && b.Throughput < c.Throughput) {
		t.Fatalf("ordering violated: A=%.0f B=%.0f C=%.0f", a.Throughput, b.Throughput, c.Throughput)
	}
	if a.PerType[0].BusUtil < 0.8 {
		t.Fatalf("Titan A bus utilization = %.2f, should be PCIe-bound", a.PerType[0].BusUtil)
	}
}

func TestTable2Measured(t *testing.T) {
	res := Table2(tinyConfig())
	if len(res.Rows) != len(banking.CoreTypes()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		ratio := row.Instr / float64(row.PaperInstr)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: instr ratio %.2f outside calibration contract", row.Type, ratio)
		}
		if math.Abs(row.ContentKB-float64(banking.SpecFor(row.Type).SpecWebKB)) > 0.1 {
			t.Errorf("%s: content %.2f KB, spec %d KB", row.Type, row.ContentKB, banking.SpecFor(row.Type).SpecWebKB)
		}
	}
	var out bytes.Buffer
	res.Render().Print(&out)
	if out.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFig2NearLinear(t *testing.T) {
	res := Fig2(tinyConfig())
	for _, row := range res.Rows {
		if row.Traces < 1 || row.Traces > 6 {
			t.Errorf("%s: %d unique traces, want 1-6 like the paper", row.Type, row.Traces)
		}
		if row.Norm < 0.85 || row.Norm > 1.0001 {
			t.Errorf("%s: normalized speedup %.3f, paper observes near-linear", row.Type, row.Norm)
		}
	}
}

func TestFig9BoundsRespected(t *testing.T) {
	cfg := tinyConfig()
	a := RunTitan(cfg, TitanRunOptions{Platform: service.TitanA})
	rows := Fig9(a)
	for _, row := range rows {
		if row.Fraction > 1.05 {
			t.Errorf("%s: achieved %.2fx of the PCIe bound (impossible)", row.Type, row.Fraction)
		}
		if row.Fraction < 0.5 {
			t.Errorf("%s: achieved only %.2f of bound; Titan A should track it", row.Type, row.Fraction)
		}
	}
	var out bytes.Buffer
	RenderFig9(rows).Print(&out)
	if out.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestParserStudy(t *testing.T) {
	cfg := tinyConfig()
	cfg.CohortSize = 512
	res := ParserStudy(cfg)
	if res.MixedDivergent == 0 {
		t.Fatal("mixed parse showed no divergence")
	}
	if res.MixedThroughput <= 0 || res.SingleThroughput <= 0 {
		t.Fatal("parser throughput not measured")
	}
	if res.MixedThroughput > res.SingleThroughput {
		t.Fatalf("mixed parser (%.0f) should not beat single-type (%.0f)",
			res.MixedThroughput, res.SingleThroughput)
	}
	// Paper: the parser sustains millions of requests/sec even mixed.
	if res.MixedThroughput < 1e6 {
		t.Fatalf("mixed parser throughput = %.0f, want >= 1M", res.MixedThroughput)
	}
}

func TestHyperQGap(t *testing.T) {
	cfg := tinyConfig()
	res := HyperQ(cfg)
	if res.HyperQ.Throughput < res.SingleQueue.Throughput {
		t.Fatalf("HyperQ (%.0f) should not lose to a single queue (%.0f)",
			res.HyperQ.Throughput, res.SingleQueue.Throughput)
	}
}

func TestAblationsShowBenefit(t *testing.T) {
	cfg := tinyConfig()
	pad := AblatePadding(cfg)
	if pad.Baseline.Throughput < pad.Ablated.Throughput*0.95 {
		t.Fatalf("padding ablation: with=%.0f without=%.0f", pad.Baseline.Throughput, pad.Ablated.Throughput)
	}
	tr := AblateTranspose(cfg)
	if tr.Baseline.Throughput <= tr.Ablated.Throughput {
		t.Fatalf("transpose ablation: with=%.0f without=%.0f", tr.Baseline.Throughput, tr.Ablated.Throughput)
	}
}

func TestIntraVsInter(t *testing.T) {
	res := IntraVsInter(tinyConfig())
	// Inter-request must dominate by roughly the warp width.
	ratio := res.InterThroughput / res.IntraThroughput
	if ratio < 8 {
		t.Fatalf("inter/intra = %.1f, expected a large gap (paper: intra performs poorly)", ratio)
	}
}

func TestCohortSweepMonotoneMemory(t *testing.T) {
	cfg := tinyConfig()
	rows := CohortSweep(cfg, []int{128, 256, 512})
	for i := 1; i < len(rows); i++ {
		if rows[i].MemoryMB <= rows[i-1].MemoryMB {
			t.Fatal("memory should grow with cohort size")
		}
	}
	if rows[len(rows)-1].Throughput < rows[0].Throughput {
		t.Fatalf("larger cohorts should not lose throughput: %v", rows)
	}
}

func TestTimeoutSweepTradeoff(t *testing.T) {
	cfg := tinyConfig()
	cfg.CohortSize = 256
	cfg.GPUCohortsPerType = 2
	rows := TimeoutSweep(cfg, []sim.Time{sim.Duration(100_000), sim.Duration(10_000_000)}, 2e6)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatal("no throughput")
		}
	}
}

func TestScalingMatchesPaperShape(t *testing.T) {
	// Synthesize a Table3Result with the paper's numbers to check the
	// arithmetic reproduces §6.2 exactly.
	r := Table3Result{
		CPUs: []PlatformRun{
			{Name: "ARM A9 1w", Throughput: 8e3},
			{Name: "Core i5 1w", Throughput: 75e3},
		},
		Titans: []PlatformRun{
			{Name: "Titan B", Throughput: 1.535e6, DynW: 232},
			{Name: "Titan C", Throughput: 3.082e6, DynW: 211 + 170}, // paper: C has 170+ W for the transpose
		},
	}
	sc := Scaling(r)
	if sc.Rows[0].Scale.Cores != 192 {
		t.Fatalf("ARM cores for Titan B = %d, want 192", sc.Rows[0].Scale.Cores)
	}
	if sc.Rows[1].Scale.Cores != 21 {
		t.Fatalf("i5 cores for Titan B = %d, want 21", sc.Rows[1].Scale.Cores)
	}
	if sc.Rows[2].Scale.Cores != 386 { // paper rounds to 385
		t.Fatalf("ARM cores for Titan C = %d, want ~385", sc.Rows[2].Scale.Cores)
	}
}

func TestFig8Normalization(t *testing.T) {
	r := Table3Result{
		CPUs: []PlatformRun{
			{Name: "Core i7 8w", Throughput: 377e3, WallEff: 2042, DynEff: 2873},
			{Name: "ARM A9 2w", Throughput: 16e3, WallEff: 2683, DynEff: 4830},
		},
		Titans: []PlatformRun{
			{Name: "Titan C", Throughput: 3.082e6, WallEff: 9070, DynEff: 12264},
		},
	}
	rows := Fig8(r, true)
	var tc Fig8Row
	for _, row := range rows {
		if row.Platform == "Titan C" {
			tc = row
		}
		if row.Platform == "Core i7 8w" && math.Abs(row.NormTput-1) > 1e-9 {
			t.Fatal("i7 must normalize to 1.0 throughput")
		}
		if row.Platform == "ARM A9 2w" && math.Abs(row.NormEff-1) > 1e-9 {
			t.Fatal("A9 must normalize to 1.0 efficiency")
		}
	}
	if tc.NormTput < 8 || tc.NormEff < 2.5 {
		t.Fatalf("paper headline: Titan C = 8x i7 throughput at 2.5x A9 efficiency; got %.1fx / %.1fx",
			tc.NormTput, tc.NormEff)
	}
	var out bytes.Buffer
	RenderFig8(rows, true).Print(&out)
	RenderFig8(Fig8(r, false), false).Print(&out)
	if out.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestTable1Renders(t *testing.T) {
	var out bytes.Buffer
	Table1().Print(&out)
	if !bytes.Contains(out.Bytes(), []byte("GTX Titan")) {
		t.Fatal("table 1 missing the Titan row")
	}
}

func TestResourcesRenders(t *testing.T) {
	r := Table3Result{
		Titans: []PlatformRun{
			{Name: "Titan A", Throughput: 398e3},
			{Name: "Titan B", Throughput: 1.535e6},
			{Name: "Titan C", Throughput: 3.082e6},
		},
	}
	res := Resources(r)
	var out bytes.Buffer
	res.Render().Print(&out)
	if !bytes.Contains(out.Bytes(), []byte("Gbps")) {
		t.Fatal("resources table missing bandwidth rows")
	}
}
