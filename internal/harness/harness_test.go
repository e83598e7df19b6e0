package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
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

// Each test below judges the rows of Claims that carry one experiment's
// measured shape; TestClaims judges every row.

func TestRunCPUMatchesPaperThroughput(t *testing.T) { checkClaims(t, "table3:Core i") }
func TestRunCPUARMShape(t *testing.T)               { checkClaims(t, "table3:ARM A9") }
func TestRunTitanBShape(t *testing.T)               { checkClaims(t, "table3:Titan B", "scaling:Titan B/dyn_w") }
func TestRunTitanBPaperScale(t *testing.T)          { checkClaims(t, "cohort-sweep:cohort4096/") }
func TestTitanOrdering(t *testing.T)                { checkClaims(t, "table3:Titan A", "pcie4:pcie3/bus_util") }
func TestTable1Renders(t *testing.T) {
	checkClaims(t, "table1:")
	if _, out := reducedRun("table1"); !strings.Contains(out, "GTX Titan") {
		t.Fatal("table 1 missing the Titan row")
	}
}
func TestTable2Measured(t *testing.T)      { checkClaims(t, "table2:") }
func TestFig2NearLinear(t *testing.T)      { checkClaims(t, "fig2:") }
func TestFig9BoundsRespected(t *testing.T) { checkClaims(t, "fig9:per_type/") }
func TestResourcesRenders(t *testing.T) {
	checkClaims(t, "resources:")
	if _, out := reducedRun("resources"); !strings.Contains(out, "Gbps") {
		t.Fatal("resources table missing bandwidth rows")
	}
}
func TestCohortSweepMonotoneMemory(t *testing.T) { checkClaims(t, "cohort-sweep:cohort256/") }
func TestParserStudy(t *testing.T)               { checkClaims(t, "parser:") }
func TestHyperQGap(t *testing.T)                 { checkClaims(t, "hyperq:") }
func TestPCIe4Doubles(t *testing.T)              { checkClaims(t, "pcie4:pcie4/") }
func TestCPUSIMDStudy(t *testing.T)              { checkClaims(t, "cpu-simd:") }
func TestCheckImagesGPUfsWins(t *testing.T)      { checkClaims(t, "gpufs:") }
func TestScaleOutStudyMeasured(t *testing.T)     { checkClaims(t, "scaleout:") }
func TestAblationsShowBenefit(t *testing.T) {
	checkClaims(t, "ablations:padding", "ablations:transpose")
}
func TestIntraVsInter(t *testing.T)         { checkClaims(t, "ablations:intra") }
func TestTimeoutSweepTradeoff(t *testing.T) { checkClaims(t, "timeout:") }

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
