package harness

import (
	"reflect"
	"testing"
)

// adaptiveConfig is the geometry the registry pins the study to, so
// these tests check the very run BENCH_baseline.json holds.
func adaptiveConfig() Config {
	cfg := DefaultConfig()
	Select("adaptive")[0].Pin(&cfg)
	return cfg
}

// TestAdaptiveStudyConvergence is the step-load contract on the
// calibrated model: within K controller ticks of each rate step the
// threshold settles, the widened window stays inside the SLO, and the
// adaptive policy beats the fixed timeout where it should (p50 at low
// rate) without giving up throughput at high rate.
func TestAdaptiveStudyConvergence(t *testing.T) {
	const K = 30
	r := AdaptiveStudy(adaptiveConfig())
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 phases, got %d", len(r.Rows))
	}
	low, up, down := r.Rows[0], r.Rows[1], r.Rows[2]

	for _, row := range r.Rows {
		if row.ConvergeTicks > K {
			t.Errorf("phase %s: threshold took %d ticks to settle, want <= %d", row.Phase, row.ConvergeTicks, K)
		}
		if row.AdaptiveP99Ms > r.SLOMs {
			t.Errorf("phase %s: adaptive p99 %.2fms exceeds SLO %.0fms", row.Phase, row.AdaptiveP99Ms, r.SLOMs)
		}
		if row.EndWindowUs > r.SLOMs*1e3 {
			t.Errorf("phase %s: window %.0fus exceeds the SLO budget", row.Phase, row.EndWindowUs)
		}
	}
	// The window widens under load and narrows back after the step down.
	if up.EndWindowUs <= low.EndWindowUs {
		t.Errorf("step-up window %.0fus should exceed low-rate window %.0fus", up.EndWindowUs, low.EndWindowUs)
	}
	if up.EndThreshold <= low.EndThreshold {
		t.Errorf("step-up threshold %d should exceed low-rate threshold %d", up.EndThreshold, low.EndThreshold)
	}
	if down.EndWindowUs > 2*low.EndWindowUs {
		t.Errorf("step-down window %.0fus should return near low-rate %.0fus", down.EndWindowUs, low.EndWindowUs)
	}
	// Low rate: no pointless batching delay.
	if low.AdaptiveP50Ms >= low.FixedP50Ms {
		t.Errorf("low-rate adaptive p50 %.2fms should beat fixed %.2fms", low.AdaptiveP50Ms, low.FixedP50Ms)
	}
	// Low rates: a fixed window only adds delay there, so the adaptive
	// tail must not be the worse one.
	for _, row := range []AdaptivePhaseRow{low, down} {
		if row.AdaptiveP99Ms > row.FixedP99Ms {
			t.Errorf("phase %s: adaptive p99 %.2fms should not exceed fixed %.2fms", row.Phase, row.AdaptiveP99Ms, row.FixedP99Ms)
		}
	}
	// High rate: amortization kept (within 2% of the fixed policy).
	if up.AdaptiveTput < 0.98*up.FixedTput {
		t.Errorf("high-rate adaptive throughput %.0f fell behind fixed %.0f", up.AdaptiveTput, up.FixedTput)
	}
}

// TestAdaptiveStudyDeterministic pins the bit-identical contract: two
// runs of the full study — including the kernel-launch calibration —
// produce identical structs at whatever RHYTHM_HOST_PARALLELISM the
// environment sets (CI runs 1 and 4).
func TestAdaptiveStudyDeterministic(t *testing.T) {
	cfg := adaptiveConfig()
	r1 := AdaptiveStudy(cfg)
	r2 := AdaptiveStudy(cfg)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("study not deterministic:\nrun1 %+v\nrun2 %+v", r1, r2)
	}
}
