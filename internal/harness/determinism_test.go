package harness

import (
	"bytes"
	"reflect"
	"testing"

	"rhythm/internal/sim"
)

// TestHostParallelismDeterminism is the regression test for the host
// parallelism determinism contract (DESIGN.md "Host parallelism"): a
// reduced Table 3 plus a cohort-size sweep must produce IDENTICAL result
// structs — throughput, latency, per-type stats, device-derived
// utilizations — and byte-identical rendered tables whether the host
// runs fully serial (HostParallelism=1) or wide (8 workers at both the
// harness and warp level). Every sampled response of every platform
// must validate.
func TestHostParallelismDeterminism(t *testing.T) {
	run := func(hp int) (Table3Result, []CohortSizeRow, string) {
		cfg := tinyConfig()
		cfg.CPURequestsPerType = 120
		cfg.GPUCohortsPerType = 2
		cfg.HostParallelism = hp
		t3 := Table3(cfg)
		sweep := CohortSweep(cfg, []int{256, 512})
		var buf bytes.Buffer
		t3.Render().Print(&buf)
		RenderCohortSweep(sweep).Print(&buf)
		return t3, sweep, buf.String()
	}

	serialT3, serialSweep, serialOut := run(1)
	parT3, parSweep, parOut := run(8)

	for _, r := range serialT3.All() {
		for _, pt := range r.PerType {
			if pt.ValFails != 0 || pt.Errors != 0 {
				t.Errorf("%s / %v: %d validation failures, %d error responses", r.Name, pt.Type, pt.ValFails, pt.Errors)
			}
		}
	}

	if !reflect.DeepEqual(serialT3, parT3) {
		for i, srun := range serialT3.All() {
			prun := parT3.All()[i]
			if reflect.DeepEqual(srun, prun) {
				continue
			}
			for j := range srun.PerType {
				if !reflect.DeepEqual(srun.PerType[j], prun.PerType[j]) {
					t.Errorf("%s / %v diverged:\n  serial:   %+v\n  parallel: %+v",
						srun.Name, srun.PerType[j].Type, srun.PerType[j], prun.PerType[j])
				}
			}
			t.Errorf("%s aggregate diverged:\n  serial:   tput=%v lat=%v dynW=%v\n  parallel: tput=%v lat=%v dynW=%v",
				srun.Name, srun.Throughput, srun.LatencyMs, srun.DynW,
				prun.Throughput, prun.LatencyMs, prun.DynW)
		}
		t.Fatal("Table 3 results differ between serial and parallel execution")
	}
	if !reflect.DeepEqual(serialSweep, parSweep) {
		t.Fatalf("cohort sweep diverged:\n  serial:   %+v\n  parallel: %+v", serialSweep, parSweep)
	}
	if serialOut != parOut {
		t.Fatal("rendered tables differ between serial and parallel execution")
	}
}

// TestSimParallelismDeterminism is the same contract for launch-level
// parallelism (DESIGN.md §13): a reduced Table 3, the formation-timeout
// sweep under paced arrivals and the mixed-workload study on a
// two-device cluster must produce identical result structs and
// byte-identical rendered tables whether each device's epoch batches
// execute serially (SimParallelism=1) or on 8 host workers.
func TestSimParallelismDeterminism(t *testing.T) {
	run := func(sp int) (Table3Result, []TimeoutRow, WorkloadMixResult, string) {
		cfg := tinyConfig()
		cfg.CPURequestsPerType = 120
		cfg.GPUCohortsPerType = 2
		cfg.SimParallelism = sp
		t3 := Table3(cfg)
		to := TimeoutSweep(cfg, []sim.Time{200_000, 1_000_000}, 2e6)
		cs := WorkloadMixStudy(cfg, 2)
		var buf bytes.Buffer
		t3.Render().Print(&buf)
		RenderTimeouts(to).Print(&buf)
		cs.Render().Print(&buf)
		return t3, to, cs, buf.String()
	}

	serialT3, serialTO, serialCS, serialOut := run(1)
	parT3, parTO, parCS, parOut := run(8)

	if !reflect.DeepEqual(serialT3, parT3) {
		t.Error("Table 3 results differ between SimParallelism 1 and 8")
	}
	if !reflect.DeepEqual(serialTO, parTO) {
		t.Errorf("timeout sweep diverged:\n  serial:   %+v\n  parallel: %+v", serialTO, parTO)
	}
	if !reflect.DeepEqual(serialCS, parCS) {
		t.Errorf("workload mix diverged:\n  serial:   %+v\n  parallel: %+v", serialCS, parCS)
	}
	if serialOut != parOut {
		t.Fatal("rendered tables differ between SimParallelism 1 and 8")
	}
}
