package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"rhythm/internal/harness"
)

// TestReducedScaleGolden pins the paper's numbers: the eleven
// pipeline-driven experiments, at a scale that takes ten seconds, must
// print exactly what testdata/reduced_scale.golden holds. Their output
// is a pure function of the configuration (no wall-clock columns), so
// this guards the padding, transpose, Titan A host-backend, straggler
// and variable-stage paths of the stage kernels against any drift in
// simulated results. The golden was captured at commit eeb71d6, before
// banking moved onto the service page kit; regenerate it, deliberately,
// by running each experiment below in order with
//
//	rhythm-bench -cpu-requests 120 -gpu-cohorts 2 -cohort 256 <experiment>
func TestReducedScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven experiments (~10 s)")
	}
	want, err := os.ReadFile("testdata/reduced_scale.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.CPURequestsPerType = 120
	cfg.GPUCohortsPerType = 2
	cfg.CohortSize = 256
	var got bytes.Buffer
	for _, e := range []string{"table2", "fig2", "fig9", "ablations", "stragglers", "quick-pay",
		"gpufs", "cohort-sweep", "timeout", "hyperq", "parser"} {
		if err := run(cfg, e, false, &got); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from the golden:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, the golden %d", len(gl), len(wl))
}
