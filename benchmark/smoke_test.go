package main

import (
	"os"
	"testing"
)

func catalogueNames() map[string]bool {
	names := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names[d.name] = true
	}
	return names
}

// Short real runs: the gate, set-up, a window and the result line of one
// socket workload's traced pass and one unit workload's end-to-end pass.
// No timing is asserted, only that the run is correct and speaks the
// catalogue's names.
func TestSmokeTracedSocketRun(t *testing.T) {
	cfg := runConfig{seed: 11, seconds: 0.4, clients: 1, trace: true, outDir: t.TempDir()}
	o, err := runWorkload("host_cached_reads", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.correct || o.failed != 0 || o.attempted < gateRequests {
		t.Fatalf("correct %v, failed %d, attempted %d", o.correct, o.failed, o.attempted)
	}
	names := catalogueNames()
	for k := range o.m {
		if !names[k] {
			t.Errorf("the run reports %q, which the catalogue does not list", k)
		}
	}
	for _, k := range []string{"rcache.hit_share", "rcache.get_ns", "httpx.parse_ns_per_req", "session.lookup_ns_per_req",
		"runtime.allocs_per_req", "frontend.residual_us_per_req"} {
		if o.m[k] == 0 {
			t.Errorf("%s is 0 on host_cached_reads", k)
		}
	}
	if _, err := os.Stat(cfg.tracePath("host_cached_reads")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	if got := len(o.line(perLayer).Metrics); got != len(perLayer) {
		t.Errorf("result line has %d metrics, want every per-layer metric (%d)", got, len(perLayer))
	}
}

func TestSmokeEndToEndUnitRun(t *testing.T) {
	o, err := runWorkload("fabric_tcp_hostunits", runConfig{seed: 12, seconds: 0.3, clients: 1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !o.correct || o.failed != 0 {
		t.Fatalf("correct %v, failed %d of %d", o.correct, o.failed, o.attempted)
	}
	for _, d := range endToEnd {
		if o.m[d.name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, o.m[d.name])
		}
	}
}
