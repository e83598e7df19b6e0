// Quickstart: build a Rhythm server on the simulated GTX Titan, push a
// mixed SPECWeb Banking workload through it, and print what cohort
// scheduling bought you.
//
// This is the offline simulator under virtual time, and it pins the
// paper's fixed 2ms formation timeout (§3.1) on purpose: that is the
// policy the paper evaluates. The live server (rhythm.New) defaults to
// the adaptive formation controller instead, and takes the same fixed
// policy through WithFormation's timeout.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"rhythm"
)

func main() {
	// A Titan B-style platform: integrated NIC, backend on the device,
	// cohorts of 1024 requests with 6 in flight. Mixed traffic means the
	// rare request types form cohorts slowly, so a formation timeout
	// keeps them from hogging contexts (§3.1).
	srv := rhythm.NewSimServer(rhythm.Options{
		Platform:         rhythm.TitanB,
		CohortSize:       1024,
		MaxCohorts:       6,
		FormationTimeout: 2 * time.Millisecond,
	})

	// 16 cohorts' worth of requests drawn from the Table 2 mix.
	reqs := srv.GenerateMixed(16 * 1024)
	st := srv.Serve(reqs)

	fmt.Println("Rhythm quickstart — SPECWeb Banking on a simulated SIMT device")
	fmt.Printf("  requests completed:   %d (%d error pages, %d parse rejects)\n",
		st.Completed, st.Errors, st.ParseErrors)
	fmt.Printf("  validated responses:  %d (%d failures)\n", st.Validated, st.ValidationFailures)
	fmt.Printf("  throughput:           %.2fM requests/sec of device time\n", st.Throughput/1e6)
	fmt.Printf("  mean latency:         %v (p99 %v)\n", st.MeanLatency, st.P99Latency)
	fmt.Printf("  device utilization:   %.0f%%\n", 100*st.DeviceUtilization)
	fmt.Printf("  cohorts launched:     %d (mean fill %.0f requests)\n",
		st.CohortsFormed, st.MeanOccupancy)
	fmt.Println()
	fmt.Println("Compare: the paper's Core i7 (8 threads) serves ~377K requests/sec;")
	fmt.Println("cohort scheduling on the GPU trades milliseconds of batching latency")
	fmt.Println("for several times that throughput at far better requests/Joule.")
}
