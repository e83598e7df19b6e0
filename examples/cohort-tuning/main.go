// Cohort tuning: the throughput/latency/memory trade-off of §6.4.
// Sweeps cohort sizes at saturation, then shows what a formation timeout
// does when arrivals are too slow to fill cohorts.
//
// The timeouts here are pinned on purpose — the sweep is the paper's
// fixed-timeout trade, on the offline simulator under virtual time. The
// live server (rhythm.New) makes that choice itself by default: its
// formation controller retunes the window per request type and answers
// a too-slow type on the host path (DESIGN.md §12).
//
// Run with: go run ./examples/cohort-tuning
package main

import (
	"fmt"
	"time"

	"rhythm"
)

func main() {
	fmt.Println("cohort size sweep (Titan B, account_summary, saturating arrivals)")
	fmt.Printf("%-12s %-14s %-16s %s\n", "cohort", "KReq/s", "mean latency", "p99")
	for _, size := range []int{256, 512, 1024, 2048} {
		srv := rhythm.NewSimServer(rhythm.Options{
			Platform:   rhythm.TitanB,
			CohortSize: size,
			MaxCohorts: 4,
		})
		reqs, err := srv.GenerateIsolated("account_summary", 8*size)
		if err != nil {
			panic(err)
		}
		st := srv.Serve(reqs)
		fmt.Printf("%-12d %-14.0f %-16v %v\n", size, st.Throughput/1e3, st.MeanLatency, st.P99Latency)
	}
	fmt.Println()
	fmt.Println("the paper picked 4096: bigger cohorts keep the device busier but cost")
	fmt.Println("memory (two full response buffers per request) and formation latency.")
	fmt.Println()

	fmt.Println("formation timeout under slow arrivals (50K reqs/s into 1024-slot cohorts)")
	fmt.Printf("%-12s %-14s %-16s %s\n", "timeout", "KReq/s", "mean latency", "cohorts timed out")
	for _, to := range []time.Duration{100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		srv := rhythm.NewSimServer(rhythm.Options{
			Platform:         rhythm.TitanB,
			CohortSize:       1024,
			MaxCohorts:       4,
			FormationTimeout: to,
		})
		reqs, _ := srv.GenerateIsolated("transfer", 2000)
		st := srv.ServePaced(reqs, 50_000)
		fmt.Printf("%-12v %-14.0f %-16v %d\n", to, st.Throughput/1e3, st.MeanLatency, st.CohortsTimedOut)
	}
	fmt.Println()
	fmt.Println("the timeout trades waiting against cohort fill: too long and requests")
	fmt.Println("sit in half-empty cohorts; too short and tiny launches waste the device.")
	fmt.Println("the paper leaves the value a policy decision (Sec 3.1) — Rhythm provides")
	fmt.Println("the mechanism.")
}
