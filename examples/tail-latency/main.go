// Tail latency: the §3.1 straggler timeout in action. A Titan A-style
// platform (remote backend over PCIe) is subjected to a heavy-tailed
// backend — a few percent of lookups stall for tens of milliseconds.
// Without a deadline, one stalled lookup holds its entire cohort hostage;
// with one, the cohort proceeds and the stragglers finish on the host
// CPU, exactly as the paper sketches.
//
// Run with: go run ./examples/tail-latency
package main

import (
	"fmt"
	"time"

	"rhythm"
)

func main() {
	fmt.Println("tail latency under a heavy-tailed backend (Titan A, bill_pay)")
	fmt.Println("3% of backend lookups stall 1000x the normal service time")
	fmt.Println()
	fmt.Printf("%-28s %-12s %-14s %-14s %s\n",
		"straggler deadline", "KReq/s", "mean latency", "p99 latency", "shed to host")

	for _, deadline := range []time.Duration{0, 2 * time.Millisecond, 500 * time.Microsecond} {
		srv := rhythm.NewSimServer(rhythm.Options{
			Platform:          rhythm.TitanA,
			CohortSize:        512,
			MaxCohorts:        4,
			BackendTailProb:   0.03,
			BackendTailFactor: 1000,
			StragglerTimeout:  deadline,
			ValidateEvery:     0,
		})
		reqs, err := srv.GenerateIsolated("bill_pay", 8*512)
		if err != nil {
			panic(err)
		}
		st := srv.Serve(reqs)
		name := deadline.String()
		if deadline == 0 {
			name = "none (wait for all)"
		}
		fmt.Printf("%-28s %-12.0f %-14v %-14v %d\n",
			name, st.Throughput/1e3, st.MeanLatency.Round(10*time.Microsecond),
			st.P99Latency.Round(10*time.Microsecond), st.Stragglers)
	}

	fmt.Println()
	fmt.Println("without a deadline every request in a cohort inherits the slowest")
	fmt.Println("lookup's stall; the deadline trades a little host CPU work for an")
	fmt.Println("order of magnitude of tail latency (paper Sec 3.1).")
}
