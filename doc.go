// Package rhythm is a reproduction of "Rhythm: Harnessing Data Parallel
// Hardware for Server Workloads" (Agrawal et al., ASPLOS 2014): a
// cohort-scheduled web server architecture that batches similar requests
// and executes them as data-parallel kernels.
//
// Because this reproduction is pure Go, the NVIDIA GTX Titan the paper
// uses is replaced by a software SIMT device model (warps, lockstep
// issue, divergence serialization, coalesced memory transactions,
// streams and HyperQ work queues) that executes the real workload —
// kernels produce byte-exact HTTP responses — while a calibrated cost
// model prices them in virtual time and energy. See DESIGN.md for the
// full substitution table and EXPERIMENTS.md for the paper-vs-measured
// results.
//
// The package exposes three ways in:
//
//   - NewSimServer: the Rhythm pipeline (Reader → Parser → Dispatch →
//     Process stages → Response) on a simulated device under virtual
//     time, serving the SPECWeb2009 Banking workload and reporting
//     throughput/latency/energy. Its formation policy is the paper's: a
//     fixed timeout.
//   - New: the one live server of the registered workloads behind a
//     real TCP listener. Requests go through the cohort pipeline under
//     one formation policy, the adaptive controller (DESIGN.md §12): a
//     request type arriving too slowly for batching to pay is answered
//     at once on the host path, by the connection that received it and
//     under its state's shard-group lock, a burst forms cohorts. Two
//     pins of that controller are the paper's baselines:
//     WithFormation's timeout is the fixed §3.1 policy, and
//     WithHostExecution is the conventional server, every request on
//     the host route.
//   - The cmd/rhythm-bench binary and the benchmarks in bench_test.go,
//     which regenerate every table and figure of the paper's evaluation.
package rhythm
