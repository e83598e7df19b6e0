//go:build simtorder

package simt

// reordered is true under the simtorder build tag, a check of schedule
// independence (DESIGN.md §13): whatever the host schedule may reorder,
// it runs backwards — the warps of a launch that is not Ordered, the
// conflict groups of an epoch batch, and ForEachLane's lanes — so a
// footprint that fails to declare an order-dependent write changes a
// simulated number on every run, not on an unlucky one.
// go test -tags simtorder ./internal/service ./internal/cluster
// ./internal/harness must pass, and `rhythm-bench -json gated` built
// with the tag must match BENCH_baseline.json bit for bit.
const reordered = true
