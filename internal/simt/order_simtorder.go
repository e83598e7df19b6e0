//go:build simtorder

package simt

// reordered is true under the simtorder build tag, a check of schedule
// independence (DESIGN.md §13): whatever the host schedule may reorder,
// it runs backwards — the warps of a launch that is not Ordered, the
// conflict groups of an epoch batch, ForEachLane's lanes, the warps and
// lanes of a launch's commuting commits, and TransposeLive's bands — so
// a footprint that fails to declare an order-dependent write, or a
// commit declared commuting that is not, changes a simulated number on
// every run, not on an unlucky one.
// go test -tags simtorder ./internal/service ./internal/cluster
// ./internal/harness ./internal/pipeline ./internal/backend
// ./internal/simt must pass, and `rhythm-bench -json gated` built
// with the tag must match BENCH_baseline.json bit for bit.
const reordered = true
