package harness

import (
	"fmt"

	"rhythm/internal/netmodel"
	"rhythm/internal/service"
)

// The Rhythm pipeline "is general and could be implemented entirely on a
// single machine or distributed across several machines... we leave
// exploring alternative implementations as future work" (§3.2). This
// projection takes the obvious first step on paper: N user-sharded
// Rhythm devices behind one front-end link. Devices share no state
// (requests shard by user id, §1), so compute scales linearly with N;
// what binds is the front end's network link, priced with the same §6.3
// byte accounting the paper uses. The projection combines the measured
// single-device rate with that analytic ingress/egress bound. The
// MEASURED counterpart — actually running N fabric nodes — is
// ScaleOutStudy in fabricscale.go.

// ScaleOutProjectionRow is one point of the device-count sweep on one
// link tier.
type ScaleOutProjectionRow struct {
	Devices    int
	LinkGbps   float64
	ComputeK   float64 // N x single-device rate, KReq/s
	LinkBoundK float64 // front-end link bound, KReq/s
	DeliveredK float64 // min of the two
	LinkBound  bool
}

// ScaleOutProjectionResult is the full sweep.
type ScaleOutProjectionResult struct {
	SingleDevice float64 // measured reqs/sec of one Titan B
	Rows         []ScaleOutProjectionRow
}

// ScaleOutProjection measures one Titan B (full workload mix) and
// projects scale-out across the IEEE 802.3 link tiers the paper cites
// (§2.2.1: 100 Gbps and 400 Gbps standards).
func ScaleOutProjection(cfg Config, counts []int) ScaleOutProjectionResult {
	run := RunTitan(cfg, TitanRunOptions{Platform: service.TitanB})
	res := ScaleOutProjectionResult{SingleDevice: run.Throughput}
	linkBound := func(gbps float64) float64 {
		return gbps * 1e9 / 8 / netmodel.NetworkBytesPerRequest()
	}
	for _, gbps := range []float64{100, 400} {
		bound := linkBound(gbps)
		for _, n := range counts {
			compute := float64(n) * run.Throughput
			delivered := compute
			if bound < delivered {
				delivered = bound
			}
			res.Rows = append(res.Rows, ScaleOutProjectionRow{
				Devices:    n,
				LinkGbps:   gbps,
				ComputeK:   compute / 1e3,
				LinkBoundK: bound / 1e3,
				DeliveredK: delivered / 1e3,
				LinkBound:  bound < compute,
			})
		}
	}
	return res
}

// Render formats the projection.
func (r ScaleOutProjectionResult) Render() *Table {
	t := &Table{
		Title: "Future work (Sec 3.2): scale-out behind one front-end link",
		Caption: fmt.Sprintf(
			"measured Titan B rate %.0fK reqs/s x N user-sharded devices, against the Sec 6.3 per-request bytes (%.1f KB); compression (Sec 6.3) would stretch every bound 5x",
			r.SingleDevice/1e3, netmodel.NetworkBytesPerRequest()/1024),
		Headers: []string{"Link", "Devices", "Compute KReq/s", "Link bound KReq/s", "Delivered KReq/s", "Binding"},
	}
	for _, row := range r.Rows {
		binding := "compute"
		if row.LinkBound {
			binding = "front-end link"
		}
		t.AddRow(fmt.Sprintf("%.0f Gbps", row.LinkGbps), fmt.Sprint(row.Devices),
			f0(row.ComputeK), f0(row.LinkBoundK), f0(row.DeliveredK), binding)
	}
	return t
}
