package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rhythm/internal/banking"
	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/simt"
	"rhythm/internal/workloads"
)

// The pipeline "could be implemented entirely on a single machine or
// distributed across several machines" (§3.2). This study runs the
// fabric that does it: N loopback nodes, each a one-device cluster
// behind the rendezvous-routed
// dispatcher, executing the same per-node workload (weak scaling).
// Every node gets one shard group's traffic from its own deterministic
// generator, so ideal scaling holds the slowest node's virtual time
// flat as N grows; per-node efficiency is the 1-node rate divided into
// the measured per-node rate. Manual mode prefills every node's queue
// before the devices start, making the virtual times — and the CI
// bench gate's scaleout rows of BENCH_baseline.json — bit-identical
// across runs. Kernel errors and lost units are tracked so the gate can
// hold both at zero: scale-out must not cost correctness.

// sweepTypes is the banking mix each shard group's units cycle through
// here and in WorkloadMixStudy: the three session'd read paths the load
// generator drives.
var sweepTypes = []banking.ReqType{banking.AccountSummary, banking.Profile, banking.Transfer}

// ScaleOutRow is one node count in the measured sweep.
type ScaleOutRow struct {
	Nodes       int
	Requests    int     // total requests executed across the fabric
	VirtualMs   float64 // slowest node's virtual time
	ThroughputK float64 // aggregate KReq/s of virtual time
	Efficiency  float64 // per-node rate vs the 1-node baseline (1.0 = ideal)
	KernelErrs  int     // requests that took a kernel error path
	LostWrites  uint64  // units shed with fate unknown (must stay 0)
}

// ScaleOutResult is the full measured sweep.
type ScaleOutResult struct {
	Rows []ScaleOutRow
}

// ScaleOutStudy runs the weak-scaling sweep: for each node count,
// every node executes GPUCohortsPerType cohort units of CohortSize
// banking requests against its own shard group, and throughput divides
// total requests by the slowest node's virtual clock.
func ScaleOutStudy(cfg Config, counts []int) ScaleOutResult {
	cfg.validate()
	var res ScaleOutResult
	for _, n := range counts {
		row := runScaleOutPoint(cfg, n)
		if len(res.Rows) > 0 {
			base := res.Rows[0].ThroughputK / float64(res.Rows[0].Nodes)
			row.Efficiency = row.ThroughputK / float64(row.Nodes) / base
		} else {
			row.Efficiency = 1 // first count is the baseline (normally 1 node)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runScaleOutPoint(cfg Config, nodes int) ScaleOutRow {
	devCfg := simt.GTXTitan()
	devCfg.HostParallelism = cfg.HostParallelism
	devCfg.SimParallelism = cfg.SimParallelism
	unitsPerNode := cfg.GPUCohortsPerType
	// The smallest group table that still reaches every node through
	// rendezvous routing, with compact per-group session arrays: every
	// node builds state for the full global table, so the default
	// production geometry would cost O(nodes x groups) full-size arrays
	// here. Each node's traffic targets the first group it owns.
	fab, err := fabric.New(fabric.Config{
		Registry:              workloads.Banking(),
		Nodes:                 nodes,
		DevicesPerNode:        1,
		Groups:                fabric.CoveringGroups(nodes),
		CohortSize:            cfg.CohortSize,
		SlotsPerDevice:        cfg.MaxCohorts,
		QueueDepth:            unitsPerNode, // deep enough to prefill everything
		SessionBuckets:        64,
		SessionNodesPerBucket: 128,
		Simt:                  devCfg,
		Manual:                true,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: loopback fabric construction failed: %v", err))
	}
	defer fab.Close()

	homeGroup := make([]int, nodes)
	for i := range homeGroup {
		homeGroup[i] = -1
	}
	for g := 0; g < fab.GroupCount(); g++ {
		if n := fab.OwnerOf(g); homeGroup[n] < 0 {
			homeGroup[n] = g
		}
	}
	for i, g := range homeGroup {
		if g < 0 {
			panic(fmt.Sprintf("harness: node %d owns no group of %d", i, fab.GroupCount()))
		}
	}

	var kernelErrs atomic.Int64
	var units []*cluster.Unit
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		g := homeGroup[i]
		gen := banking.NewGenerator(cfg.Seed+int64(i), fab.GroupSessions(g))
		gen.Populate(2 * cfg.CohortSize)
		for u := 0; u < unitsPerNode; u++ {
			rt := sweepTypes[u%len(sweepTypes)]
			reqs := make([]httpx.Request, cfg.CohortSize)
			for j := range reqs {
				req, err := httpx.Parse(gen.Request(rt))
				if err != nil {
					panic(fmt.Sprintf("harness: generated request failed to parse: %v", err))
				}
				reqs[j] = req
			}
			unit := &cluster.Unit{Type: service.TypeID(rt), Group: g, Reqs: reqs}
			wg.Add(1)
			unit.Done = func(r *cluster.Result) {
				if r.Err != nil {
					panic(fmt.Sprintf("harness: fabric unit failed: %v", r.Err))
				}
				kernelErrs.Add(int64(r.KernelErrs))
				wg.Done()
			}
			units = append(units, unit)
		}
	}
	for _, u := range units {
		if !fab.Dispatch(u) {
			panic("harness: fabric dispatch rejected with prefill-depth queues")
		}
	}
	fab.Start()
	wg.Wait()

	snap := fab.Snapshot()
	var maxUs float64
	for _, d := range snap.Devices {
		if d.VirtualTimeUs > maxUs {
			maxUs = d.VirtualTimeUs
		}
	}
	total := len(units) * cfg.CohortSize
	return ScaleOutRow{
		Nodes:       nodes,
		Requests:    total,
		VirtualMs:   maxUs / 1e3,
		ThroughputK: float64(total) / (maxUs / 1e6) / 1e3,
		KernelErrs:  int(kernelErrs.Load()),
		LostWrites:  snap.LostUnits,
	}
}

// Render formats the measured sweep.
func (r ScaleOutResult) Render() *Table {
	t := &Table{
		Title: "Fabric: measured scale-out sweep (weak scaling over loopback nodes)",
		Caption: "N one-device fabric nodes behind the rendezvous dispatcher; " +
			"throughput is total requests over the slowest node's virtual time",
		Headers: []string{"Nodes", "Requests", "Virtual ms", "KReq/s", "Per-node eff", "Kernel errs", "Lost"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Nodes), fmt.Sprint(row.Requests),
			f1(row.VirtualMs), f1(row.ThroughputK), f2(row.Efficiency)+"x",
			fmt.Sprint(row.KernelErrs), fmt.Sprint(row.LostWrites))
	}
	return t
}
