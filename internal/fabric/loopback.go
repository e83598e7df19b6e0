package fabric

import (
	"errors"
	"fmt"

	"rhythm/internal/cluster"
)

// loopback is the in-process transport: every node is a cluster.Cluster
// in this process, and Send is a direct Dispatch with the completion
// relayed synchronously from the executing device's worker goroutine —
// or, for a host unit, from the sender's own goroutine before Send
// returns.
// A single-node loopback fabric is byte- and stats-identical to the
// bare cluster the cohort server used to construct.
type loopback struct {
	nodes  []*cluster.Cluster
	onDown func(int)
}

func newLoopback(cfg *Config) *loopback {
	lb := &loopback{}
	for i := 0; i < cfg.Nodes; i++ {
		ccfg := cluster.Config{
			Registry:              cfg.Registry,
			Devices:               cfg.DevicesPerNode,
			Groups:                cfg.Groups,
			CohortSize:            cfg.CohortSize,
			SlotsPerDevice:        cfg.SlotsPerDevice,
			QueueDepth:            cfg.QueueDepth,
			SessionBuckets:        cfg.SessionBuckets,
			SessionNodesPerBucket: cfg.SessionNodesPerBucket,
			Simt:                  cfg.Simt,
			MaxAttempts:           cfg.MaxAttempts,
			Manual:                cfg.Manual,
		}
		if i == 0 {
			// Device-fault plans keep their single-node meaning: they
			// target node 0's devices (the only node in the default
			// topology). Multi-node device faults are configured on the
			// owning worker.
			ccfg.Faults = cfg.Faults
		}
		lb.nodes = append(lb.nodes, cluster.New(ccfg))
	}
	return lb
}

func (lb *loopback) Kind() string { return "loopback" }
func (lb *loopback) Nodes() int   { return len(lb.nodes) }
func (lb *loopback) NodeAddr(n int) string {
	return fmt.Sprintf("loopback/%d", n)
}

func (lb *loopback) Send(n int, u *cluster.Unit, ev func(Event)) SendStatus {
	cl := lb.nodes[n]
	if u.Host {
		// A host unit executes here, on the sender's goroutine, and
		// touches no device-level attempt or hop counter, so it goes
		// as it is.
		res, ok := cl.ExecuteHost(u)
		if !ok {
			return SendNodeDown // only a pool with no live device refuses one
		}
		ev(Event{Kind: EvDone, Res: res})
		return SendOK
	}
	// A fresh unit per attempt: the node cluster owns its copy's
	// device-level attempt/hop counters, and the fabric's envelope owns
	// the node-level trail.
	iu := &cluster.Unit{
		Type:  u.Type,
		Group: u.Group,
		Reqs:  u.Reqs,
		Done: func(res *cluster.Result) {
			if res.Err != nil && errors.Is(res.Err, cluster.ErrNoHealthyDevice) {
				// The node's last device died before this unit launched
				// (transfer shed): nothing executed, safe to retry on
				// another node.
				ev(Event{Kind: EvNack, Reason: nackNoDevice})
				return
			}
			ev(Event{Kind: EvDone, Res: res})
		},
	}
	if !cl.Dispatch(iu) {
		if !cl.Healthy() {
			return SendNodeDown
		}
		return SendBusy
	}
	return SendOK
}

// Quiesce is a no-op beyond the fabric's routing change: an in-process
// node's accepted units complete normally (the cluster's own
// quiesce-before-death discipline), and nothing new routes here.
func (lb *loopback) Quiesce(int) {}

func (lb *loopback) NodeSnapshot(n int) (cluster.Snapshot, bool) {
	return lb.nodes[n].Snapshot(), true
}

func (lb *loopback) OnNodeDown(fn func(int)) { lb.onDown = fn }

// Start starts Manual node clusters.
func (lb *loopback) Start() {
	for _, cl := range lb.nodes {
		cl.Start()
	}
}

func (lb *loopback) Close() {
	for _, cl := range lb.nodes {
		cl.Close()
	}
}
