// Package fabric is Rhythm's remote device tier: it takes the formed
// cohorts the frontend's dispatch loop produces and ships them to
// device *nodes* — each node a full cluster.Cluster of modeled SIMT
// devices — over a pluggable Transport. The loopback transport keeps
// every node in-process (the default, byte-identical to the single
// cluster the cohort server used to own); the tcp transport dials
// `rhythmd -worker` processes and speaks the multiplexed wire protocol
// in wire.go. DESIGN.md §17 documents the framing, the backpressure
// rules, and the node failover state machine.
//
// Routing is consistent-hash session affinity lifted one level: every
// node's cluster is built with the same *global* shard-group table, a
// request's group is derived exactly as before (workload affinity
// bucket mod total groups), and the fabric assigns each group to a node
// by rendezvous (highest-random-weight) hashing over the live node set.
// Node death therefore moves only the dead node's groups, and the
// assignment is a pure function of (group, live nodes) — identical on
// loopback and tcp, which is what keeps the transports byte-identical.
//
// Failover extends the cluster's quiesce-before-death discipline to
// whole nodes: a dying node completes every unit it has launched
// (their Besim writes commit exactly once) and NACKs units it never
// launched; the fabric marks the node down, re-routes its groups, and
// re-dispatches NACKed units with the hop recorded in Result.Hops so
// flight-recorder attempt trails survive the move. A connection that
// dies *without* the bye handshake leaves its in-flight units' fates
// unknown; those are shed with an error, never retried — at-most-once,
// the same contract a lost device gives.
package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"rhythm/internal/cluster"
	"rhythm/internal/httpx"
	"rhythm/internal/netmodel"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// ErrNoNode is delivered as Result.Err when a unit cannot be placed on
// any live node (every node down, or re-dispatch after a NACK found no
// taker).
var ErrNoNode = errors.New("fabric: no routable node")

// ErrUnitLost is delivered as Result.Err when the link to a node died
// with the unit's fate unknown. The unit may have executed — it is
// never re-dispatched (the exactly-once write guarantee), so the
// request sheds.
var ErrUnitLost = errors.New("fabric: node connection lost with unit in flight")

// Event is a transport's completion report for one shipped unit.
// Exactly one Event follows every accepted Send.
type Event struct {
	Kind EventKind
	// Res is the execution result (EvDone only).
	Res *cluster.Result
	// Reason is the nack reason (EvNack only): nackQuiesce, nackNoDevice
	// or nackBusy.
	Reason byte
	// WireBytes is the inbound frame size on tcp (0 on loopback, whose
	// bus bytes are fully charged at dispatch).
	WireBytes int
}

// EventKind classifies a completion event.
type EventKind int

const (
	// EvDone: the unit executed (possibly with Res.Err set by the node's
	// own shed path).
	EvDone EventKind = iota
	// EvNack: the node refused the unit before launching it. Reason
	// nackQuiesce / nackNoDevice mean the node is gone — mark it down
	// and re-dispatch (safe: nothing executed). Reason nackBusy is pure
	// backpressure — shed, the node stays up.
	EvNack
	// EvLost: the connection died with the unit in flight; fate unknown,
	// never retried.
	EvLost
)

// SendStatus is a Transport.Send's synchronous verdict.
type SendStatus int

const (
	// SendOK: accepted; an Event will follow.
	SendOK SendStatus = iota
	// SendBusy: refused by backpressure (bounded queue full). No Event.
	SendBusy
	// SendNodeDown: the node cannot take work at all (dead cluster,
	// closed connection). No Event; the fabric marks the node down and
	// re-routes.
	SendNodeDown
)

// Transport ships units to nodes. Implementations: loopback (in-process
// clusters) and tcp (remote rhythmd -worker processes). All methods are
// safe for concurrent use; ev callbacks may fire on transport-internal
// goroutines and must not be called after Close returns.
type Transport interface {
	// Kind names the transport ("loopback", "tcp") for /v1/topology.
	Kind() string
	// Nodes reports the node count (fixed for the transport's lifetime).
	Nodes() int
	// NodeAddr names node n (listen address on tcp, "loopback/N" else).
	NodeAddr(n int) string
	// Send ships u to node n. On SendOK exactly one ev call follows.
	Send(n int, u *cluster.Unit, ev func(Event)) SendStatus
	// Quiesce asks node n to drain: complete launched units, NACK the
	// rest, then report bye. Idempotent.
	Quiesce(n int)
	// NodeSnapshot fetches node n's cluster snapshot (a blocking RPC on
	// tcp, bounded by an internal timeout; ok=false when unreachable).
	NodeSnapshot(n int) (cluster.Snapshot, bool)
	// OnNodeDown registers the fabric's node-death callback: called at
	// most once per node, when the transport learns the node is gone
	// (bye received, connection lost, cluster dead).
	OnNodeDown(fn func(n int))
	// Close tears the transport down. Loopback closes its clusters; tcp
	// closes its connections.
	Close()
}

// Config sizes a fabric.
type Config struct {
	// Registry is the fused workload registry (required). With tcp
	// nodes, the workers must be built from an identical registry — the
	// hello handshake enforces it by fingerprint.
	Registry *service.Registry
	// Nodes is the loopback node count (default 1). Ignored when Addrs
	// or Transport is set.
	Nodes int
	// Addrs lists tcp worker addresses; non-empty selects the tcp
	// transport with one node per address.
	Addrs []string
	// Transport overrides transport construction entirely (tests).
	Transport Transport
	// DevicesPerNode is each node's modeled device count (default 1).
	// Loopback only; tcp workers size themselves.
	DevicesPerNode int
	// Groups is the GLOBAL shard-group count (default nodes ×
	// DevicesPerNode). Every node's cluster is built with all Groups
	// groups so group state exists wherever routing may land — that, plus
	// the full host session-array geometry per group, is what makes
	// responses byte-identical across node counts and transports.
	Groups int
	// Cluster geometry threaded to each loopback node (see
	// cluster.Config).
	CohortSize            int
	SlotsPerDevice        int
	QueueDepth            int
	SessionBuckets        int
	SessionNodesPerBucket int
	Simt                  simt.Config
	MaxAttempts           int
	// Faults injects device-level faults into loopback node 0 (the
	// single-node default keeps the existing rhythm.WithFaultPlan
	// semantics; multi-node device faults are a worker-side concern).
	// New rejects it on a tcp fabric and past DevicesPerNode.
	Faults *cluster.FaultPlan
	// NodeFaults kills whole nodes deterministically (failover drills):
	// the fabric quiesces the node once it has accepted the configured
	// unit count, and the triggering unit re-routes with a recorded hop.
	// New rejects a node outside [0, Nodes).
	NodeFaults *NodeFaultPlan
	// LinkBps budgets each node's link in bytes/sec (0 = unmetered):
	// the NIC in front of a tcp worker, the PCIe bus in front of a
	// loopback node. Saturation sheds with 503 (netmodel.Link).
	LinkBps float64
	// Manual defers loopback node startup to Start() (harness prefill).
	Manual bool
}

func (c *Config) fill() {
	if c.Registry == nil {
		panic("fabric: Config.Registry is required")
	}
	if len(c.Addrs) > 0 {
		c.Nodes = len(c.Addrs)
	}
	if c.Transport != nil {
		c.Nodes = c.Transport.Nodes()
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.DevicesPerNode <= 0 {
		c.DevicesPerNode = 1
	}
	if c.Groups <= 0 {
		c.Groups = c.Nodes * c.DevicesPerNode
	}
}

// NodeFault kills one node after it has accepted a number of units.
type NodeFault struct {
	Node int `json:"node"`
	// AfterUnits: the fault trips when the node's accepted-unit count
	// reaches this value — the (AfterUnits+1)-th unit is never sent and
	// re-routes instead.
	AfterUnits uint64 `json:"after_units"`
}

// NodeFaultPlan is a deterministic node-kill schedule.
type NodeFaultPlan struct {
	Faults []NodeFault `json:"faults"`
}

// ParseNodeFaultPlan decodes a JSON node-fault schedule:
//
//	{"faults": [{"node": 1, "after_units": 0}]}
func ParseNodeFaultPlan(data []byte) (*NodeFaultPlan, error) {
	var p NodeFaultPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fabric: parsing node fault plan: %w", err)
	}
	for i, nf := range p.Faults {
		if nf.Node < 0 {
			return nil, fmt.Errorf("fabric: node fault %d: negative node %d", i, nf.Node)
		}
	}
	return &p, nil
}

// LoadNodeFaultPlan reads and parses a JSON node-fault schedule file.
func LoadNodeFaultPlan(path string) (*NodeFaultPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseNodeFaultPlan(data)
}

// nodeState is the fabric's bookkeeping for one node.
type nodeState struct {
	up          bool
	addr        string
	link        *netmodel.Link
	dispatched  uint64 // units accepted by the node
	completed   uint64
	nacked      uint64
	lost        uint64
	outstanding int
	// lastSnap caches the node's last good cluster snapshot so a stats
	// scrape during a worker hiccup degrades to stale rather than empty.
	lastSnap   cluster.Snapshot
	hasSnap    bool
	faultAfter uint64 // 0 = no pending node fault
	hasFault   bool
}

// Fabric routes formed cohorts across device nodes. It exposes the same
// dispatch surface cluster.Cluster gave the cohort server — GroupFor,
// Dispatch, Snapshot, Close — plus the node-level topology view.
type Fabric struct {
	cfg Config
	reg *service.Registry
	tr  Transport

	// specBusBytes prices one request of each type on the modeled bus
	// (loopback link charging), indexed by TypeID.
	specBusBytes []int

	mu            sync.Mutex
	nodes         []nodeState
	pref          [][]int // group -> node preference order (rendezvous)
	nodeFailovers uint64
	nodeRetries   uint64
	linkSheds     uint64
	lostUnits     uint64
}

// envelope tracks one unit across node hops. hops counts node moves
// (NACK re-dispatches), folded into Result.Hops on completion so the
// flight recorder's attempt trail survives cross-node retries; n is the
// node of the send in flight. Envelopes are pooled, and each binds its
// transport callback (ev) once, so a dispatch allocates neither.
type envelope struct {
	f    *Fabric
	u    *cluster.Unit
	hops int
	n    int
	ev   func(Event)
}

var envelopes sync.Pool

// event relays the transport's completion of the send in flight.
func (env *envelope) event(ev Event) { env.f.handleEvent(env, env.n, ev) }

// finish hands the unit's outcome to its caller and returns the
// envelope to the pool: no Event can follow the last one.
func (env *envelope) finish(res *cluster.Result) {
	done := env.u.Done
	env.f, env.u = nil, nil
	envelopes.Put(env)
	done(res)
}

// checkFaults rejects a fault plan that could never fire: a device
// fault past the node's devices, device faults on any transport but
// loopback (a tcp worker takes its own plan), or a node fault outside
// the fabric's nodes.
func (c *Config) checkFaults() error {
	if c.Faults != nil && len(c.Faults.Faults) > 0 && (len(c.Addrs) > 0 || c.Transport != nil) {
		return errors.New("fabric: a device fault plan reaches loopback devices only; give a tcp worker its own")
	}
	if c.Faults != nil {
		for i, f := range c.Faults.Faults {
			if f.Device >= c.DevicesPerNode {
				return fmt.Errorf("fabric: fault %d: device %d, but a node has %d", i, f.Device, c.DevicesPerNode)
			}
		}
	}
	if c.NodeFaults != nil {
		for i, nf := range c.NodeFaults.Faults {
			if nf.Node < 0 || nf.Node >= c.Nodes {
				return fmt.Errorf("fabric: node fault %d: node %d, but the fabric has %d", i, nf.Node, c.Nodes)
			}
		}
	}
	return nil
}

// New builds the fabric and its transport. Loopback nodes start their
// device workers immediately unless cfg.Manual. A fault plan that could
// never fire is an error (Config.checkFaults).
func New(cfg Config) (*Fabric, error) {
	cfg.fill()
	if err := cfg.checkFaults(); err != nil {
		return nil, err
	}
	f := &Fabric{
		cfg:          cfg,
		reg:          cfg.Registry,
		specBusBytes: make([]int, cfg.Registry.NumTypes()),
	}
	for t := range f.specBusBytes {
		f.specBusBytes[t] = netmodel.BusBytesPerSpec(cfg.Registry.Spec(service.TypeID(t)))
	}
	switch {
	case cfg.Transport != nil:
		f.tr = cfg.Transport
	case len(cfg.Addrs) > 0:
		// dialTCP adopts the workers' global group table into cfg.Groups.
		tr, err := dialTCP(&cfg)
		if err != nil {
			return nil, err
		}
		f.tr = tr
	default:
		f.tr = newLoopback(&cfg)
	}
	f.cfg = cfg
	n := f.tr.Nodes()
	f.nodes = make([]nodeState, n)
	for i := range f.nodes {
		f.nodes[i] = nodeState{
			up:   true,
			addr: f.tr.NodeAddr(i),
			link: netmodel.NewLink(cfg.LinkBps),
		}
	}
	if cfg.NodeFaults != nil {
		for _, nf := range cfg.NodeFaults.Faults {
			f.nodes[nf.Node].faultAfter = nf.AfterUnits
			f.nodes[nf.Node].hasFault = true
		}
	}
	f.pref = buildPreferences(cfg.Groups, n)
	f.tr.OnNodeDown(f.nodeDown)
	return f, nil
}

// rdvHash mixes (group, node) into a deterministic 64-bit weight — a
// splitmix64 finalizer, the same on every platform, so loopback and tcp
// fabrics with equal node counts route identically.
func rdvHash(g, n int) uint64 {
	x := uint64(g)*0x9E3779B97F4A7C15 + uint64(n)*0xC2B2AE3D27D4EB4F + 0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// buildPreferences precomputes each group's node preference order by
// descending rendezvous weight. The group's owner is the first live
// node in its order, so node death disturbs only the dead node's
// groups (each slides to its own next preference — no global reshard).
func buildPreferences(groups, nodes int) [][]int {
	pref := make([][]int, groups)
	for g := 0; g < groups; g++ {
		order := make([]int, nodes)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return rdvHash(g, order[a]) > rdvHash(g, order[b])
		})
		pref[g] = order
	}
	return pref
}

// CoveringGroups reports the smallest global group count >= nodes for
// which rendezvous routing gives every one of nodes live nodes at
// least one group. Weak-scaling harnesses use it to build the cheapest
// group table that still lets them address each node through a group
// it owns; production fabrics should instead over-provision groups
// (the default nodes × devices) so failover has somewhere to spread.
func CoveringGroups(nodes int) int {
	for g := nodes; ; g++ {
		covered := make([]bool, nodes)
		count := 0
		for grp := 0; grp < g && count < nodes; grp++ {
			best, bestW := 0, rdvHash(grp, 0)
			for n := 1; n < nodes; n++ {
				if w := rdvHash(grp, n); w > bestW {
					best, bestW = n, w
				}
			}
			if !covered[best] {
				covered[best] = true
				count++
			}
		}
		if count == nodes {
			return g
		}
	}
}

// GroupCount reports the global shard-group count.
func (f *Fabric) GroupCount() int { return f.cfg.Groups }

// GroupFor reports the global shard group a classified request routes
// to — the same affinity-bucket-mod-groups rule the cluster used, over
// the fabric-wide group table.
func (f *Fabric) GroupFor(req *httpx.Request, t service.TypeID) int {
	buckets := f.cfg.SessionBuckets
	if buckets <= 0 {
		buckets = 256
	}
	b := f.reg.Affinity(req, t, buckets)
	if b < 0 {
		return -1
	}
	return b % f.cfg.Groups
}

// OwnerOf reports the node a group currently routes to (-1 when every
// node is down). Exposed for tests and topology introspection.
func (f *Fabric) OwnerOf(g int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ownerLocked(g)
}

func (f *Fabric) ownerLocked(g int) int {
	for _, n := range f.pref[g] {
		if f.nodes[n].up {
			return n
		}
	}
	return -1
}

// leastLoadedLocked picks the live node with the fewest outstanding
// units (stable by id) for stateless units.
func (f *Fabric) leastLoadedLocked() int {
	best, bestOut := -1, 0
	for i := range f.nodes {
		if !f.nodes[i].up {
			continue
		}
		if best < 0 || f.nodes[i].outstanding < bestOut {
			best, bestOut = i, f.nodes[i].outstanding
		}
	}
	return best
}

// Dispatch routes one formed cohort to its group's node, reporting
// false when the unit must shed: every node down, the owner's link
// budget exhausted, or the owner's queues full. On false the unit was
// not shipped and Done will not be called. On true Done is called
// exactly once: from a transport goroutine, except that on loopback a
// host unit's Done runs on the caller's goroutine before Dispatch
// returns (cluster.Unit.Done).
func (f *Fabric) Dispatch(u *cluster.Unit) bool {
	env, _ := envelopes.Get().(*envelope)
	if env == nil {
		env = new(envelope)
		env.ev = env.event
	}
	env.f, env.u, env.hops = f, u, 0
	if !f.dispatch(env) {
		env.f, env.u = nil, nil
		envelopes.Put(env)
		return false
	}
	return true
}

// dispatch places (or re-places, after a node fault or NACK) an
// envelope. Each iteration either ships the unit, resolves to a shed,
// or — when the routed node trips its fault plan or refuses as down —
// marks the node dead and retries the next preference.
func (f *Fabric) dispatch(env *envelope) bool {
	u := env.u
	for {
		f.mu.Lock()
		var n int
		if u.Group >= 0 {
			n = f.ownerLocked(u.Group)
		} else {
			n = f.leastLoadedLocked()
		}
		if n < 0 {
			f.mu.Unlock()
			return false
		}
		ns := &f.nodes[n]
		// Deterministic node-kill drill: the node dies the moment its
		// accepted count reaches the plan's threshold. The triggering
		// unit is never sent — exactly-once trivially holds — and
		// re-routes with a recorded hop, exercising the same path a
		// worker-initiated quiesce NACK takes.
		if ns.hasFault && ns.dispatched >= ns.faultAfter {
			ns.hasFault = false
			f.markDownLocked(n)
			f.nodeRetries++
			env.hops++
			f.mu.Unlock()
			f.tr.Quiesce(n)
			continue
		}
		if !ns.link.Admit(f.unitBytes(n, u)) {
			f.linkSheds++
			f.mu.Unlock()
			return false
		}
		ns.dispatched++
		ns.outstanding++
		f.mu.Unlock()

		env.n = n
		st := f.tr.Send(n, u, env.ev)
		switch st {
		case SendOK:
			return true
		case SendBusy:
			f.mu.Lock()
			f.nodes[n].dispatched--
			f.nodes[n].outstanding--
			f.mu.Unlock()
			return false
		default: // SendNodeDown
			f.mu.Lock()
			f.nodes[n].dispatched--
			f.nodes[n].outstanding--
			f.markDownLocked(n)
			f.nodeRetries++
			env.hops++
			f.mu.Unlock()
		}
	}
}

// unitBytes prices a unit on node n's link: exact frame bytes for tcp,
// the modeled §6.1.1 bus bytes for loopback.
func (f *Fabric) unitBytes(n int, u *cluster.Unit) int {
	if f.tr.Kind() == "tcp" {
		return dispatchWireBytes(u.Reqs)
	}
	return len(u.Reqs) * f.specBusBytes[u.Type]
}

// handleEvent consumes one transport completion on a transport
// goroutine.
func (f *Fabric) handleEvent(env *envelope, n int, ev Event) {
	switch ev.Kind {
	case EvDone:
		f.mu.Lock()
		f.nodes[n].outstanding--
		f.nodes[n].completed++
		if ev.WireBytes > 0 {
			f.nodes[n].link.NoteRecv(ev.WireBytes)
		}
		f.mu.Unlock()
		res := ev.Res
		res.Hops += env.hops
		env.finish(res)
	case EvNack:
		f.mu.Lock()
		f.nodes[n].outstanding--
		f.nodes[n].nacked++
		if ev.WireBytes > 0 {
			f.nodes[n].link.NoteRecv(ev.WireBytes)
		}
		if ev.Reason == nackBusy {
			f.mu.Unlock()
			env.finish(&cluster.Result{Device: -1, Err: cluster.ErrNoHealthyDevice})
			return
		}
		// Quiesce / no-device: the node is gone and the unit never
		// launched — re-dispatch on the next preference, recording the
		// hop so the flight trail shows the move.
		f.markDownLocked(n)
		f.nodeRetries++
		env.hops++
		f.mu.Unlock()
		if !f.dispatch(env) {
			env.finish(&cluster.Result{Device: -1, Err: ErrNoNode})
		}
	case EvLost:
		f.mu.Lock()
		f.nodes[n].outstanding--
		f.nodes[n].lost++
		f.lostUnits++
		f.markDownLocked(n)
		f.mu.Unlock()
		env.finish(&cluster.Result{Device: -1, Err: ErrUnitLost})
	}
}

// nodeDown is the transport's node-death callback (bye received,
// connection lost).
func (f *Fabric) nodeDown(n int) {
	f.mu.Lock()
	f.markDownLocked(n)
	f.mu.Unlock()
}

// markDownLocked transitions a node to down once, counting the
// failover. Group re-routing is implicit: ownerLocked skips down nodes.
func (f *Fabric) markDownLocked(n int) {
	if !f.nodes[n].up {
		return
	}
	f.nodes[n].up = false
	f.nodeFailovers++
}

// KillNode quiesces node n (testing and operational drills): the node
// completes its launched units, NACKs the rest, and the fabric re-routes
// its groups.
func (f *Fabric) KillNode(n int) {
	f.mu.Lock()
	f.markDownLocked(n)
	f.mu.Unlock()
	f.tr.Quiesce(n)
}

// Start starts Manual loopback nodes (no-op otherwise).
func (f *Fabric) Start() {
	if lb, ok := f.tr.(*loopback); ok {
		lb.Start()
	}
}

// Close tears down the transport (loopback: close node clusters; tcp:
// close connections). Callers must stop Dispatching first.
func (f *Fabric) Close() { f.tr.Close() }

// --- loopback-only surfaces ---
//
// The render cache and live launch-profile merging need in-process
// access to node state; with a tcp transport they report absent and the
// cohort server disables the dependent features (DESIGN.md §17).

// SetWriteHook registers fn on every loopback node's backend stores,
// reporting false (and registering nothing) on remote transports —
// remote workers' writes commit in their own process.
func (f *Fabric) SetWriteHook(fn func(uid uint64)) bool {
	lb, ok := f.tr.(*loopback)
	if !ok {
		return false
	}
	for _, cl := range lb.nodes {
		cl.SetWriteHook(fn)
	}
	return true
}

// GroupSessions exposes a group's session array on its OWNING loopback
// node (nil on remote transports, or when every node is down). The
// render cache reads it bucket-locked; writes stay single-writer on
// the owning node's device workers.
func (f *Fabric) GroupSessions(g int) *session.Array {
	lb, ok := f.tr.(*loopback)
	if !ok {
		return nil
	}
	n := f.OwnerOf(g)
	if n < 0 {
		return nil
	}
	return lb.nodes[n].GroupSessions(g)
}

// nodeProfileStride offsets stream ids per node in merged launch
// profiles, one level above the cluster's per-device stride.
const nodeProfileStride = 10000

// LaunchFloors snapshots per-node launch floors for ProfilesSince.
func (f *Fabric) LaunchFloors() [][]uint64 {
	lb, ok := f.tr.(*loopback)
	if !ok {
		return nil
	}
	out := make([][]uint64, len(lb.nodes))
	for i, cl := range lb.nodes {
		out[i] = cl.LaunchFloors()
	}
	return out
}

// ProfilesSince merges every loopback node's launch records newer than
// a LaunchFloors snapshot (nil floors = everything in the rings; empty
// on remote transports — remote rings live in the worker process).
func (f *Fabric) ProfilesSince(floors [][]uint64) []simt.LaunchRecord {
	lb, ok := f.tr.(*loopback)
	if !ok {
		return nil
	}
	var out []simt.LaunchRecord
	for i, cl := range lb.nodes {
		var fl []uint64
		if i < len(floors) {
			fl = floors[i]
		}
		for _, rec := range cl.ProfilesSince(fl) {
			rec.Stream += i * nodeProfileStride
			out = append(out, rec)
		}
	}
	return out
}
