// Package cluster shards Rhythm's cohort pipeline across N independent
// modeled SIMT devices — the multi-GPU serving tier the paper's §6
// scaling discussion points at. Each device owns a private sim.Engine,
// device memory, streams, and cohort buffers; a dispatcher routes formed
// cohorts (Units) to devices by session affinity, with
// least-outstanding-work tie-breaking for requests that carry no state.
// The pool has a health model with injectable faults (FaultPlan) and
// fails affected work over to healthy devices under an idempotency
// contract documented in DESIGN.md §11.
//
// The pool is workload-agnostic: units carry workload-qualified type ids
// from the service registry (Config.Registry), and every execution
// surface — host scalar path, device slots, stage kernels, backend
// stores — is reached through the registry's Workload contract
// (DESIGN.md §16). All registered workloads share the devices: one
// execution slot serves cohorts of any registered type.
//
// Sharding rule: user/session state is partitioned into Groups shard
// groups, each a host-authoritative pair of {per-workload backend
// stores, session array}. A request's group is derived from its
// workload's Affinity bucket — for cookie workloads the session-array
// bucket the session ID encodes (so affinity is recovered from a cookie
// alone), for session-creating types the bucket the created session
// will land in (session.BucketFor of the posted user id), and for
// telemetry-style workloads the entity (device id) bucket. Because
// every group's array has the full host-path geometry and buckets map
// to exactly one group, the (bucket, node) slot — and therefore the
// cookie bytes and page bytes — are identical to a single shared
// array's.
//
// Concurrency contract: each device worker goroutine is the only code
// that touches its engine and device memory. A group's backend stores
// are single-writer through the group's mutex: a host unit executes
// under it on the goroutine that dispatched it, and each device lane's
// deferred backend commit takes it around the store call and the copy
// of the response into the lane's slot. Session arrays are internally
// bucket-locked. Ownership moves only after the losing device has fully
// quiesced (see device.die), so a group's device units run on one
// device at a time. Cross-goroutine visibility — health, queue depths,
// mirrored DeviceStats — goes through one cluster-wide mutex, which is
// also what makes Snapshot a single atomic pass.
package cluster

import (
	"errors"
	"sort"
	"sync"
	"time"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// ErrNoHealthyDevice is delivered as Result.Err when a unit cannot be
// placed because every device in the pool is dead.
var ErrNoHealthyDevice = errors.New("cluster: no healthy device")

// Config sizes a device pool.
type Config struct {
	// Registry is the fused workload registry the pool serves
	// (required). It fixes the type space, cohort buffer classes, group
	// backend sets, and routing affinity.
	Registry *service.Registry
	// Devices is the pool width (default 1).
	Devices int
	// Groups is the number of shard groups state is partitioned into
	// (default Devices). Groups is fixed for the pool's lifetime so that
	// failover moves whole groups between devices without resharding.
	Groups int
	// CohortSize is the slot capacity of each device cohort.
	CohortSize int
	// SlotsPerDevice is the number of concurrently executing cohort
	// contexts (streams) per device (default 4).
	SlotsPerDevice int
	// QueueDepth bounds each device's dispatch queue (default
	// 2×SlotsPerDevice). A full queue makes Dispatch report false — the
	// caller's 503 path.
	QueueDepth int
	// SessionBuckets and SessionNodesPerBucket fix every group's session
	// array geometry (defaults 256 and 1028, matching the cohort
	// server). The geometry must equal the host path's for cookie bytes
	// to match.
	SessionBuckets        int
	SessionNodesPerBucket int
	// Simt configures each device (zero value = simt.GTXTitan()).
	Simt simt.Config
	// SimParallelism caps launch-level host concurrency inside each
	// device's epoch batches (0 = all cores, 1 = serial). It is copied
	// into Simt.SimParallelism when that field is unset; see DESIGN.md
	// §13.
	SimParallelism int
	// AlignEpoch, when > 0, bounds the virtual-clock skew between device
	// workers: a device may only step its engine while its clock is
	// within AlignEpoch of the slowest busy device. 0 (the default)
	// leaves devices free-running, which is safe — per-device results
	// are worker-confined either way — but lets clocks drift apart
	// arbitrarily.
	AlignEpoch sim.Time
	// Faults optionally injects device faults (nil = none).
	Faults *FaultPlan
	// Manual defers worker startup to Start(), letting a harness prefill
	// the dispatch queues for a deterministic virtual-time run.
	Manual bool
	// MaxAttempts is how many consecutive failing launch attempts a unit
	// survives on one device before the device is declared lost and the
	// unit fails over (default 3).
	MaxAttempts int
}

func (c *Config) fill() {
	if c.Registry == nil {
		panic("cluster: Config.Registry is required")
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.Groups <= 0 {
		c.Groups = c.Devices
	}
	if c.CohortSize <= 0 {
		c.CohortSize = 128
	}
	if c.SlotsPerDevice <= 0 {
		c.SlotsPerDevice = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.SlotsPerDevice
	}
	if c.SessionBuckets <= 0 {
		c.SessionBuckets = 256
	}
	if c.SessionNodesPerBucket <= 0 {
		c.SessionNodesPerBucket = (1<<16)/256*4 + 4
	}
	if c.Simt.Name == "" {
		c.Simt = simt.GTXTitan()
	}
	if c.Simt.SimParallelism == 0 && c.SimParallelism != 0 {
		c.Simt.SimParallelism = c.SimParallelism
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
}

// Unit is one formed cohort handed to the pool: a typed batch of parsed
// requests plus the shard group whose state it touches (-1 for units
// that touch no group state — error paths any device can render).
type Unit struct {
	Type  service.TypeID
	Group int
	Reqs  []httpx.Request
	// Host routes the unit to the scalar host execution path instead of
	// the device kernels (the adaptive controller's CPU/GPU crossover,
	// DESIGN.md §12). Dispatch executes it synchronously on the calling
	// goroutine: each request runs the workload's ExecuteHost under the
	// group's mutex, which keeps the group's state single-writer against
	// the device commits, and renders outside it. A host unit is
	// attributed to the group's owning device but needs no execution
	// slot or queue place, and bypasses the fault schedule (host
	// execution doesn't touch the modeled device).
	Host bool
	// Out, when set on a one-request host unit and at least the type's
	// buffer size, is the buffer the response renders into:
	// Result.Resps[0] is then a prefix of it. Res, when set on a host
	// unit, is the Result its outcome is written into (Resps reusing its
	// backing array), so a caller that dispatches one host unit at a
	// time allocates neither. Transports that execute the unit in another
	// process ignore both.
	Out []byte
	Res *Result
	// Done receives the unit's outcome exactly once and must not block.
	// A device unit's Done runs on the executing device's worker
	// goroutine (or a dying device's, when the unit is shed with
	// Result.Err set). A host unit's Done runs on the dispatching
	// goroutine before Dispatch returns, so it must not take a lock the
	// dispatcher holds across Dispatch.
	Done func(*Result)

	// attempts counts consecutive failed launch attempts on the current
	// device; it resets when the unit fails over.
	attempts int
	// hops counts how many times the unit moved to another device
	// (failover or dead-device displacement); unlike attempts it is
	// never reset, so a Result can report the full failover trail.
	hops int
}

// StageExec is one stage kernel's execution record within a Result.
type StageExec struct {
	Stats simt.LaunchStats
	Start time.Time
	Dur   time.Duration
}

// Result is a unit's outcome. When Err is nil, Resps holds one rendered
// fixed-geometry response per request, in request order, byte-identical
// to the host path's. The slices are the caller's from Done on: nothing
// in the cluster or the fabric keeps a reference to them or writes them
// again, however the executing slot is reused, so they stay valid and
// unchanged for as long as the caller holds them (a Result has no
// release to say otherwise).
type Result struct {
	Resps       [][]byte
	Stages      []StageExec
	KernelErrs  int  // requests that took the kernel error path
	Device      int  // executing device id (-1 when shed)
	Host        bool // executed on the scalar host path (Unit.Host)
	Attempts    int  // launch attempts on the executing device (≥1)
	Hops        int  // devices the unit moved across before executing (0 = none)
	DeviceTime  sim.Time
	RenderStart time.Time
	RenderDur   time.Duration
	Err         error
}

// groupState is one shard group's host-authoritative state: one backend
// store per registered workload plus the group's session array. mu makes
// the backend stores single-writer: host units execute under it, and
// device cohorts bind the stores through commits, which store and copy
// each response under it. The session array locks its own buckets.
type groupState struct {
	mu       sync.Mutex
	bes      []service.Backend // by workload index
	commits  []service.Backend // bes behind mu (lockedBackend), by workload index
	sessions *session.Array
}

func newGroupState(reg *service.Registry, buckets, nodesPerBucket int) *groupState {
	g := &groupState{
		bes:      reg.NewBackends(),
		sessions: session.NewArray(buckets, nodesPerBucket),
	}
	for w := range g.bes {
		g.commits = append(g.commits, &lockedBackend{g: g, w: w})
	}
	return g
}

// Cluster is the device pool.
type Cluster struct {
	cfg    Config
	devs   []*device
	groups []*groupState

	// statsMu guards routing state (owner, per-device health and
	// counters, mirrored device stats) and the cluster counters. It is
	// the single lock a Snapshot needs.
	statsMu   sync.Mutex
	owner     []int // group -> device id
	failovers uint64
	retries   uint64
	sheds     uint64

	aligner *epochAligner

	stopCh    chan struct{}
	stopOnce  sync.Once
	startOnce sync.Once
	wg        sync.WaitGroup
}

// New builds the pool and (unless cfg.Manual) starts its device
// workers.
func New(cfg Config) *Cluster {
	cfg.fill()
	c := &Cluster{
		cfg:     cfg,
		owner:   make([]int, cfg.Groups),
		aligner: newEpochAligner(cfg.Devices, cfg.AlignEpoch),
		stopCh:  make(chan struct{}),
	}
	for g := 0; g < cfg.Groups; g++ {
		c.groups = append(c.groups, newGroupState(cfg.Registry, cfg.SessionBuckets, cfg.SessionNodesPerBucket))
		c.owner[g] = g % cfg.Devices
	}
	for i := 0; i < cfg.Devices; i++ {
		c.devs = append(c.devs, newDevice(c, i))
	}
	if !cfg.Manual {
		c.Start()
	}
	return c
}

// Start launches the device workers (idempotent; called by New unless
// Config.Manual).
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		for _, d := range c.devs {
			c.wg.Add(1)
			go d.run()
		}
	})
}

// Close stops the pool: workers finish their backlogs and in-flight
// launches (graceful drain), then exit. Callers must stop Dispatching
// first.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
}

// Devices reports the pool width.
func (c *Cluster) Devices() int { return c.cfg.Devices }

// GroupCount reports the shard group count.
func (c *Cluster) GroupCount() int { return c.cfg.Groups }

// Registry exposes the registry the pool serves.
func (c *Cluster) Registry() *service.Registry { return c.cfg.Registry }

// GroupSessions exposes group g's session array. Only safe to touch
// while no unit of group g is dispatched or executing (e.g. a harness
// pre-populating sessions before dispatching).
func (c *Cluster) GroupSessions(g int) *session.Array { return c.groups[g].sessions }

// SetWriteHook registers fn on every shard group's backend stores (and
// the per-device stray stores, which stateless units touch). A device
// kernel's deferred backend writes replay into the owning group's store
// through the same mutators the host path uses, so fn observes every
// committed write cluster-wide. Call before any unit is dispatched.
func (c *Cluster) SetWriteHook(fn func(uid uint64)) {
	for _, g := range c.groups {
		for _, be := range g.bes {
			be.SetWriteHook(fn)
		}
	}
	for _, d := range c.devs {
		for _, be := range d.stray.bes {
			be.SetWriteHook(fn)
		}
	}
}

// GroupFor reports the shard group a classified request routes to: its
// workload's affinity bucket mapped onto the group space, or -1 for
// requests that carry no state and may run anywhere.
func (c *Cluster) GroupFor(req *httpx.Request, t service.TypeID) int {
	b := c.cfg.Registry.Affinity(req, t, c.cfg.SessionBuckets)
	if b < 0 {
		return -1
	}
	return b % c.cfg.Groups
}

// Dispatch routes a unit to a device, reporting false when it must be
// shed: the owning device's bounded queue is full (backpressure — the
// caller's 503 path) or no healthy device exists. On false the unit was
// not enqueued and Done will not be called. A host unit executes before
// Dispatch returns (ExecuteHost); only a pool with no healthy device
// refuses one.
func (c *Cluster) Dispatch(u *Unit) bool {
	if u.Host {
		res, ok := c.ExecuteHost(u)
		if ok {
			u.Done(res)
		}
		return ok
	}
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if u.Group >= 0 {
		d := c.ownerLocked(u.Group)
		if d == nil {
			return false
		}
		return c.offerLocked(d, u)
	}
	for _, d := range c.byLoadLocked(-1) {
		if c.offerLocked(d, u) {
			return true
		}
	}
	return false
}

// scratches pools the execution contexts of host units: one per
// concurrently executing dispatcher, reset by every execution.
var scratches = sync.Pool{New: func() any { return service.NewScratch() }}

// ExecuteHost runs a host unit (Unit.Host) on the calling goroutine
// through the workload's scalar path, the reference every device
// kernel's bytes are held to, and returns its Result (u.Res when set);
// u.Done is not called. The owner is resolved as for a device unit —
// dead-owner failover included — and counts the unit as outstanding
// while it runs. Each request executes under the group's mutex and
// renders outside it, into u.Out when the unit carries one. Host units
// consume no execution slot, never advance the fault schedule, and
// leave the virtual clock alone. It reports false, executing nothing,
// when every device is dead.
func (c *Cluster) ExecuteHost(u *Unit) (*Result, bool) {
	c.statsMu.Lock()
	var d *device
	if u.Group >= 0 {
		d = c.ownerLocked(u.Group)
	} else {
		d = c.leastLoadedLocked()
	}
	if d == nil {
		c.statsMu.Unlock()
		return nil, false
	}
	d.outstanding++
	c.statsMu.Unlock()

	st := d.stateFor(u.Group)
	reg := c.cfg.Registry
	size := reg.Spec(u.Type).BufferBytes
	res := u.Res
	if res == nil {
		res = new(Result)
	}
	resps := res.Resps[:0]
	if cap(resps) < len(u.Reqs) {
		resps = make([][]byte, 0, len(u.Reqs))
	}
	*res = Result{Device: d.id, Host: true, Attempts: 1, Resps: resps[:len(u.Reqs)]}
	sc := scratches.Get().(*service.Scratch)
	res.RenderStart = time.Now()
	for i := range u.Reqs {
		st.mu.Lock()
		failed := reg.ExecuteScratch(sc, u.Type, &u.Reqs[i], st.sessions, st.bes)
		st.mu.Unlock()
		if failed {
			res.KernelErrs++
		}
		out := u.Out
		if len(u.Reqs) > 1 || len(out) < size {
			out = make([]byte, size)
		}
		res.Resps[i] = sc.Render(out)
	}
	res.RenderDur = time.Since(res.RenderStart)
	scratches.Put(sc)
	c.statsMu.Lock()
	d.outstanding--
	d.unitsDone++
	d.hostUnits++
	c.statsMu.Unlock()
	return res, true
}

// ownerLocked resolves a group's owning device, lazily failing the
// group over to the least-loaded healthy device when the owner is dead.
func (c *Cluster) ownerLocked(g int) *device {
	d := c.devs[c.owner[g]]
	if d.health != Dead {
		return d
	}
	cands := c.byLoadLocked(d.id)
	if len(cands) == 0 {
		return nil
	}
	c.owner[g] = cands[0].id
	c.failovers++
	return cands[0]
}

// byLoadLocked lists non-dead devices by ascending outstanding units
// (stable, so equal loads keep device order — deterministic routing).
func (c *Cluster) byLoadLocked(exclude int) []*device {
	out := make([]*device, 0, len(c.devs))
	for _, d := range c.devs {
		if d.id == exclude || d.health == Dead {
			continue
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].outstanding < out[j].outstanding })
	return out
}

// leastLoadedLocked is byLoadLocked(-1)'s head without the sort: the
// first non-dead device with the fewest outstanding units, or nil.
func (c *Cluster) leastLoadedLocked() *device {
	var best *device
	for _, d := range c.devs {
		if d.health != Dead && (best == nil || d.outstanding < best.outstanding) {
			best = d
		}
	}
	return best
}

// offerLocked attempts a non-blocking enqueue onto d. The send happens
// under statsMu so that once a device is marked Dead (also under
// statsMu), no new unit can ever land on its queue.
func (c *Cluster) offerLocked(d *device, u *Unit) bool {
	select {
	case d.ch <- u:
		d.outstanding++
		return true
	default:
		return false
	}
}

// transfer moves a unit off device `from` (which is dead) onto a
// healthy device, blocking until the target accepts it — accepted work
// is never dropped. isRetry marks the unit that tripped the fault (its
// failed attempts count as retries); plain backlog displacement is not
// a retry. With no healthy device left the unit is shed with
// ErrNoHealthyDevice.
func (c *Cluster) transfer(u *Unit, from int, isRetry bool) {
	u.attempts = 0
	u.hops++
	c.statsMu.Lock()
	c.devs[from].outstanding--
	if isRetry {
		c.retries++
	}
	var d *device
	if u.Group >= 0 {
		d = c.ownerLocked(u.Group)
	} else if cands := c.byLoadLocked(from); len(cands) > 0 {
		d = cands[0]
	}
	if d == nil {
		c.sheds++
		c.statsMu.Unlock()
		u.Done(&Result{Device: -1, Err: ErrNoHealthyDevice})
		return
	}
	// Reserve before sending: totalInFlight stays >0 for the whole
	// hand-off, which is what keeps the target's worker alive to
	// receive even while the pool is draining.
	d.outstanding++
	ch := d.ch
	c.statsMu.Unlock()
	ch <- u
}

// Healthy reports whether any device in the pool can still accept
// work. The fabric uses it to tell backpressure (shed and retry later)
// from a dead node (fail the node over): a Dispatch refusal with no
// healthy device left means the whole node is lost.
func (c *Cluster) Healthy() bool {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	for _, d := range c.devs {
		if d.health != Dead {
			return true
		}
	}
	return false
}

// totalInFlightLocked sums outstanding units across the pool.
func (c *Cluster) totalInFlightLocked() int {
	n := 0
	for _, d := range c.devs {
		n += d.outstanding
	}
	return n
}

func (c *Cluster) totalInFlight() int {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.totalInFlightLocked()
}

// DeviceSnapshot is one device's row in a Snapshot.
type DeviceSnapshot struct {
	ID               int              `json:"id"`
	Health           string           `json:"health"`
	QueueLen         int              `json:"queue_len"`
	Outstanding      int              `json:"outstanding"`
	UnitsDone        uint64           `json:"units_done"`
	HostUnits        uint64           `json:"host_units"`
	LaunchErrors     uint64           `json:"launch_errors"`
	Stalls           uint64           `json:"stalls"`
	Groups           []int            `json:"groups"`
	VirtualTimeUs    float64          `json:"virtual_time_us"`
	Stats            simt.DeviceStats `json:"stats"`
	ProfiledLaunches uint64           `json:"profiled_launches"`
}

// Snapshot is an atomic one-pass view of the pool: every field is read
// under a single acquisition of the cluster mutex, so a scrape during
// drain or failover can never observe torn counts across devices.
type Snapshot struct {
	Devices          []DeviceSnapshot `json:"devices"`
	Aggregate        simt.DeviceStats `json:"aggregate"`
	ProfiledLaunches uint64           `json:"profiled_launches"`
	Failovers        uint64           `json:"failovers"`
	Retries          uint64           `json:"retries"`
	Sheds            uint64           `json:"sheds"`
}

// Snapshot captures the pool state in one pass under one lock.
func (c *Cluster) Snapshot() Snapshot {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	snap := Snapshot{
		Failovers: c.failovers,
		Retries:   c.retries,
		Sheds:     c.sheds,
	}
	groupsOf := make(map[int][]int, len(c.devs))
	for g, d := range c.owner {
		groupsOf[d] = append(groupsOf[d], g)
	}
	for _, d := range c.devs {
		ds := DeviceSnapshot{
			ID:               d.id,
			Health:           d.health.String(),
			QueueLen:         len(d.ch),
			Outstanding:      d.outstanding,
			UnitsDone:        d.unitsDone,
			HostUnits:        d.hostUnits,
			LaunchErrors:     d.launchErrors,
			Stalls:           d.stalls,
			Groups:           groupsOf[d.id],
			VirtualTimeUs:    d.virtNow.Micros(),
			Stats:            d.snapStats,
			ProfiledLaunches: d.snapProfiled,
		}
		snap.Devices = append(snap.Devices, ds)
		snap.ProfiledLaunches += d.snapProfiled
		agg := &snap.Aggregate
		agg.Launches += ds.Stats.Launches
		agg.Copies += ds.Stats.Copies
		agg.CopiedBytes += ds.Stats.CopiedBytes
		agg.IssueCycles += ds.Stats.IssueCycles
		agg.MemBytes += ds.Stats.MemBytes
		agg.Transactions += ds.Stats.Transactions
		agg.IdealTxns += ds.Stats.IdealTxns
		agg.DivergentExec += ds.Stats.DivergentExec
		agg.BlockExecs += ds.Stats.BlockExecs
		agg.EnergyJ += ds.Stats.EnergyJ
		agg.BusyTime += ds.Stats.BusyTime
	}
	return snap
}

// streamIDStride offsets stream ids per device in merged launch
// profiles so each device's streams render as distinct tracks.
const streamIDStride = 100

// LaunchFloors snapshots each device's profiled-launch count, for a
// later ProfilesSince.
func (c *Cluster) LaunchFloors() []uint64 {
	floors := make([]uint64, len(c.devs))
	for i, d := range c.devs {
		if dev := d.published(); dev != nil {
			floors[i] = dev.ProfiledLaunches()
		}
	}
	return floors
}

// ProfilesSince merges every device's launch records newer than a
// LaunchFloors snapshot (nil = everything in the rings), offsetting
// stream ids by device (device i's stream s becomes i*streamIDStride+s).
// Sequence numbers are per-device, so the filter must be too. Safe from
// any goroutine — the rings are internally locked.
func (c *Cluster) ProfilesSince(floors []uint64) []simt.LaunchRecord {
	var out []simt.LaunchRecord
	for i, d := range c.devs {
		dev := d.published()
		if dev == nil {
			continue // never launched: nothing profiled
		}
		var floor uint64
		if i < len(floors) {
			floor = floors[i]
		}
		for _, lr := range dev.Profile() {
			if lr.Seq <= floor {
				continue
			}
			lr.Stream += d.id * streamIDStride
			out = append(out, lr)
		}
	}
	return out
}
