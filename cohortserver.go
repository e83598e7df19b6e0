package rhythm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/adapt"
	"rhythm/internal/cluster"
	"rhythm/internal/cohort"
	"rhythm/internal/fabric"
	"rhythm/internal/flight"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// CohortOptions tunes the live cohort-batched server.
type CohortOptions struct {
	// Registry is the workload registry the server serves (nil =
	// DefaultRegistry(): banking, ecom, telemetry). Classification,
	// shard-group affinity, device cohort geometry, render-cache
	// eligibility, and the metrics/stats label universe all derive from
	// it (DESIGN.md §16).
	Registry *service.Registry
	// CohortSize is the number of requests batched per cohort (default
	// 128 — live traffic forms far smaller cohorts than the offline
	// saturation harness).
	CohortSize int
	// MaxCohorts is the number of cohort formation contexts in flight
	// across the whole pool (default 4×Devices). Each device gets
	// MaxCohorts/Devices execution slots.
	MaxCohorts int
	// Devices is the width of the SIMT device pool formed cohorts are
	// dispatched onto (default 1). State shards across Devices groups
	// by session affinity; see internal/cluster and DESIGN.md §11.
	Devices int
	// FaultPlan optionally injects device faults (nil = none); see
	// cluster.FaultPlan.
	FaultPlan *cluster.FaultPlan
	// Nodes splits the device pool into this many in-process fabric
	// nodes of Devices modeled devices each (default 1 — the classic
	// single-cluster topology), routed by rendezvous-hashed session
	// affinity over a global shard-group table (DESIGN.md §17).
	Nodes int
	// WorkerAddrs lists remote `rhythmd -worker` addresses; non-empty
	// selects the tcp fabric transport with one node per address.
	// Workers size their own device pools, so Devices/Nodes only shape
	// the frontend's defaults. Render caching and live launch-profile
	// merging need in-process device state and disable themselves.
	WorkerAddrs []string
	// LinkBps budgets each fabric node's link in bytes/sec (0 =
	// unmetered): the NIC in front of a tcp worker, the modeled PCIe
	// bus in front of a loopback node. A saturated link sheds with 503
	// (internal/netmodel; counters in /v1/topology).
	LinkBps float64
	// NodeFaultPlan kills whole fabric nodes deterministically
	// (failover drills); see fabric.NodeFaultPlan.
	NodeFaultPlan *fabric.NodeFaultPlan
	// WorkloadQuotas caps each named workload's share (0 < share ≤ 1)
	// of admission capacity: a workload holding more than
	// share×(4×CohortSize+OverflowLimit) concurrent in-flight requests —
	// the admission queue plus the overflow park — sheds with 503,
	// counted per workload in /v1/stats (workload_sheds) and
	// /v1/metrics (rhythm_shed_total).
	WorkloadQuotas map[string]float64
	// FormationTimeout, when non-zero and no SLO is set, pins the
	// formation controller to the paper's fixed §3.1 policy: every
	// cohort launches when full or this long after its first request
	// (negative: never by timeout, for tests that exercise drain of
	// partial cohorts), and nothing takes the host route. Zero (the
	// default) leaves the controller adaptive; see SLO.
	FormationTimeout time.Duration
	// RequestDeadline bounds a request's end-to-end residence including
	// formation delay; past it the connection gets a 504 (default 5s).
	// The request may still complete server-side — the deadline releases
	// the connection, not the cohort slot.
	RequestDeadline time.Duration
	// OverflowLimit bounds requests parked because every cohort context
	// is Busy (default 2×CohortSize; negative means no parking — reject
	// the moment the pool has no free context).
	OverflowLimit int
	// MaxSessions sizes the session array (default 1<<16). The bucket
	// geometry matches NewTCPServer so host and cohort mode create
	// identical session ids for identical request streams.
	MaxSessions int
	// SLO is the p99 latency target of the formation controller
	// (internal/adapt, DESIGN.md §12), the server's one formation
	// policy: windows and early-launch thresholds are retuned per
	// request type from the observed arrival rate and the measured
	// service model, and a type below its crossover rate is answered on
	// the scalar host path by the connection that received it, under its
	// shard group's lock.
	// Zero means 50ms, unless FormationTimeout pins the fixed policy; an
	// explicit SLO wins over a FormationTimeout given beside it.
	SLO time.Duration
	// AdaptTick is the controller's retuning period (default 100ms); a
	// pinned controller only refreshes its arrival rates on it.
	AdaptTick time.Duration
	// CrossoverRate tunes the host/device routing crossover in req/s: 0
	// derives it from the measured service model, >0 uses the explicit
	// rate, <0 disables the host route (always batch). A pinned
	// controller never routes to the host.
	CrossoverRate float64
	// HostParallelism caps the host workers executing kernel warps
	// (0 = all cores; see DESIGN.md §8).
	HostParallelism int
	// SimParallelism caps the host workers executing independent kernel
	// launches of one device epoch batch concurrently (0 = all cores;
	// see DESIGN.md §13). Simulated results are bit-identical at every
	// setting.
	SimParallelism int
	// ProfileOff disables the device's kernel-launch profiler
	// (simt.Config.ProfileOff). On by default: recording is
	// zero-allocation and costs <2% (BenchmarkProfilerOverhead).
	ProfileOff bool
	// RenderCache, when positive, enables the whole-page render cache
	// with roughly this many entries: repeated read-only requests are
	// answered from memory before admission, bypassing cohort formation
	// and kernel launch entirely, byte-identical to a fresh render.
	// Invalidation hooks the shard groups' Besim write commit (see
	// internal/rcache and DESIGN.md §14). Zero disables caching.
	RenderCache int
	// FlightRing sizes the flight recorder's anomaly ring (0 = default
	// 256); FlightSlow sets an explicit slow-promotion threshold (0 =
	// adaptive p99 estimate). See internal/flight and DESIGN.md §15.
	FlightRing int
	FlightSlow time.Duration
	// HealthObjective is the /v1/health burn-rate objective (0 = 0.99);
	// HealthFastWindow and HealthSlowWindow are the burn evaluation
	// horizons (0 = 5m and 1h). The latency target the counts classify
	// against is SLO when set explicitly, else 250ms — the controller's
	// default target is a formation budget, not a health objective.
	HealthObjective  float64
	HealthFastWindow time.Duration
	HealthSlowWindow time.Duration
}

// validate rejects what fill cannot default: a negative cohort size or
// context count, and a quota share outside (0, 1].
func (o *CohortOptions) validate() error {
	if o.CohortSize < 0 {
		return fmt.Errorf("rhythm: CohortSize %d is negative", o.CohortSize)
	}
	if o.MaxCohorts < 0 {
		return fmt.Errorf("rhythm: MaxCohorts %d is negative", o.MaxCohorts)
	}
	for name, share := range o.WorkloadQuotas {
		if !(share > 0 && share <= 1) {
			return fmt.Errorf("rhythm: WorkloadQuotas[%q] share %v is outside (0, 1]", name, share)
		}
	}
	return nil
}

func (o *CohortOptions) fill() {
	if o.Registry == nil {
		o.Registry = DefaultRegistry()
	}
	if o.CohortSize == 0 {
		o.CohortSize = 128
	}
	if o.Devices <= 0 {
		o.Devices = 1
	}
	if o.MaxCohorts == 0 {
		o.MaxCohorts = 4 * o.Devices
	}
	if o.RequestDeadline == 0 {
		o.RequestDeadline = 5 * time.Second
	}
	if o.OverflowLimit == 0 {
		o.OverflowLimit = 2 * o.CohortSize
	} else if o.OverflowLimit < 0 {
		o.OverflowLimit = 0
	}
	if o.MaxSessions < 256 {
		o.MaxSessions = 1 << 16
	}
}

// CohortServer serves every registered workload over TCP through the
// paper's cohort pipeline: the shared frontend parses and classifies
// requests on the host and asks the formation controller
// (internal/adapt) where each one goes. A type below its crossover rate
// is answered at once on the connection that received it, as a
// one-request host unit executed under its shard group's lock; a type
// above it goes to the single formation-loop goroutine, which batches it
// into cohort.Pool contexts under the controller's window and
// early-launch threshold, and each launched cohort runs its stage kernels
// on the modeled SIMT device, one asynchronous stream per context. The
// paper's fixed §3.1 timeout is the same controller pinned
// (CohortOptions.FormationTimeout). Responses are byte-identical to
// TCPServer's host path on either route (the differential tests in
// cohortserver_test.go assert this for every request type).
//
// Wall clock drives admission and formation; the simulation engine
// remains a purely virtual device timeline, stepped by the loop while
// launches are in flight.
type CohortServer struct {
	// frontend owns the listener, connections, control plane and render
	// cache; its fab is the device fabric the formation loop ships formed
	// cohorts into. Loopback (default) keeps every node in-process;
	// WorkerAddrs makes them remote (DESIGN.md §17).
	frontend

	opts CohortOptions
	pool *cohort.Pool[*liveReq]
	// ctrl is the formation policy: adaptive to a p99 target, or pinned
	// to a fixed timeout. Its methods are internally locked; handlers
	// call Arrival and RetryAfter, the loop everything else.
	ctrl *adapt.Controller
	// remote is set on the tcp fabric, where a host unit completes
	// asynchronously and so must own a copy of its request.
	remote bool

	admitCh chan *liveReq
	flushCh chan flushMsg
	doCh    chan func()
	stopCh  chan struct{}
	doneCh  chan struct{}

	stopOnce sync.Once

	// Handler-side counters (many goroutines). badByType counts per-type
	// requests that never reach latHist (sheds, deadline misses) so the
	// health engine's totals see them.
	rejectedQueue  atomic.Uint64
	deadlineMisses atomic.Uint64
	badByType      []atomic.Uint64 // per service.TypeID
	// hostRoute counts handlers on the host route (serveHost); Drain
	// waits for it to reach zero before it closes the fabric.
	hostRoute atomic.Int64

	// Formation wait and cohort occupancy behind /v1/metrics (atomic).
	formHist  *stats.Histogram // nanoseconds
	occupHist *stats.Histogram // requests per launched cohort

	// Per-workload admission quotas (WorkloadQuotas): wlLimit is each
	// workload's concurrent-request cap (0 = unlimited), wlInflight the
	// live count, wlSheds every 503 shed attributed to the workload —
	// quota, queue, pool, link, or node loss. All indexed by the
	// registry's workload index.
	wlLimit    []int64
	wlInflight []atomic.Int64
	wlSheds    []atomic.Uint64

	// Loop-owned state (no locking: single goroutine until doneCh),
	// except what execMu guards.
	draining    bool
	inflight    int
	overflow    []*liveReq
	forming     map[string]*formingTimer
	nextGen     uint64
	shedCohorts uint64
	perType     []typeCounters // per service.TypeID
	maxOccup    int
	formWait    *stats.LatencyWindow
	launchLat   *stats.LatencyWindow

	// execMu guards what both routes write — the loop for cohorts,
	// connection handlers for the host route — so that a snapshot reads
	// it in one consistent pass: these counters, the request latency
	// window, and perType's requests and hostReqs.
	execMu        sync.Mutex
	rejectedPool  uint64
	kernelErrors  uint64
	hostFallbacks uint64
	reqLat        *stats.LatencyWindow
}

// NewCohortServer builds the server, its device fabric, and its
// dispatch loop. Callers then Listen + Serve, and Drain to stop.
// Construction fails on a negative CohortSize or MaxCohorts, a quota
// share outside (0, 1], a WorkloadQuotas key that names no registered
// workload, or a remote worker that cannot be dialed or refuses the
// wire handshake.
func NewCohortServer(opts CohortOptions) (*CohortServer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.fill()
	// admitQueue bounds the admission queue between connection handlers
	// and the formation loop; a full queue sheds with 503 + Retry-After.
	admitQueue := 4 * opts.CohortSize
	reg := opts.Registry
	cfg := simt.GTXTitan()
	cfg.HostParallelism = opts.HostParallelism
	cfg.SimParallelism = opts.SimParallelism
	cfg.ProfileOff = opts.ProfileOff
	fab, err := fabric.New(fabric.Config{
		Registry:              reg,
		Nodes:                 opts.Nodes,
		Addrs:                 opts.WorkerAddrs,
		DevicesPerNode:        opts.Devices,
		CohortSize:            opts.CohortSize,
		SlotsPerDevice:        (opts.MaxCohorts + opts.Devices - 1) / opts.Devices,
		SessionBuckets:        256,
		SessionNodesPerBucket: opts.MaxSessions/256*4 + 4,
		Simt:                  cfg,
		Faults:                opts.FaultPlan,
		NodeFaults:            opts.NodeFaultPlan,
		LinkBps:               opts.LinkBps,
	})
	if err != nil {
		return nil, err
	}
	s := &CohortServer{
		opts:      opts,
		remote:    len(opts.WorkerAddrs) > 0,
		admitCh:   make(chan *liveReq, admitQueue),
		flushCh:   make(chan flushMsg, 256),
		doCh:      make(chan func(), 16),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		forming:   make(map[string]*formingTimer),
		perType:   make([]typeCounters, reg.NumTypes()),
		formWait:  stats.NewLatencyWindow(latencyWindow),
		launchLat: stats.NewLatencyWindow(latencyWindow),
		reqLat:    stats.NewLatencyWindow(latencyWindow),
		formHist:  stats.NewHistogram(stats.LatencyBucketsNs()),
		occupHist: stats.NewHistogram(stats.PowersOfTwoBuckets(opts.CohortSize)),
		badByType: make([]atomic.Uint64, reg.NumTypes()),
	}
	s.frontend.init(reg, s, "cohort", reg.MaxBufferBytes(), flight.Config{Ring: opts.FlightRing, Slow: opts.FlightSlow})
	s.fab = fab
	for t := range s.perType {
		// One stage slot per stage kernel.
		s.perType[t].stages = make([]perStage, reg.Spec(service.TypeID(t)).Backends+1)
	}
	ws := reg.Workloads()
	s.wlLimit = make([]int64, len(ws))
	s.wlInflight = make([]atomic.Int64, len(ws))
	s.wlSheds = make([]atomic.Uint64, len(ws))
	for name, share := range opts.WorkloadQuotas {
		idx := -1
		for i, w := range ws {
			if w.Name() == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			fab.Close()
			return nil, fmt.Errorf("rhythm: WorkloadQuotas names unregistered workload %q", name)
		}
		// The quota is a share of total admission capacity: the admit
		// queue plus the overflow park. At least one slot so a tiny
		// share can still make progress.
		limit := int64(share * float64(admitQueue+opts.OverflowLimit))
		if limit < 1 {
			limit = 1
		}
		s.wlLimit[idx] = limit
	}
	s.setHealth(health.Config{
		Objective:  opts.HealthObjective,
		SLO:        opts.SLO,
		FastWindow: opts.HealthFastWindow,
		SlowWindow: opts.HealthSlowWindow,
	}, s.badByType)
	if opts.RenderCache > 0 {
		s.cache = rcache.New(opts.RenderCache)
		// The hook observes every committed Besim write fabric-wide:
		// device kernels replay their deferred writes into the owning
		// group's DB through the same mutators the host path calls. With
		// remote workers the writes commit in another process — no
		// invalidation signal reaches the frontend, so the cache must
		// stay off (SetWriteHook reports false).
		if !fab.SetWriteHook(s.cache.Invalidate) {
			s.cache = nil
		}
	}
	// Pool timeout 0: formation deadlines run on wall-clock timers (the
	// pool's engine argument is unused at timeout 0 — the cluster's
	// devices own the virtual timelines now).
	s.pool = cohort.NewPool[*liveReq](sim.NewEngine(), opts.MaxCohorts, opts.CohortSize, 0, s.onReady)
	acfg := adapt.Config{
		Types:         reg.NumTypes(),
		Names:         s.names,
		Capacity:      opts.CohortSize,
		SLO:           opts.SLO,
		Tick:          opts.AdaptTick,
		CrossoverRate: opts.CrossoverRate,
	}
	if acfg.SLO <= 0 {
		// No explicit target: a formation timeout pins the fixed policy,
		// none leaves the controller adaptive at the default target.
		acfg.SLO, acfg.Pin = defaultFormationSLO, opts.FormationTimeout
	}
	s.ctrl = adapt.New(acfg)
	// Early launch: the advisor fires on the loop goroutine after every
	// Add that leaves a cohort below capacity, launching it once it
	// reaches the controller's per-type threshold.
	s.pool.SetAdvisor(func(c *cohort.Context[*liveReq]) bool {
		return c.Len() >= s.ctrl.Threshold(int(c.Requests()[0].t))
	})
	go s.loop()
	return s, nil
}

// drainPoll is how often Drain re-checks for host-routed requests still
// in flight.
const drainPoll = time.Millisecond

// defaultFormationSLO is the controller's p99 target when neither an SLO
// nor a formation timeout is given.
const defaultFormationSLO = 50 * time.Millisecond

// Drain stops gracefully: stop accepting, reject new admissions, flush
// partially-full cohorts, wait for in-flight launches and host-routed
// requests to have their responses, then close connections (idle ones
// immediately, busy ones after their current write). ctx bounds the
// wait.
func (s *CohortServer) Drain(ctx context.Context) error {
	s.stopAccepting()
	s.stopOnce.Do(func() { close(s.stopCh) })
	select {
	case <-s.doneCh:
	case <-ctx.Done():
		return ctx.Err()
	}
	// A host-routed request that passed its closing check is still
	// owed its page: on tcp, closing the fabric would lose its unit.
	for s.hostRoute.Load() != 0 {
		select {
		case <-time.After(drainPoll):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// The loop exits only at inflight 0 and no host unit is in flight,
	// so the fabric is idle; Close returns once loopback node workers
	// have drained and exited (on tcp it closes the worker connections).
	s.fab.Close()
	// Every admitted request now has its response delivered; handlers
	// parked in a read will never produce another admission (the closing
	// flag sheds), so closing them is safe. Handlers mid-write finish
	// first — the busy flag protects them.
	return s.drainConns(ctx)
}

// Snapshot returns the mode-tagged serving statistics.
func (s *CohortServer) Snapshot() ServerStats {
	st := s.Stats()
	return ServerStats{Mode: "cohort", Cohort: &st}
}
