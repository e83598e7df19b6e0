package rhythm

import (
	"context"
	"fmt"
	"math"
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
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// cohortOptions is what New's options set. Each field's default and
// meaning are documented on the option named beside it; the last three
// have no option and are set by tests.
type cohortOptions struct {
	Registry                           *service.Registry     // WithRegistry, WithWorkloads
	CohortSize, MaxCohorts             int                   // WithFormation
	FormationTimeout                   time.Duration         // WithFormation
	Devices                            int                   // WithDevices
	FaultPlan                          *cluster.FaultPlan    // WithFaultPlan
	Nodes                              int                   // WithLoopbackNodes
	WorkerAddrs                        []string              // WithNodes
	LinkBps                            float64               // WithLinkBudget
	NodeFaultPlan                      *fabric.NodeFaultPlan // WithNodeFaultPlan
	WorkloadQuotas                     map[string]float64    // WithWorkloadQuota
	RequestDeadline                    time.Duration         // WithRequestDeadline
	SLO                                time.Duration         // WithSLO
	CrossoverRate                      float64               // WithCrossoverRate, WithHostExecution
	SimParallelism                     int                   // WithSimParallelism
	ProfileOff                         bool                  // WithProfileOff
	RenderCache                        int                   // WithRenderCache
	FlightRing                         int                   // WithFlightRecorder
	FlightSlow                         time.Duration         // WithFlightRecorder
	HealthObjective                    float64               // WithHealthSLO
	HealthFastWindow, HealthSlowWindow time.Duration         // WithHealthSLO

	// OverflowLimit bounds requests parked because every cohort context
	// is Busy (default 2×CohortSize; negative means no parking — reject
	// the moment the pool has no free context).
	OverflowLimit int
	// MaxSessions sizes each shard group's session array (default
	// 1<<16, at 256 buckets), and with it the session ids a request
	// stream creates.
	MaxSessions int
	// AdaptTick is the controller's retuning period (default 100ms); a
	// pinned controller only refreshes its arrival rates on it.
	AdaptTick time.Duration
}

// validate rejects what fill cannot default: a negative cohort size or
// context count, and a quota share outside (0, 1].
func (o *cohortOptions) validate() error {
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

func (o *cohortOptions) fill() {
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

// cohortServer is the one live server New returns. It serves every
// registered workload over TCP through the paper's cohort pipeline: the
// frontend parses and classifies requests on the host and asks the
// formation controller (internal/adapt) where each one goes. A type below
// its crossover rate is answered at once on the connection that received
// it, as a one-request host unit executed under its shard group's lock; a
// type above it goes to the single formation-loop goroutine, which
// batches it into cohort.Pool contexts under the controller's window and
// early-launch threshold, and each launched cohort runs its stage kernels
// on the modeled SIMT device, one asynchronous stream per context. Two
// pins of the same controller give the paper's two baselines: a
// formation timeout is the fixed §3.1 policy (WithFormation), and an
// infinite crossover is the conventional server, every request on the
// host route (WithHostExecution). Responses are byte-identical to the
// workloads' scalar reference on either route (the differential tests
// assert this for every request type).
//
// Wall clock drives admission and formation; the simulation engine
// remains a purely virtual device timeline, stepped by the loop while
// launches are in flight. A device's memory is backed when its first
// cohort launches, so a host-pinned server holds none.
type cohortServer struct {
	// frontend owns the listener, connections, control plane and render
	// cache; its fab is the device fabric the formation loop ships formed
	// cohorts into. Loopback (default) keeps every node in-process;
	// WorkerAddrs makes them remote (DESIGN.md §17).
	frontend

	opts cohortOptions
	pool *cohort.Pool[cohortKey, *liveReq]
	// ctrl is the formation policy: adaptive to a p99 target, or pinned
	// to a fixed timeout or to the host route (hostPinned). Its methods
	// are internally locked; handlers call Arrival and RetryAfter, the
	// loop everything else.
	ctrl       *adapt.Controller
	hostPinned bool
	// remote is set on the tcp fabric, where a host unit completes
	// asynchronously and so must own a copy of its request.
	remote bool

	admitCh chan *liveReq
	doCh    chan func()
	stopCh  chan struct{}
	doneCh  chan struct{}

	stopOnce sync.Once

	// Counters both routes write (many goroutines). badByType counts
	// per-type answers that never reach latHist (sheds, deadline misses,
	// kernel-error pages) so the health engine's totals see them.
	rejectedQueue  atomic.Uint64
	rejectedPool   atomic.Uint64
	deadlineMisses atomic.Uint64
	kernelErrors   atomic.Uint64
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
	// except perType's atomic hostReqs. launchDevNs sums the device time
	// of the launchesDone completed cohorts.
	draining     bool
	inflight     int
	shedCohorts  uint64
	perType      []typeCounters // per service.TypeID
	launchesDone uint64
	launchDevNs  float64
	stageNames   []string // "stage-k" span names, built once from the registry
}

// newCohortServer builds the server, its device fabric, and its
// dispatch loop. Callers then Listen + Serve, and Drain to stop.
// Construction fails on a negative CohortSize or MaxCohorts, a quota
// share outside (0, 1], a WorkloadQuotas key that names no registered
// workload, or a remote worker that cannot be dialed or refuses the
// wire handshake.
func newCohortServer(opts cohortOptions) (*cohortServer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.fill()
	// admitQueue bounds the admission queue between connection handlers
	// and the formation loop; a full queue sheds with 503 + Retry-After.
	admitQueue := 4 * opts.CohortSize
	reg := opts.Registry
	cfg := simt.GTXTitan()
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
	s := &cohortServer{
		opts:      opts,
		remote:    len(opts.WorkerAddrs) > 0,
		admitCh:   make(chan *liveReq, admitQueue),
		doCh:      make(chan func(), 16),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		perType:   make([]typeCounters, reg.NumTypes()),
		formHist:  stats.NewHistogram(stats.LatencyBucketsNs()),
		occupHist: stats.NewHistogram(stats.PowersOfTwoBuckets(opts.CohortSize)),
		badByType: make([]atomic.Uint64, reg.NumTypes()),
	}
	s.frontend.init(reg, flight.Config{Ring: opts.FlightRing, Slow: opts.FlightSlow})
	s.fab = fab
	for t := range s.perType {
		// One stage slot per stage kernel, and a span name per stage
		// index up to the registry's longest chain.
		stages := reg.Spec(service.TypeID(t)).Backends + 1
		s.perType[t].stages = make([]perStage, stages)
		for k := len(s.stageNames); k < stages; k++ {
			s.stageNames = append(s.stageNames, fmt.Sprintf("stage-%d", k))
		}
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
		} else {
			s.cacheBytesBound = maxCacheBytes(reg, s.cache.Budget())
		}
	}
	acfg := adapt.Config{
		Types:         reg.NumTypes(),
		Names:         s.names,
		Capacity:      opts.CohortSize,
		SLO:           opts.SLO,
		Tick:          opts.AdaptTick,
		CrossoverRate: opts.CrossoverRate,
	}
	s.hostPinned = math.IsInf(opts.CrossoverRate, 1)
	if acfg.SLO <= 0 {
		acfg.SLO = defaultFormationSLO
		// No explicit target: a formation timeout pins the fixed policy,
		// unless the host route is pinned; none leaves the controller
		// adaptive at the default target.
		if !s.hostPinned {
			acfg.Pin = opts.FormationTimeout
		}
	}
	s.ctrl = adapt.New(acfg)
	// The formation deadline is the controller's per-type window, on
	// wall-clock timers that fire into the loop. Early launch: the
	// advisor runs on the loop goroutine after every Add that leaves a
	// cohort below capacity, launching it once it reaches the
	// controller's per-type threshold.
	s.pool = cohort.NewPool(wallClock{start: time.Now(), do: s.doCh, done: s.doneCh},
		opts.MaxCohorts, opts.CohortSize,
		func(k cohortKey) time.Duration { return s.ctrl.Window(int(k.t)) },
		func(c *cohort.Context[cohortKey, *liveReq]) bool { return c.Len() >= s.ctrl.Threshold(int(c.Key.t)) },
		s.launch)
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
func (s *cohortServer) Drain(ctx context.Context) error {
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

// Snapshot returns the serving statistics.
func (s *cohortServer) Snapshot() ServerStats {
	st := s.Stats()
	return ServerStats{Cohort: &st}
}

// mode names the server's pin for /v1/stats and rhythm_build_info:
// "host" when every request takes the host route, else "cohort".
func (s *cohortServer) mode() string {
	if s.hostPinned {
		return "host"
	}
	return "cohort"
}
