package rhythm

import (
	"context"
	"math"
	"net"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
	"rhythm/internal/service"
	"rhythm/internal/workloads"
)

// Server is a live Rhythm TCP server. New returns one bound to its
// address, so Addr is valid before Serve. Serve blocks accepting
// connections; Drain stops the listener, flushes partial cohorts, and
// waits for in-flight work and open connections up to the context
// deadline; Snapshot returns the stats the /v1/stats endpoint serves.
type Server interface {
	// Addr reports the bound listen address.
	Addr() net.Addr
	// Seed creates a demo user and returns (userID, password).
	Seed(userID uint64) (uint64, string)
	// Serve accepts connections until Drain (or a listener error).
	Serve() error
	// Drain performs a graceful shutdown bounded by ctx.
	Drain(ctx context.Context) error
	// Snapshot returns current serving statistics.
	Snapshot() ServerStats
}

// ServerStats is the Snapshot document.
type ServerStats struct {
	// Host is always nil: the host-mode server it described is now the
	// one server pinned to the host route, whose stats are in Cohort. It
	// stays only because the frozen benchmark reads it, and goes when
	// the benchmark is next changed (ROADMAP item 1).
	Host *HostStats
	// Cohort holds the server's stats; Mode in it is "host" when the
	// server is pinned to the host route.
	Cohort *CohortServerStats
}

// HostStats is the type of the always-nil ServerStats.Host.
type HostStats struct {
	Errors, CacheHits, CacheMisses, CacheInvalidations, CacheEntries uint64
	FlightRequests, FlightAnomalies                                  uint64
}

// Served reports total responses produced.
func (s ServerStats) Served() uint64 {
	if s.Cohort == nil {
		return 0
	}
	return s.Cohort.Served
}

// Option configures New.
type Option func(*cohortOptions)

// WithHostExecution pins the formation controller to the host route, the
// paper's conventional-server baseline: every request executes on the
// connection that received it, under its shard group's lock, and no
// cohort forms. It is WithCrossoverRate(+Inf): no arrival rate reaches
// the crossover, and it wins over a WithFormation timeout. A device's
// memory is backed only when its first cohort launches, so the pinned
// server holds none.
func WithHostExecution() Option {
	return WithCrossoverRate(math.Inf(1))
}

// WithRegistry serves an explicit workload registry instead of the
// default (banking + ecom + telemetry). Classification, shard-group
// affinity, device cohort geometry, render-cache eligibility, and the
// metrics/stats label universe all derive from it (DESIGN.md §16).
func WithRegistry(reg *service.Registry) Option {
	return func(o *cohortOptions) { o.Registry = reg }
}

// WithWorkloads serves only the named built-in workloads, in order
// (the rhythmd -workloads flag). Returns an error for unknown names.
func WithWorkloads(names ...string) (Option, error) {
	reg, err := workloads.Named(names...)
	if err != nil {
		return nil, err
	}
	return WithRegistry(reg), nil
}

// WithDevices shards state across n modeled SIMT devices (default 1)
// with session-affinity routing and failover (DESIGN.md §11).
func WithDevices(n int) Option {
	return func(o *cohortOptions) { o.Devices = n }
}

// WithFormation sets the cohort geometry: size requests per cohort
// (default 128 — live traffic forms far smaller cohorts than the offline
// saturation harness) and contexts cohort contexts in flight across the
// pool (default 4 per device; each device gets contexts/devices execution
// slots). A non-zero timeout pins the formation controller to the
// paper's fixed §3.1 policy — launch when full or timeout after the
// cohort's first request (negative: never), no host route — unless
// WithSLO or WithHostExecution is given too; zero leaves the controller
// adaptive.
func WithFormation(size, contexts int, timeout time.Duration) Option {
	return func(o *cohortOptions) {
		o.CohortSize = size
		o.MaxCohorts = contexts
		o.FormationTimeout = timeout
	}
}

// WithSLO sets the p99 latency target of the formation controller
// (DESIGN.md §12; default 50ms), the server's one formation policy:
// per-type formation windows and early-launch thresholds are retuned
// from the observed arrival rate and the measured service model, and a
// type below its crossover rate is answered on the scalar host path by
// the connection that received it, under its shard group's lock. It
// wins over a WithFormation timeout, and is also the latency target
// /v1/health classifies against.
func WithSLO(p99 time.Duration) Option {
	return func(o *cohortOptions) { o.SLO = p99 }
}

// WithCrossoverRate sets the host/device routing crossover in req/s:
// >0 uses the explicit rate, <0 disables the host route (always batch),
// 0 (the default) derives it from the measured service model, and +Inf
// pins every request to the host route (WithHostExecution). A
// controller pinned by WithFormation's timeout never routes to the host.
func WithCrossoverRate(r float64) Option {
	return func(o *cohortOptions) { o.CrossoverRate = r }
}

// WithFaultPlan injects a deterministic device-fault schedule for
// failover drills (DESIGN.md §11).
func WithFaultPlan(plan *cluster.FaultPlan) Option {
	return func(o *cohortOptions) { o.FaultPlan = plan }
}

// WithNodes ships formed cohorts to remote `rhythmd -worker` processes
// at the given addresses over the fabric's multiplexed wire protocol,
// one node per address (DESIGN.md §17). Routing, failover, and stats
// aggregation work as with WithLoopbackNodes. Workers size their own
// device pools, so WithDevices and WithLoopbackNodes only shape the
// frontend's defaults; features that need in-process device state
// (render cache, live launch profiles) disable themselves.
func WithNodes(addrs ...string) Option {
	return func(o *cohortOptions) { o.WorkerAddrs = addrs }
}

// WithLoopbackNodes splits the device pool into n in-process fabric
// nodes (default 1) of WithDevices devices each, routed by
// rendezvous-hashed session affinity over a global group table
// (DESIGN.md §17). Responses are byte-identical at any node count.
func WithLoopbackNodes(n int) Option {
	return func(o *cohortOptions) { o.Nodes = n }
}

// WithLinkBudget meters each fabric node's link at bps bytes/sec (0 =
// unmetered): the NIC in front of a tcp worker, the modeled PCIe bus in
// front of a loopback node. A saturated link sheds with 503; counters
// surface in /v1/topology and rhythm_fabric_link_* (DESIGN.md §17).
func WithLinkBudget(bps float64) Option {
	return func(o *cohortOptions) { o.LinkBps = bps }
}

// WithNodeFaultPlan kills whole fabric nodes deterministically for
// failover drills: the node quiesces once it has accepted the
// configured unit count, and its groups re-route with recorded hops
// (DESIGN.md §17).
func WithNodeFaultPlan(plan *fabric.NodeFaultPlan) Option {
	return func(o *cohortOptions) { o.NodeFaultPlan = plan }
}

// WithWorkloadQuota caps one named workload's share (0 < share ≤ 1) of
// admission capacity — the admission queue (4 cohorts) plus the
// overflow park (2 cohorts) at WithFormation's size. Past it the
// workload's requests shed with 503, counted in workload_sheds and
// rhythm_shed_total{workload=...}. Repeat per workload.
func WithWorkloadQuota(name string, share float64) Option {
	return func(o *cohortOptions) {
		if o.WorkloadQuotas == nil {
			o.WorkloadQuotas = make(map[string]float64)
		}
		o.WorkloadQuotas[name] = share
	}
}

// WithRequestDeadline bounds a request's end-to-end residence including
// formation delay (default 5s); past it the connection gets a 504. The
// request may still complete server-side — the deadline releases the
// connection, not the cohort slot.
func WithRequestDeadline(d time.Duration) Option {
	return func(o *cohortOptions) { o.RequestDeadline = d }
}

// WithSimParallelism caps the host worker threads that execute
// independent kernel launches of one device epoch batch concurrently
// (0 = all cores; see DESIGN.md §13). Simulated results are
// bit-identical at every setting; only wall-clock changes.
func WithSimParallelism(n int) Option {
	return func(o *cohortOptions) { o.SimParallelism = n }
}

// WithProfileOff disables the kernel-launch profiler. It is on by
// default: recording is zero-allocation and costs <2%
// (BenchmarkProfilerOverhead).
func WithProfileOff() Option {
	return func(o *cohortOptions) { o.ProfileOff = true }
}

// WithRenderCache enables the whole-page render cache bounded to
// roughly entries pages (DESIGN.md §14). Repeated read-only requests
// are answered from memory before dispatch — bypassing execution,
// cohort formation and kernel launch — and stay byte-identical to a
// fresh render: the shard groups' Besim write commits invalidate each
// user's pages. With remote workers (WithNodes) no invalidation reaches
// the frontend, so the cache stays off. entries <= 0 leaves the cache
// off (the default).
func WithRenderCache(entries int) Option {
	return func(o *cohortOptions) { o.RenderCache = entries }
}

// WithFlightRecorder tunes the always-on tail-latency flight recorder
// (DESIGN.md §15): ring bounds the promoted-anomaly ring
// (0 = 256), and slow sets an explicit slow-promotion latency threshold
// (0 keeps the adaptive p99 estimate). The recorder itself cannot be
// disabled — its fast path is held to one allocation a request by
// BENCH_allocs.json's flight_append budget, its per-request time is
// what flight.BenchmarkFinish prints in CI's bench smoke, and every
// socket workload of the benchmark runs with it armed.
func WithFlightRecorder(ring int, slow time.Duration) Option {
	return func(o *cohortOptions) {
		o.FlightRing = ring
		o.FlightSlow = slow
	}
}

// WithHealthSLO tunes the /v1/health burn-rate engine (DESIGN.md §15):
// objective is the target good fraction (0 = 0.99), and
// fast/slow are the burn evaluation windows (0 = 5m and 1h). The
// latency target requests are classified against is the WithSLO target
// when given, else 250ms (never the formation controller's default).
func WithHealthSLO(objective float64, fast, slow time.Duration) Option {
	return func(o *cohortOptions) {
		o.HealthObjective = objective
		o.HealthFastWindow = fast
		o.HealthSlowWindow = slow
	}
}

// New builds a live server of the registered workloads bound to addr
// (use ":0" for an ephemeral port) and returns it behind the Server
// interface. It serves through the cohort pipeline on modeled SIMT
// devices under the adaptive formation controller — a lone request is
// answered at once on the host path of the device that owns its state,
// a burst forms cohorts. WithFormation's timeout and WithHostExecution
// pin the same server to the paper's fixed policy or to the host route.
func New(addr string, opts ...Option) (Server, error) {
	var o cohortOptions
	for _, opt := range opts {
		opt(&o)
	}
	srv, err := newCohortServer(o)
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(addr); err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	return srv, nil
}
