package rhythm

import (
	"context"
	"net"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
	"rhythm/internal/flight"
	"rhythm/internal/obs/health"
	"rhythm/internal/service"
	"rhythm/internal/workloads"
)

// Server is a live Rhythm TCP server, independent of execution mode.
// New returns one bound to its address, so Addr is valid before Serve.
// Serve blocks accepting connections; Drain stops the listener, (in
// cohort mode) flushes partial cohorts, and waits for in-flight work
// and open connections up to the context deadline; Snapshot returns the
// mode-tagged stats the /v1/stats endpoint serves. *TCPServer and
// *CohortServer implement it.
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

// ServerStats is the unified Snapshot document: Mode says which of the
// two sections is populated.
type ServerStats struct {
	// Mode is "host" or "cohort".
	Mode string
	// Host holds the scalar host path counters (Mode == "host").
	Host *HostStats
	// Cohort holds the cohort pipeline stats (Mode == "cohort").
	Cohort *CohortServerStats
}

// Served reports total responses produced in either mode.
func (s ServerStats) Served() uint64 {
	if s.Host != nil {
		return s.Host.Served
	}
	if s.Cohort != nil {
		return s.Cohort.Served
	}
	return 0
}

// serverConfig is what the functional options mutate. Cohort mode is
// the default; WithHostExecution switches to the scalar host path.
type serverConfig struct {
	host   bool
	cohort CohortOptions
}

// Option configures New.
type Option func(*serverConfig)

// WithHostExecution serves every request on the scalar host path (the
// paper's conventional-server baseline) instead of the cohort pipeline.
// Formation and device options are ignored in this mode; WithSLO only
// sets the /v1/health latency target.
func WithHostExecution() Option {
	return func(c *serverConfig) { c.host = true }
}

// WithRegistry serves an explicit workload registry instead of the
// default (banking + ecom + telemetry). Both modes.
func WithRegistry(reg *service.Registry) Option {
	return func(c *serverConfig) { c.cohort.Registry = reg }
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

// WithDevices shards state across n modeled SIMT devices with
// session-affinity routing and failover (DESIGN.md §11).
func WithDevices(n int) Option {
	return func(c *serverConfig) { c.cohort.Devices = n }
}

// WithFormation sets the cohort geometry: requests per cohort and cohort
// contexts in flight across the pool (zero keeps the defaults documented
// on CohortOptions). A non-zero timeout pins the formation controller to
// the paper's fixed §3.1 policy — launch when full or timeout after the
// cohort's first request (negative: never), no host route — unless
// WithSLO is given too; zero leaves the controller adaptive.
func WithFormation(size, contexts int, timeout time.Duration) Option {
	return func(c *serverConfig) {
		c.cohort.CohortSize = size
		c.cohort.MaxCohorts = contexts
		c.cohort.FormationTimeout = timeout
	}
}

// WithSLO sets the p99 latency target of the formation controller
// (DESIGN.md §12; default 50ms): per-type formation windows and
// early-launch thresholds track the arrival rate and the measured
// service model, and below the crossover rate requests are served on
// the scalar host path. It wins over a WithFormation timeout, and is
// also the latency target /v1/health classifies against.
func WithSLO(p99 time.Duration) Option {
	return func(c *serverConfig) { c.cohort.SLO = p99 }
}

// WithCrossoverRate sets the host/device routing crossover in req/s:
// >0 uses the explicit rate, <0 disables the host route (always batch),
// 0 (the default) derives it from the measured service model. A
// controller pinned by WithFormation's timeout never routes to the host.
func WithCrossoverRate(r float64) Option {
	return func(c *serverConfig) { c.cohort.CrossoverRate = r }
}

// WithFaultPlan injects a deterministic device-fault schedule for
// failover drills (DESIGN.md §11).
func WithFaultPlan(plan *cluster.FaultPlan) Option {
	return func(c *serverConfig) { c.cohort.FaultPlan = plan }
}

// WithNodes ships formed cohorts to remote `rhythmd -worker` processes
// at the given addresses over the fabric's multiplexed wire protocol,
// one node per address (DESIGN.md §17). Routing, failover, and stats
// aggregation work as with WithLoopbackNodes; features that need
// in-process device state (render cache, live launch profiles) disable
// themselves. Cohort mode only.
func WithNodes(addrs ...string) Option {
	return func(c *serverConfig) { c.cohort.WorkerAddrs = addrs }
}

// WithLoopbackNodes splits the device pool into n in-process fabric
// nodes of WithDevices devices each, routed by rendezvous-hashed
// session affinity over a global group table (DESIGN.md §17).
// Responses are byte-identical at any node count. Cohort mode only.
func WithLoopbackNodes(n int) Option {
	return func(c *serverConfig) { c.cohort.Nodes = n }
}

// WithLinkBudget meters each fabric node's link at bps bytes/sec (0 =
// unmetered): the NIC in front of a tcp worker, the modeled PCIe bus in
// front of a loopback node. A saturated link sheds with 503; counters
// surface in /v1/topology and rhythm_fabric_link_* (DESIGN.md §17).
func WithLinkBudget(bps float64) Option {
	return func(c *serverConfig) { c.cohort.LinkBps = bps }
}

// WithNodeFaultPlan kills whole fabric nodes deterministically for
// failover drills: the node quiesces once it has accepted the
// configured unit count, and its groups re-route with recorded hops
// (DESIGN.md §17).
func WithNodeFaultPlan(plan *fabric.NodeFaultPlan) Option {
	return func(c *serverConfig) { c.cohort.NodeFaultPlan = plan }
}

// WithWorkloadQuota caps one named workload's share (0 < share ≤ 1) of
// admission capacity; past it the workload's requests shed with 503,
// counted in workload_sheds and rhythm_shed_total{workload=...}.
// Repeat per workload. Cohort mode only.
func WithWorkloadQuota(name string, share float64) Option {
	return func(c *serverConfig) {
		if c.cohort.WorkloadQuotas == nil {
			c.cohort.WorkloadQuotas = make(map[string]float64)
		}
		c.cohort.WorkloadQuotas[name] = share
	}
}

// WithRequestDeadline bounds a request's end-to-end residence including
// formation delay; past it the connection gets a 504.
func WithRequestDeadline(d time.Duration) Option {
	return func(c *serverConfig) { c.cohort.RequestDeadline = d }
}

// WithSimParallelism caps the host worker threads that execute
// independent kernel launches of one device epoch batch concurrently
// (0 = all cores; see DESIGN.md §13). Simulated results are
// bit-identical at every setting; only wall-clock changes.
func WithSimParallelism(n int) Option {
	return func(c *serverConfig) { c.cohort.SimParallelism = n }
}

// WithProfileOff disables the kernel-launch profiler.
func WithProfileOff() Option {
	return func(c *serverConfig) { c.cohort.ProfileOff = true }
}

// WithRenderCache enables the whole-page render cache bounded to
// roughly entries pages (DESIGN.md §14). Repeated read-only requests
// are answered from memory — bypassing execution (host mode) or cohort
// formation and kernel launch (cohort mode) — and stay byte-identical
// to a fresh render: cached pages are invalidated per user whenever a
// Besim deferred write commits. entries <= 0 leaves the cache off (the
// default).
func WithRenderCache(entries int) Option {
	return func(c *serverConfig) { c.cohort.RenderCache = entries }
}

// WithFlightRecorder tunes the always-on tail-latency flight recorder
// (DESIGN.md §15; both modes): ring bounds the promoted-anomaly ring
// (0 = 256), and slow sets an explicit slow-promotion latency threshold
// (0 keeps the adaptive p99 estimate). The recorder itself cannot be
// disabled — its fast path is held to one allocation a request by
// BENCH_allocs.json's flight_append budget, its per-request time is
// what flight.BenchmarkFinish prints in CI's bench smoke, and every
// socket workload of the benchmark runs with it armed.
func WithFlightRecorder(ring int, slow time.Duration) Option {
	return func(c *serverConfig) {
		c.cohort.FlightRing = ring
		c.cohort.FlightSlow = slow
	}
}

// WithHealthSLO tunes the /v1/health burn-rate engine (DESIGN.md §15;
// both modes): objective is the target good fraction (0 = 0.99), and
// fast/slow are the burn evaluation windows (0 = 5m and 1h). The
// latency target requests are classified against is the WithSLO target
// when given, else 250ms (never the formation controller's default).
func WithHealthSLO(objective float64, fast, slow time.Duration) Option {
	return func(c *serverConfig) {
		c.cohort.HealthObjective = objective
		c.cohort.HealthFastWindow = fast
		c.cohort.HealthSlowWindow = slow
	}
}

// New builds a live server of the registered workloads bound to addr
// (use ":0" for an ephemeral port) and returns it behind the Server
// interface. By default it serves through the cohort pipeline on modeled
// SIMT devices under the adaptive formation controller — a lone request
// is answered at once on the host path of the device that owns its
// state, a burst forms cohorts; WithHostExecution selects the scalar
// host server instead.
func New(addr string, opts ...Option) (Server, error) {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.host {
		reg := cfg.cohort.Registry
		if reg == nil {
			reg = DefaultRegistry()
		}
		srv := NewTCPServerFor(reg, 1<<16)
		if cfg.cohort.RenderCache > 0 {
			srv.EnableRenderCache(cfg.cohort.RenderCache)
		}
		if cfg.cohort.FlightRing != 0 || cfg.cohort.FlightSlow != 0 {
			srv.ConfigureFlight(flight.Config{Ring: cfg.cohort.FlightRing, Slow: cfg.cohort.FlightSlow})
		}
		if cfg.cohort.HealthObjective != 0 || cfg.cohort.HealthFastWindow != 0 ||
			cfg.cohort.HealthSlowWindow != 0 || cfg.cohort.SLO != 0 {
			srv.ConfigureHealth(health.Config{
				Objective:  cfg.cohort.HealthObjective,
				SLO:        cfg.cohort.SLO,
				FastWindow: cfg.cohort.HealthFastWindow,
				SlowWindow: cfg.cohort.HealthSlowWindow,
			})
		}
		if err := srv.Listen(addr); err != nil {
			return nil, err
		}
		return srv, nil
	}
	srv, err := NewCohortServer(cfg.cohort)
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(addr); err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	return srv, nil
}
