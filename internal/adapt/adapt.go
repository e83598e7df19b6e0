// Package adapt implements Rhythm's SLO-aware adaptive cohort formation
// controller (DESIGN.md §12). §3.1 frames cohort formation as an explicit
// delay/throughput trade with a fixed timeout; this controller re-derives
// the timeout — and an early-launch threshold — per request type from the
// observed arrival rate, a measured linear service model, and a p99
// latency SLO, and reproduces the paper's CPU/GPU crossover as a live
// routing decision: below a per-type crossover rate, requests skip
// cohort formation entirely and execute on the scalar host path.
//
// Model. Cohort execution cost is fitted online as S(n) = a + b·n (a =
// per-launch overhead, b = marginal per-request cost), the same linear
// shape the paper's Figure 9/10 decomposition exhibits. At arrival rate
// λ the expected wait for the next request is 1/λ while the amortization
// gain of adding it to an n-request cohort is a/n — equating marginal
// wait and marginal gain gives the square-root batching law n* ≈ √(a·λ),
// inflated by 1/(1−ρ) as utilization ρ grows so the window widens under
// load. A stability floor keeps cohorts big enough that the device's
// service rate n/S(n) covers λ at bounded utilization; past that the
// controller saturates at full capacity and spends the whole SLO budget
// on formation. All tuning happens on a fixed tick, from explicit clocks,
// so the controller is deterministic under virtual time.
//
// The paper's own policy — one fixed timeout, launch when full — is this
// controller pinned (Config.Pin): the window never moves, the threshold
// is the cohort capacity and nothing routes to the host. The
// conventional server is this controller pinned the other way
// (CrossoverRate = +Inf): every rate is below the crossover, so every
// request takes the host route. Both are modes of the one policy, so a
// server has a single formation path either way.
package adapt

import (
	"math"
	"sync"
	"time"
)

// Tuning constants. These shape the control law, not the workload, so
// they are compile-time rather than Config fields.
const (
	// fitDecay ages the least-squares sums each observation, so the
	// service model tracks drift with an effective memory of ~50 launches.
	fitDecay = 0.98
	// rhoCap bounds the utilization estimate used in the 1/(1−ρ)
	// inflation so the window stays finite at overload.
	rhoCap = 0.95
	// rhoSat is the utilization at which the controller stops trading and
	// batches at full capacity (saturation mode).
	rhoSat = 0.9
	// targetUtil caps the utilization the stability floor sizes cohorts
	// for: n must satisfy λ·S(n)/n ≤ util, where util is derived from the
	// SLO headroom (see retune) and clamped to [minUtil, targetUtil].
	targetUtil = 0.85
	minUtil    = 0.3
	// sloTailFactor is the crude p99 residence multiplier the utilization
	// target budgets for: the queue+service tail is taken as roughly
	// sloTailFactor·S(n)/(1−ρ)·(1−ρ) ≈ sloTailFactor·S(n) at the target,
	// and must fit the SLO.
	sloTailFactor = 8.0
	// hystLow/hystHigh are the crossover hysteresis band: route to host
	// below hystLow·crossover, back to the device above hystHigh·crossover.
	hystLow  = 0.8
	hystHigh = 1.25
	// deviceFloorRho forces device routing regardless of the crossover
	// once offered load would consume this fraction of device capacity —
	// the scalar host path would drown first.
	deviceFloorRho = 0.5
	// minWindow floors the formation window; the cap is SLO/2.
	minWindow = 200 * time.Microsecond
	// minBatch is the smallest cohort worth forming; it sets the derived
	// crossover rate minBatch²/a.
	minBatch = 2
	// ewmaAlpha smooths the per-tick arrival rate.
	ewmaAlpha = 0.3
	// retryFloor and retryCeil clamp the backlog-derived Retry-After
	// hint.
	retryFloor = time.Second
	retryCeil  = 30 * time.Second
)

// Config sizes a Controller. Zero values take the documented defaults.
type Config struct {
	// Types is the number of request types (one independent control loop
	// each). Required.
	Types int
	// Names labels types in snapshots (optional; indices used if short).
	Names []string
	// Capacity is the cohort capacity — the ceiling for the early-launch
	// threshold. Required.
	Capacity int
	// SLO is the p99 latency target the formation window must fit inside.
	// Required unless Pin is set.
	SLO time.Duration
	// Pin, when non-zero, pins the controller to §3.1's fixed policy:
	// every type's window is Pin (negative = never time out), the
	// early-launch threshold is Capacity, nothing routes to the host, and
	// Tick tracks arrival rates without retuning. The service model is
	// still fitted (Snapshot, RetryAfter). SLO is ignored.
	Pin time.Duration
	// Tick is the retuning period (default 100ms).
	Tick time.Duration
	// SvcBasePrior / SvcPerReqPrior seed the service model S(n) = a + b·n
	// before any launch has been observed (defaults 200µs and 2µs).
	SvcBasePrior   time.Duration
	SvcPerReqPrior time.Duration
	// CrossoverRate overrides the host/device routing crossover in req/s:
	// >0 uses the value as-is, 0 derives it from the service model, <0
	// disables host fallback entirely (always batch). +Inf pins every
	// type to the host route: no rate reaches it, and the device-floor
	// override that otherwise forces a loaded type onto the device is
	// off.
	CrossoverRate float64
}

func (c *Config) fill() {
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.SvcBasePrior <= 0 {
		c.SvcBasePrior = 200 * time.Microsecond
	}
	if c.SvcPerReqPrior <= 0 {
		c.SvcPerReqPrior = 2 * time.Microsecond
	}
}

// typeState is one request type's control loop.
type typeState struct {
	arrivals int     // since the last tick
	rate     float64 // EWMA arrival rate, req/s
	seeded   bool    // rate has seen at least one active tick

	// Decayed least-squares sums for S(n) = base + perReq·n (seconds).
	sw, sx, sy, sxx, sxy float64
	base, perReq         float64

	window    time.Duration
	threshold int
	hostRoute bool

	hostReqs, devReqs uint64
	toHost, toDevice  uint64 // route flips
}

// route moves the type to the host (true) or device route, counting the
// flip when it is one.
func (ts *typeState) route(host bool) {
	if host == ts.hostRoute {
		return
	}
	ts.hostRoute = host
	if host {
		ts.toHost++
	} else {
		ts.toDevice++
	}
}

// Controller picks, per request type, the formation window, the
// early-launch threshold, and the host/device route. Safe for concurrent
// use; the hot-path methods (Arrival, Threshold, Window) take one
// uncontended mutex acquisition.
type Controller struct {
	mu       sync.Mutex
	cfg      Config
	types    []typeState
	lastTick time.Time
	ticks    uint64
	queue    int // last reported backlog depth
}

// New builds a controller with every type routed to the host (cold start
// = light load) when host fallback is enabled, else to the device with
// threshold 1 — either way a lone early request is never parked behind a
// fixed timeout. A pinned controller (Config.Pin) starts, and stays, at
// the fixed policy instead.
func New(cfg Config) *Controller {
	if cfg.Pin != 0 {
		cfg.SLO = 0 // a pinned window has no latency target to fit
	} else if cfg.SLO <= 0 {
		panic("adapt: Config needs a positive SLO or a Pin")
	}
	if cfg.Types <= 0 || cfg.Capacity <= 0 {
		panic("adapt: Config needs positive Types and Capacity")
	}
	cfg.fill()
	c := &Controller{cfg: cfg, types: make([]typeState, cfg.Types)}
	for i := range c.types {
		ts := &c.types[i]
		ts.base = cfg.SvcBasePrior.Seconds()
		ts.perReq = cfg.SvcPerReqPrior.Seconds()
		ts.window = minWindow
		ts.threshold = 1
		ts.hostRoute = cfg.CrossoverRate >= 0
		if cfg.Pin != 0 {
			ts.window, ts.threshold, ts.hostRoute = cfg.Pin, cfg.Capacity, false
		}
	}
	return c
}

// TickEvery reports the retuning period the caller should drive Tick at.
func (c *Controller) TickEvery() time.Duration { return c.cfg.Tick }

// Arrival records one request of type t and reports whether it should
// route to the scalar host path (true) or cohort formation (false).
func (c *Controller) Arrival(t int) (host bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := &c.types[t]
	ts.arrivals++
	if ts.hostRoute {
		ts.hostReqs++
		return true
	}
	ts.devReqs++
	return false
}

// Window reports type t's current formation window (not positive: the
// cohort never times out).
func (c *Controller) Window(t int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.types[t].window
}

// Threshold reports type t's current early-launch threshold: a forming
// cohort launches as soon as it holds this many requests.
func (c *Controller) Threshold(t int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.types[t].threshold
}

// ObserveLaunch feeds one completed cohort launch into type t's service
// model: size requests took svc end to end on the device.
func (c *Controller) ObserveLaunch(t, size int, svc time.Duration) {
	if size <= 0 || svc <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := &c.types[t]
	x, y := float64(size), svc.Seconds()
	ts.sw = ts.sw*fitDecay + 1
	ts.sx = ts.sx*fitDecay + x
	ts.sy = ts.sy*fitDecay + y
	ts.sxx = ts.sxx*fitDecay + x*x
	ts.sxy = ts.sxy*fitDecay + x*y
	det := ts.sw*ts.sxx - ts.sx*ts.sx
	if ts.sw >= 2 && det > 1e-9*(ts.sxx+1) {
		b := (ts.sw*ts.sxy - ts.sx*ts.sy) / det
		a := (ts.sy - b*ts.sx) / ts.sw
		// A degenerate or noisy fit (every launch the same size, or a
		// negative intercept) keeps the prior slope and refits the base.
		if b > 0 && a > 0 {
			ts.base, ts.perReq = a, b
			return
		}
	}
	if a := ts.sy/ts.sw - ts.perReq*(ts.sx/ts.sw); a > 0 {
		ts.base = a
	}
}

// NoteQueue records the current admission backlog depth, the input to
// RetryAfter.
func (c *Controller) NoteQueue(depth int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue = depth
}

// RetryAfter estimates how long a shed client should back off: the time
// to drain the observed backlog at the current operating point, clamped
// to [1s, 30s].
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	perReq, totRate := 0.0, 0.0
	for i := range c.types {
		ts := &c.types[i]
		if ts.rate <= 0 {
			continue
		}
		n := float64(ts.threshold)
		perReq += ts.rate * (ts.base/n + ts.perReq)
		totRate += ts.rate
	}
	if totRate > 0 {
		perReq /= totRate
	} else {
		perReq = c.cfg.SvcBasePrior.Seconds()
	}
	d := time.Duration(float64(c.queue) * perReq * float64(time.Second))
	return max(min(d, retryCeil), retryFloor)
}

// Tick closes one control period: fold the period's arrivals into the
// EWMA rate and, unless pinned, retune every type's window, threshold,
// and route. now may come from a wall or virtual clock; only deltas
// matter.
func (c *Controller) Tick(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastTick.IsZero() {
		c.lastTick = now
		return
	}
	dt := now.Sub(c.lastTick).Seconds()
	if dt <= 0 {
		return
	}
	c.lastTick = now
	c.ticks++
	for i := range c.types {
		ts := &c.types[i]
		inst := float64(ts.arrivals) / dt
		ts.arrivals = 0
		if ts.seeded {
			ts.rate += ewmaAlpha * (inst - ts.rate)
		} else if inst > 0 {
			ts.rate = inst
			ts.seeded = true
		}
		if c.cfg.Pin == 0 {
			c.retune(ts)
		}
	}
}

// crossover is the arrival rate below which ts routes to the host: the
// explicit CrossoverRate, else the rate where the square-root law first
// asks for minBatch; 0 when host routing is off. Caller holds c.mu.
func (c *Controller) crossover(ts *typeState) float64 {
	switch {
	case c.cfg.Pin != 0 || c.cfg.CrossoverRate < 0:
		return 0
	case c.cfg.CrossoverRate > 0:
		return c.cfg.CrossoverRate
	}
	return minBatch * minBatch / ts.base
}

// hostPinned reports a controller pinned to the host route
// (CrossoverRate = +Inf).
func (c *Controller) hostPinned() bool { return math.IsInf(c.cfg.CrossoverRate, 1) }

// retune recomputes one type's operating point from its rate and service
// model. Caller holds c.mu.
func (c *Controller) retune(ts *typeState) {
	a, b, r := ts.base, ts.perReq, ts.rate
	cap := float64(c.cfg.Capacity)
	if r <= 0 {
		ts.threshold = 1
		ts.window = minWindow
		if c.cfg.CrossoverRate >= 0 {
			ts.route(true)
		}
		return
	}

	// Utilization at ideal (full-capacity) batching: the fraction of the
	// device this type's offered load consumes when amortization is best.
	rho := r * (a/cap + b)
	if rho > rhoCap {
		rho = rhoCap
	}

	// Host/device crossover with hysteresis.
	cross := c.crossover(ts)
	switch {
	case c.cfg.CrossoverRate < 0, rho >= deviceFloorRho && !c.hostPinned():
		ts.route(false)
	case ts.hostRoute && r >= cross*hystHigh:
		ts.route(false)
	case !ts.hostRoute && r < cross*hystLow:
		ts.route(true)
	}

	// Square-root law with utilization inflation, then the stability
	// floor: cohorts must be big enough that λ·S(n)/n ≤ util, with util
	// picked so the queueing tail at that utilization still fits the SLO
	// (tighter SLOs demand more headroom). The floor depends on S(n), so
	// iterate to a fixed point.
	sloSec := c.cfg.SLO.Seconds()
	nf := math.Sqrt(a * r / (1 - rho))
	for i := 0; i < 6; i++ {
		util := 1 - sloTailFactor*(a+b*nf)/sloSec
		if util > targetUtil {
			util = targetUtil
		}
		if util < minUtil {
			util = minUtil
		}
		den := util - r*b
		if den <= 0 {
			nf = cap // even infinite batching can't cover λ·b: overload
			break
		}
		floor := r * a / den
		if floor <= nf {
			break
		}
		nf = floor
	}
	if rho >= rhoSat {
		nf = cap
	}
	if nf < 1 {
		nf = 1
	}
	if nf > cap {
		nf = cap
	}
	ts.threshold = int(math.Ceil(nf))

	// Window: expected time for the n*-th arrival (with 2x margin for
	// Poisson burstiness), inside what the SLO leaves after two service
	// times (queue + execute); saturation spends the whole budget.
	svcAtN := time.Duration((a + b*nf) * float64(time.Second))
	maxW := min(c.cfg.SLO-2*svcAtN, c.cfg.SLO/2)
	var w time.Duration
	if rho >= rhoSat {
		w = maxW
	} else {
		w = time.Duration(2 * (nf - 1) / r * float64(time.Second))
	}
	if w > maxW {
		w = maxW
	}
	if w < minWindow {
		w = minWindow
	}
	ts.window = w
}

// TypeSnapshot is one type's row in a Snapshot.
type TypeSnapshot struct {
	Type           string  `json:"type"`
	RateReqS       float64 `json:"rate_req_s"`
	WindowUs       float64 `json:"window_us"`
	EarlyThreshold int     `json:"early_threshold"`
	HostRoute      bool    `json:"host_route"`
	// CrossoverReqS is the rate below which the type routes to the host
	// (0: host routing is off, or the controller is pinned to the host
	// route, HostPinned); FlipsToDevice/FlipsToHost count the times the
	// route changed.
	CrossoverReqS  float64 `json:"crossover_req_s"`
	FlipsToDevice  uint64  `json:"flips_to_device"`
	FlipsToHost    uint64  `json:"flips_to_host"`
	SvcBaseUs      float64 `json:"svc_base_us"`
	SvcPerReqUs    float64 `json:"svc_per_req_us"`
	HostRequests   uint64  `json:"host_requests"`
	DeviceRequests uint64  `json:"device_requests"`
}

// Snapshot is the controller's state document (the "adapt" section of
// /v1/stats).
type Snapshot struct {
	// Pinned reports the fixed policy (Config.Pin) and PinWindowUs its
	// window (negative: never time out); SLOMs is then 0. HostPinned
	// reports the pin to the host route (CrossoverRate = +Inf).
	Pinned        bool           `json:"pinned"`
	HostPinned    bool           `json:"host_pinned"`
	PinWindowUs   float64        `json:"pin_window_us"`
	SLOMs         float64        `json:"slo_ms"`
	TickMs        float64        `json:"tick_ms"`
	Ticks         uint64         `json:"ticks"`
	QueueDepth    int            `json:"queue_depth"`
	RetryAfterMs  float64        `json:"retry_after_ms"`
	HostFallbacks uint64         `json:"host_fallbacks"`
	Types         []TypeSnapshot `json:"types"`
}

// Snapshot captures the controller state. Types that have never seen
// traffic are omitted.
func (c *Controller) Snapshot() Snapshot {
	retry := c.RetryAfter()
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		Pinned:       c.cfg.Pin != 0,
		HostPinned:   c.hostPinned(),
		PinWindowUs:  float64(c.cfg.Pin) / 1e3,
		SLOMs:        float64(c.cfg.SLO) / 1e6,
		TickMs:       float64(c.cfg.Tick) / 1e6,
		Ticks:        c.ticks,
		QueueDepth:   c.queue,
		RetryAfterMs: float64(retry) / 1e6,
	}
	for i := range c.types {
		ts := &c.types[i]
		snap.HostFallbacks += ts.hostReqs
		if ts.hostReqs == 0 && ts.devReqs == 0 && !ts.seeded {
			continue
		}
		name := ""
		if i < len(c.cfg.Names) {
			name = c.cfg.Names[i]
		}
		cross := c.crossover(ts)
		if math.IsInf(cross, 1) {
			cross = 0 // JSON has no infinity; HostPinned says it
		}
		snap.Types = append(snap.Types, TypeSnapshot{
			Type:           name,
			RateReqS:       ts.rate,
			WindowUs:       float64(ts.window) / 1e3,
			EarlyThreshold: ts.threshold,
			HostRoute:      ts.hostRoute,
			CrossoverReqS:  cross,
			FlipsToDevice:  ts.toDevice,
			FlipsToHost:    ts.toHost,
			SvcBaseUs:      ts.base * 1e6,
			SvcPerReqUs:    ts.perReq * 1e6,
			HostRequests:   ts.hostReqs,
			DeviceRequests: ts.devReqs,
		})
	}
	return snap
}
