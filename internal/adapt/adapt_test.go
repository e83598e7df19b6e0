package adapt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// at converts virtual seconds to the explicit clock Tick consumes.
func at(sec float64) time.Time { return time.Unix(0, int64(sec*1e9)) }

// seedModel feeds enough synthetic launches that the least-squares fit
// converges to S(n) = a + b·n.
func seedModel(c *Controller, t int, a, b float64) {
	for _, n := range []int{1, 8, 32, 64, 1, 8, 32, 64} {
		c.ObserveLaunch(t, n, time.Duration((a+b*float64(n))*1e9))
	}
}

// drive runs whole ticks at a fixed arrival rate: the exact per-tick
// arrival count keeps the test deterministic.
func drive(c *Controller, clock *float64, rate float64, ticks int) {
	tick := c.TickEvery().Seconds()
	per := int(rate * tick)
	for i := 0; i < ticks; i++ {
		for j := 0; j < per; j++ {
			c.Arrival(0)
		}
		*clock += tick
		c.Tick(at(*clock))
	}
}

// TestStepConvergence is the step-load contract: after a rate step the
// window and threshold move to the new operating point within K ticks,
// in both directions.
func TestStepConvergence(t *testing.T) {
	const K = 20
	c := New(Config{
		Types: 1, Capacity: 64,
		SLO:           20 * time.Millisecond,
		Tick:          10 * time.Millisecond,
		CrossoverRate: -1, // device-only: isolate the window dynamics
	})
	clock := 0.0
	c.Tick(at(clock)) // arm the tick clock
	seedModel(c, 0, 1e-3, 5e-6)

	drive(c, &clock, 500, 30)
	lowWin, lowThr := c.Window(0), c.Threshold(0)
	if lowThr > 2 {
		t.Fatalf("low-rate threshold = %d, want <= 2", lowThr)
	}
	if lowWin > time.Millisecond {
		t.Fatalf("low-rate window = %v, want <= 1ms", lowWin)
	}

	// Step up: the window must widen and the threshold grow within K
	// ticks of the rate step.
	drive(c, &clock, 30000, K)
	hiWin, hiThr := c.Window(0), c.Threshold(0)
	if hiThr < 16 {
		t.Fatalf("high-rate threshold = %d after %d ticks, want >= 16", hiThr, K)
	}
	if hiWin < 4*lowWin || hiWin < time.Millisecond {
		t.Fatalf("high-rate window = %v after %d ticks, want >= 4x low (%v) and >= 1ms", hiWin, K, lowWin)
	}
	if hiWin > c.cfg.SLO {
		t.Fatalf("window %v exceeds SLO %v", hiWin, c.cfg.SLO)
	}

	// Step back down: narrows within K ticks.
	drive(c, &clock, 500, K)
	if thr := c.Threshold(0); thr > 4 {
		t.Fatalf("threshold = %d %d ticks after step-down, want <= 4", thr, K)
	}
	if w := c.Window(0); w > lowWin*2 {
		t.Fatalf("window = %v %d ticks after step-down, want <= %v", w, K, lowWin*2)
	}
}

// TestServiceModelFit checks the decayed least-squares fit recovers a
// linear service model from noiseless observations.
func TestServiceModelFit(t *testing.T) {
	c := New(Config{Types: 1, Capacity: 128, SLO: 50 * time.Millisecond})
	a, b := 500e-6, 10e-6
	for i := 0; i < 40; i++ {
		n := 4 + (i%16)*4
		c.ObserveLaunch(0, n, time.Duration((a+b*float64(n))*1e9))
	}
	ts := &c.types[0]
	if math.Abs(ts.base-a)/a > 0.2 {
		t.Fatalf("fitted base %.1fus, want ~%.1fus", ts.base*1e6, a*1e6)
	}
	if math.Abs(ts.perReq-b)/b > 0.2 {
		t.Fatalf("fitted per-req %.2fus, want ~%.2fus", ts.perReq*1e6, b*1e6)
	}
	// Single-size launches must not blow up the fit (degenerate system).
	for i := 0; i < 20; i++ {
		c.ObserveLaunch(0, 32, time.Duration((a+b*32)*1e9))
	}
	if ts.perReq <= 0 || ts.base <= 0 {
		t.Fatalf("degenerate fit went non-positive: a=%g b=%g", ts.base, ts.perReq)
	}
}

// TestCrossoverHysteresis checks the host/device routing band around an
// explicit crossover rate.
func TestCrossoverHysteresis(t *testing.T) {
	c := New(Config{
		Types: 1, Capacity: 64,
		SLO:           20 * time.Millisecond,
		Tick:          10 * time.Millisecond,
		CrossoverRate: 1000,
	})
	clock := 0.0
	c.Tick(at(clock))
	if !c.Arrival(0) {
		t.Fatal("cold start should route to host")
	}
	drive(c, &clock, 100, 10)
	if !c.types[0].hostRoute {
		t.Fatal("100 req/s under crossover 1000 should route host")
	}
	drive(c, &clock, 2000, 15)
	if c.types[0].hostRoute {
		t.Fatal("2000 req/s over crossover 1000 should route device")
	}
	// Inside the band (800..1250) the route must hold (hysteresis).
	drive(c, &clock, 900, 15)
	if c.types[0].hostRoute {
		t.Fatal("900 req/s inside the band should keep the device route")
	}
	drive(c, &clock, 300, 15)
	if !c.types[0].hostRoute {
		t.Fatal("300 req/s under the band should fall back to host")
	}
	snap := c.Snapshot()
	if snap.HostFallbacks == 0 {
		t.Fatal("snapshot lost the host fallback count")
	}
	// The policy is visible: one flip each way and the crossover in force.
	if ts := snap.Types[0]; ts.FlipsToDevice != 1 || ts.FlipsToHost != 1 || ts.CrossoverReqS != 1000 || snap.Pinned {
		t.Fatalf("snapshot flips to device/host = %d/%d, crossover %v, pinned %v; want 1/1, 1000, false",
			ts.FlipsToDevice, ts.FlipsToHost, ts.CrossoverReqS, snap.Pinned)
	}
}

// TestPinned is the fixed §3.1 policy as a mode of the controller: the
// window and threshold never move whatever the rate or the tick count,
// nothing routes to the host, and the service model is still fitted.
func TestPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		pin  time.Duration
	}{
		{"2ms", 2 * time.Millisecond},
		{"100ms", 100 * time.Millisecond},
		{"never", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The SLO and crossover given beside a pin are ignored.
			c := New(Config{Types: 2, Capacity: 64, Pin: tc.pin, SLO: time.Millisecond, CrossoverRate: 1e12, Tick: 10 * time.Millisecond})
			clock := 0.0
			c.Tick(at(clock))
			check := func(when string) {
				t.Helper()
				for typ := 0; typ < 2; typ++ {
					if w, thr := c.Window(typ), c.Threshold(typ); w != tc.pin || thr != 64 {
						t.Fatalf("%s: type %d window=%v threshold=%d, want %v and the capacity 64", when, typ, w, thr, tc.pin)
					}
				}
				if c.Arrival(0) {
					t.Fatalf("%s: a pinned controller routed a request to the host", when)
				}
			}
			check("cold")
			drive(c, &clock, 50, 5)
			check("at 50 req/s")
			drive(c, &clock, 50000, 30)
			check("at 50K req/s")
			drive(c, &clock, 0, 30)
			check("idle again")

			seedModel(c, 0, 1e-3, 5e-6)
			snap := c.Snapshot()
			if !snap.Pinned || snap.SLOMs != 0 || snap.HostFallbacks != 0 {
				t.Fatalf("snapshot pinned=%v slo_ms=%v host_fallbacks=%d, want true/0/0", snap.Pinned, snap.SLOMs, snap.HostFallbacks)
			}
			ts := snap.Types[0]
			if math.Abs(ts.SvcBaseUs-1000) > 1 || math.Abs(ts.SvcPerReqUs-5) > 0.01 {
				t.Fatalf("pinned fit S(n) = %.1fus + %.3fus*n, want 1000 + 5n", ts.SvcBaseUs, ts.SvcPerReqUs)
			}
			if ts.CrossoverReqS != 0 || ts.FlipsToHost != 0 || ts.FlipsToDevice != 0 || ts.HostRoute {
				t.Fatalf("pinned type shows a host route: %+v", ts)
			}
		})
	}
}

func TestRetryAfterClamp(t *testing.T) {
	c := New(Config{Types: 1, Capacity: 64, SLO: 20 * time.Millisecond})
	if d := c.RetryAfter(); d != time.Second {
		t.Fatalf("empty-queue RetryAfter = %v, want the 1s floor", d)
	}
	c.NoteQueue(1 << 30)
	if d := c.RetryAfter(); d != 30*time.Second {
		t.Fatalf("huge-queue RetryAfter = %v, want the 30s ceiling", d)
	}
}

// simResult is one queue-simulation run's latency distribution.
type simResult struct{ p50, p99 time.Duration }

// simulate runs a seeded single-device queue under either the controller
// (ctrl != nil) or a fixed formation timeout: Poisson arrivals of one
// type, cohorts launch on threshold or window expiry, the device serves
// FIFO at S(n) = a + b·n. Entirely virtual time — deterministic.
func simulate(ctrl *Controller, fixedWindow time.Duration, rate, a, b float64, capacity, n int, seed int64) simResult {
	rng := rand.New(rand.NewSource(seed))
	svc := func(k int) float64 { return a + b*float64(k) }
	window := fixedWindow.Seconds()
	threshold := capacity
	var (
		lats     []float64
		forming  []float64 // arrival times of the forming cohort
		opened   float64
		devFree  float64
		nextTick float64
	)
	if ctrl != nil {
		ctrl.Tick(at(0))
		nextTick = ctrl.TickEvery().Seconds()
	}
	launch := func(when float64) {
		k := len(forming)
		start := math.Max(when, devFree)
		fin := start + svc(k)
		devFree = fin
		for _, arr := range forming {
			lats = append(lats, fin-arr)
		}
		if ctrl != nil {
			ctrl.ObserveLaunch(0, k, time.Duration(svc(k)*1e9))
		}
		forming = forming[:0]
	}
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64() / rate
		// Fire the formation deadline and controller ticks that elapsed
		// before this arrival, in order.
		for {
			deadline := math.Inf(1)
			if len(forming) > 0 {
				deadline = opened + window
			}
			if ctrl != nil && nextTick < deadline && nextTick <= now {
				ctrl.Tick(at(nextTick))
				window = ctrl.Window(0).Seconds()
				threshold = ctrl.Threshold(0)
				nextTick += ctrl.TickEvery().Seconds()
				continue
			}
			if deadline <= now {
				launch(deadline)
				continue
			}
			break
		}
		if ctrl != nil {
			ctrl.Arrival(0)
		}
		if len(forming) == 0 {
			opened = now
		}
		forming = append(forming, now)
		if len(forming) >= threshold || len(forming) >= capacity {
			launch(now)
		}
	}
	if len(forming) > 0 {
		launch(opened + window)
	}
	sort.Float64s(lats)
	pick := func(p float64) time.Duration {
		i := int(p * float64(len(lats)-1))
		return time.Duration(lats[i] * 1e9)
	}
	return simResult{p50: pick(0.50), p99: pick(0.99)}
}

// TestAdaptiveQueueMeetsSLO runs the virtual-time queue at a low and a
// high rate: adaptive p99 stays under the SLO at both, and at low rate
// adaptive beats the fixed 2ms timeout's p50 (no pointless batching
// delay).
func TestAdaptiveQueueMeetsSLO(t *testing.T) {
	const (
		slo      = 20 * time.Millisecond
		a, b     = 1e-3, 5e-6
		capacity = 64
	)
	cfg := Config{
		Types: 1, Capacity: capacity, SLO: slo,
		Tick:          10 * time.Millisecond,
		CrossoverRate: -1,
	}
	for _, rate := range []float64{200, 5000} {
		ctrl := New(cfg)
		seedModel(ctrl, 0, a, b)
		res := simulate(ctrl, 0, rate, a, b, capacity, 20000, 7)
		if res.p99 > slo {
			t.Fatalf("rate %.0f: adaptive p99 %v exceeds SLO %v", rate, res.p99, slo)
		}
	}
	adaptive := New(cfg)
	seedModel(adaptive, 0, a, b)
	lowAdaptive := simulate(adaptive, 0, 200, a, b, capacity, 20000, 7)
	lowFixed := simulate(nil, 2*time.Millisecond, 200, a, b, capacity, 20000, 7)
	if lowAdaptive.p50 >= lowFixed.p50 {
		t.Fatalf("low-rate adaptive p50 %v should beat fixed-timeout p50 %v", lowAdaptive.p50, lowFixed.p50)
	}
}
