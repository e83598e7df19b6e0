package harness

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"rhythm/internal/adapt"
	"rhythm/internal/banking"
	"rhythm/internal/pipeline"
	"rhythm/internal/service"
)

// AdaptivePhase is one segment of the step-load schedule the adaptive
// study replays: an offered rate held for a fixed number of requests.
type AdaptivePhase struct {
	Name     string
	Rate     float64 // req/s
	Requests int
}

// AdaptivePhaseRow compares the fixed formation timeout against the
// adaptive controller over one phase of the schedule.
type AdaptivePhaseRow struct {
	Phase    string
	RateReqS float64
	// Fixed / Adaptive latency percentiles (ms) and throughput (req/s
	// of virtual time) over the steady second half of the phase — the
	// first half absorbs the controller's convergence transient, which
	// ConvergeTicks quantifies separately.
	FixedP50Ms    float64
	FixedP99Ms    float64
	FixedTput     float64
	AdaptiveP50Ms float64
	AdaptiveP99Ms float64
	AdaptiveTput  float64
	// ConvergeTicks is how many controller ticks after entering the
	// phase the early-launch threshold needed to settle into ±25% of
	// its end-of-phase value.
	ConvergeTicks int
	// EndWindowUs / EndThreshold are the controller's operating point at
	// the end of the phase.
	EndWindowUs  float64
	EndThreshold int
}

// AdaptiveResult is the SLO-aware formation study: the service model
// calibrated from real kernel launches, and the fixed-vs-adaptive
// comparison across the step schedule.
type AdaptiveResult struct {
	SvcBaseUs   float64 // calibrated a of S(n) = a + b·n
	SvcPerReqUs float64 // calibrated b
	SLOMs       float64
	TickMs      float64
	Capacity    int
	FixedMs     float64 // the fixed policy's formation timeout
	Rows        []AdaptivePhaseRow
}

// CalibrateServiceModel measures the cohort service time S(n) = a + b·n
// of account_summary on Titan B by running serialized cohorts (one
// context, so launches never overlap) at several sizes under virtual
// time and least-squares fitting the per-cohort elapsed time. Entirely
// deterministic: the same seed yields the same model at any host
// parallelism.
func CalibrateServiceModel(cfg Config) (a, b float64) {
	cfg.validate()
	sizes := []int{8, 32, 128}
	var sn, sx, sy, sxx, sxy float64
	for _, size := range sizes {
		po := titanOptions(cfg, service.TitanB)
		po.CohortSize = size
		po.MaxCohorts = 1 // serialize: elapsed/formed is S(n), not S(n)/overlap
		srv := pipeline.New(po, cfg.device(nil), 0, cfg.Seed, cfg.population(), 6*size)
		st := srv.Run(isolationSource(srv.Generator(), banking.AccountSummary, 6*size))
		if st.Cohort.Formed == 0 {
			panic("harness: calibration run formed no cohorts")
		}
		y := (time.Duration(st.End - st.Start)).Seconds() / float64(st.Cohort.Formed)
		x := float64(size)
		sn++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	det := sn*sxx - sx*sx
	b = (sn*sxy - sx*sy) / det
	a = (sy - b*sx) / sn
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("harness: degenerate service model a=%g b=%g", a, b))
	}
	return a, b
}

// AdaptiveStudy calibrates the service model from real kernel launches,
// derives a low/high/low step schedule around the device's saturation
// point, and replays it through a virtual-time formation queue twice:
// once under the fixed 2ms formation timeout and once under the
// adaptive controller with a p99 SLO. All virtual time and a seeded
// arrival process — bit-identical at any RHYTHM_HOST_PARALLELISM.
func AdaptiveStudy(cfg Config) AdaptiveResult {
	const (
		capacity = 64
		slo      = 20 * time.Millisecond
		tick     = 10 * time.Millisecond
		fixed    = 2 * time.Millisecond
	)
	a, b := CalibrateServiceModel(cfg)
	// High rate: ~60% of the capacity-cohort saturation rate; low:
	// 1/20th of that, where batching buys nothing.
	high := 0.6 / (a/capacity + b)
	low := high / 20
	phases := []AdaptivePhase{
		{Name: "low", Rate: low, Requests: 4000},
		{Name: "step-up", Rate: high, Requests: 40000},
		{Name: "step-down", Rate: low, Requests: 4000},
	}

	ctrl := adapt.New(adapt.Config{
		Types:    1,
		Capacity: capacity,
		SLO:      slo,
		Tick:     tick,
		// Device-only: the study isolates the formation window dynamics.
		CrossoverRate:  -1,
		SvcBasePrior:   time.Duration(a * 1e9),
		SvcPerReqPrior: time.Duration(b * 1e9),
	})
	adaptiveRows := simFormationQueue(ctrl, phases, a, b, capacity, cfg.Seed)
	// The fixed policy is the same controller pinned.
	pinned := adapt.New(adapt.Config{Types: 1, Capacity: capacity, Pin: fixed, Tick: tick})
	fixedRows := simFormationQueue(pinned, phases, a, b, capacity, cfg.Seed)

	res := AdaptiveResult{
		SvcBaseUs:   a * 1e6,
		SvcPerReqUs: b * 1e6,
		SLOMs:       slo.Seconds() * 1e3,
		TickMs:      tick.Seconds() * 1e3,
		Capacity:    capacity,
		FixedMs:     fixed.Seconds() * 1e3,
	}
	for i, ph := range phases {
		res.Rows = append(res.Rows, AdaptivePhaseRow{
			Phase:         ph.Name,
			RateReqS:      ph.Rate,
			FixedP50Ms:    fixedRows[i].p50 * 1e3,
			FixedP99Ms:    fixedRows[i].p99 * 1e3,
			FixedTput:     fixedRows[i].tput,
			AdaptiveP50Ms: adaptiveRows[i].p50 * 1e3,
			AdaptiveP99Ms: adaptiveRows[i].p99 * 1e3,
			AdaptiveTput:  adaptiveRows[i].tput,
			ConvergeTicks: adaptiveRows[i].converge,
			EndWindowUs:   adaptiveRows[i].endWindow * 1e6,
			EndThreshold:  adaptiveRows[i].endThreshold,
		})
	}
	return res
}

// phaseSim is one phase's outcome from the virtual-time queue.
type phaseSim struct {
	p50, p99     float64 // seconds
	tput         float64 // served / phase span
	converge     int
	endWindow    float64
	endThreshold int
}

// simFormationQueue replays the phase schedule through a single-device
// formation queue: Poisson arrivals, cohorts launch on threshold /
// capacity / window expiry, the device serves FIFO at S(n) = a + b·n.
// The window and threshold are ctrl's, re-read on every controller tick
// (a pinned controller never moves them).
func simFormationQueue(ctrl *adapt.Controller, phases []AdaptivePhase, a, b float64, capacity int, seed int64) []phaseSim {
	rng := rand.New(rand.NewSource(seed))
	atSec := func(sec float64) time.Time { return time.Unix(0, int64(sec*1e9)) }
	svc := func(k int) float64 { return a + b*float64(k) }
	window := ctrl.Window(0).Seconds()
	threshold := ctrl.Threshold(0)
	type served struct{ lat, fin float64 }
	var (
		forming  []float64 // arrival times of the forming cohort
		opened   float64
		devFree  float64
		nextTick float64
		now      float64
		done     []served // current phase's completions, in launch order
		thrTrace []int    // threshold after each controller tick this phase
	)
	ctrl.Tick(atSec(0))
	nextTick = ctrl.TickEvery().Seconds()
	launch := func(when float64) {
		k := len(forming)
		start := math.Max(when, devFree)
		fin := start + svc(k)
		devFree = fin
		for _, arr := range forming {
			done = append(done, served{lat: fin - arr, fin: fin})
		}
		ctrl.ObserveLaunch(0, k, time.Duration(svc(k)*1e9))
		forming = forming[:0]
	}
	var out []phaseSim
	for _, ph := range phases {
		done = done[:0]
		thrTrace = thrTrace[:0]
		for i := 0; i < ph.Requests; i++ {
			now += rng.ExpFloat64() / ph.Rate
			// Fire elapsed formation deadlines and controller ticks in
			// virtual-time order before admitting this arrival.
			for {
				deadline := math.Inf(1)
				if len(forming) > 0 {
					deadline = opened + window
				}
				if nextTick < deadline && nextTick <= now {
					ctrl.Tick(atSec(nextTick))
					window = ctrl.Window(0).Seconds()
					threshold = ctrl.Threshold(0)
					thrTrace = append(thrTrace, threshold)
					nextTick += ctrl.TickEvery().Seconds()
					continue
				}
				if deadline <= now {
					launch(deadline)
					continue
				}
				break
			}
			ctrl.Arrival(0)
			if len(forming) == 0 {
				opened = now
			}
			forming = append(forming, now)
			// Early launches fire only into a free device — a busy device
			// back-pressures formation so the cohort keeps growing toward
			// capacity, exactly like the pool's limited execution slots.
			if len(forming) >= capacity || (len(forming) >= threshold && devFree <= now) {
				launch(now)
			}
		}
		if len(forming) > 0 {
			launch(opened + window)
		}
		// Steady-state stats over the second half of the phase: the
		// first half absorbs the controller transient after the step.
		steady := done[len(done)/2:]
		sorted := make([]float64, len(steady))
		for i, s := range steady {
			sorted[i] = s.lat
		}
		sort.Float64s(sorted)
		pick := func(p float64) float64 {
			if len(sorted) == 0 {
				return 0
			}
			return sorted[int(p*float64(len(sorted)-1))]
		}
		ps := phaseSim{
			p50:          pick(0.50),
			p99:          pick(0.99),
			endWindow:    window,
			endThreshold: threshold,
		}
		if len(steady) > 1 {
			if span := steady[len(steady)-1].fin - steady[0].fin; span > 0 {
				ps.tput = float64(len(steady)-1) / span
			}
		}
		ps.converge = convergeTicks(thrTrace)
		out = append(out, ps)
	}
	return out
}

// convergeTicks reports how many ticks into the phase the threshold
// settled: the index after the last tick whose threshold sat outside
// ±25% (and more than ±1, so integer quantization at small thresholds
// does not count as drift) of the end-of-phase value.
func convergeTicks(trace []int) int {
	if len(trace) == 0 {
		return 0
	}
	final := float64(trace[len(trace)-1])
	band := math.Max(1, 0.25*final)
	last := 0
	for i, thr := range trace {
		if math.Abs(float64(thr)-final) > band {
			last = i + 1
		}
	}
	return last
}

// RenderAdaptive formats the study.
func RenderAdaptive(r AdaptiveResult) *Table {
	t := &Table{
		Title: "DESIGN.md Sec 12: SLO-aware adaptive cohort formation (step load)",
		Caption: fmt.Sprintf("calibrated S(n) = %.0fus + %.2fus*n; p99 SLO %.0fms vs fixed %.0fms timeout; virtual-time queue",
			r.SvcBaseUs, r.SvcPerReqUs, r.SLOMs, r.FixedMs),
		Headers: []string{"Phase", "Rate req/s", "Fixed p50/p99 ms", "Adaptive p50/p99 ms", "Adaptive KReq/s", "Converge ticks", "End window us", "End threshold"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Phase, f0(row.RateReqS),
			f2(row.FixedP50Ms)+" / "+f2(row.FixedP99Ms),
			f2(row.AdaptiveP50Ms)+" / "+f2(row.AdaptiveP99Ms),
			kilo(row.AdaptiveTput), fmt.Sprint(row.ConvergeTicks),
			f0(row.EndWindowUs), fmt.Sprint(row.EndThreshold))
	}
	return t
}
