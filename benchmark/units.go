package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rhythm/internal/banking"
	"rhythm/internal/cluster"
	"rhythm/internal/ecom"
	"rhythm/internal/fabric"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/simt"
	"rhythm/internal/telemetry"
)

// interval is a wall-clock interval in ns since the window's epoch.
type interval struct{ start, dur int64 }

// unitRec is one dispatched unit as seen from outside the fabric: when
// it was dispatched and completed, and the stage and render intervals
// the public cluster.Result reports.
type unitRec struct {
	dispatch, done int64
	reqs           int
	stages         []interval
	render         interval
	kernelErrs     int
	err            error
	resps          [][]byte
}

// fill copies what the benchmark keeps of a result. It runs on the
// goroutine that delivers Done and must not block.
func (r *unitRec) fill(res *cluster.Result, epoch time.Time, keepResps bool) {
	r.done = int64(time.Since(epoch))
	r.err = res.Err
	r.kernelErrs = res.KernelErrs
	for _, se := range res.Stages {
		r.stages = append(r.stages, interval{int64(se.Start.Sub(epoch)), int64(se.Dur)})
	}
	r.render = interval{int64(res.RenderStart.Sub(epoch)), int64(res.RenderDur)}
	if keepResps {
		r.resps = res.Resps
	}
}

// spans synthesises the unit's span tree: a root from Dispatch to Done
// with one child per stage kernel and one for the render.
func (r *unitRec) spans(b *spanBuf, id uint32) {
	root := b.add(lyUnit, -1, id, r.dispatch, r.done)
	for _, s := range r.stages {
		b.add(lyKernel, root, id, s.start, s.start+s.dur)
	}
	b.add(lyRender, root, id, r.render.start, r.render.start+r.render.dur)
}

// unitSummary reduces a window's unit records: the window, the summed
// self times of the synthesised spans by layer, and the wall time with at
// least one stage kernel in flight.
type unitSummary struct {
	win                        window
	units, requests            int64
	failed                     int64
	kernelNs, renderNs, selfNs int64
	kernelBusyNs               int64
	spans                      *spanBuf
}

// perOp divides a summed time by an operation count (0 for no
// operations).
func perOp(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func summarizeUnits(recs []*unitRec, dur int64, track int) unitSummary {
	s := unitSummary{spans: &spanBuf{track: track}}
	samples := make([]sample, len(recs))
	var stages []interval
	for i, r := range recs {
		samples[i] = sample{end: r.done, lat: r.done - r.dispatch}
		s.units++
		s.requests += int64(r.reqs)
		if r.err != nil {
			s.failed += int64(r.reqs)
		} else {
			s.failed += int64(r.kernelErrs)
		}
		r.spans(s.spans, uint32(i+1))
		stages = append(stages, r.stages...)
	}
	s.win = summarize(samples, func(i int) int64 { return int64(recs[i].reqs) }, dur)
	self, _ := selfTimes(s.spans.spans)
	s.kernelNs, s.renderNs, s.selfNs = self[lyKernel], self[lyRender], self[lyUnit]
	// Units on different slots run their kernels concurrently, so the
	// device's kernel wall time is the union of the stage intervals.
	sort.Slice(stages, func(i, j int) bool { return stages[i].start < stages[j].start })
	var edge int64
	for _, st := range stages {
		lo, hi := max(st.start, edge), st.start+st.dur
		if hi > lo {
			s.kernelBusyNs += hi - lo
			edge = hi
		}
	}
	return s
}

// deviceMetrics fills simt.* from two simt.DeviceStats readings: units
// dispatched between them and the virtual time that passed on the device
// (ns). The counts are simulated statistics: with a fixed seed and a
// prefilled queue they repeat exactly.
func (o *outcome) deviceMetrics(b, a simt.DeviceStats, units int64, virtualNs float64) {
	launches := float64(a.Launches - b.Launches)
	blocks := float64(a.BlockExecs - b.BlockExecs)
	if units > 0 {
		o.m["simt.launches_per_unit"] = launches / float64(units)
	}
	if blocks > 0 {
		o.m["simt.divergent_exec_share"] = float64(a.DivergentExec-b.DivergentExec) / blocks
	}
	if txns := float64(a.Transactions - b.Transactions); txns > 0 {
		o.m["simt.coalescing_ratio"] = float64(a.IdealTxns-b.IdealTxns) / txns
	}
	if virtualNs > 0 {
		o.m["simt.device_busy_share"] = float64(a.BusyTime-b.BusyTime) / virtualNs
	}
	if launches > 0 {
		o.m["simt.virtual_us_per_launch"] = float64(a.BusyTime-b.BusyTime) / launches / 1e3
	}
}

// ---------------------------------------------------------------------
// device_saturated

// The unit recipe of harness.WorkloadMixStudy, per round: six banking
// cohorts cycling the three session'd reads, four ecom catalog cohorts,
// and telemetry subscribe, then (after the pool drains) ingest, then
// poll. Every cohort is full.
const (
	satCohort       = 128
	satBankingUnits = 6
	satEcomUnits    = 4
	satRoundUnits   = satBankingUnits + satEcomUnits + 3
)

var satBankingTypes = []banking.ReqType{banking.AccountSummary, banking.Profile, banking.Transfer}

// unitPlan is a unit to dispatch: its fused type and parsed requests.
type unitPlan struct {
	typ  service.TypeID
	reqs []httpx.Request
}

func mustParse(raw []byte) httpx.Request {
	req, err := httpx.Parse(raw)
	if err != nil {
		panic(fmt.Sprintf("benchmark: generated request does not parse: %v: %q", err, raw))
	}
	return req
}

// satPhases builds one round's three phases for shard group 0 against
// the given session array (the group's own, or the reference's twin).
func satPhases(reg *service.Registry, seed int64, sessions *session.Array) [3][]unitPlan {
	gen := banking.NewGenerator(seed, sessions)
	gen.Populate(2 * satCohort)
	fill := func(f func(i int) []byte) []httpx.Request {
		reqs := make([]httpx.Request, satCohort)
		for i := range reqs {
			reqs[i] = mustParse(f(i))
		}
		return reqs
	}
	var ph [3][]unitPlan
	for u := 0; u < satBankingUnits; u++ {
		rt := satBankingTypes[u%len(satBankingTypes)]
		ph[0] = append(ph[0], unitPlan{reg.GID(wlBanking, int(rt)), fill(func(int) []byte { return gen.Request(rt) })})
	}
	for u := 0; u < satEcomUnits; u++ {
		local := ecomReads[u%len(ecomReads)]
		ph[0] = append(ph[0], unitPlan{reg.GID(wlEcom, local), fill(func(i int) []byte {
			switch local {
			case ecom.Index:
				return rawGet("/index.php")
			case ecom.Browse:
				return rawGet("/browse.php?cat=" + ecom.Categories[i%len(ecom.Categories)])
			case ecom.Search:
				return rawGet(fmt.Sprintf("/search.php?q=kw%d", (int(seed%977)+i)%977))
			default:
				return rawGet(fmt.Sprintf("/product.php?id=%d", (int(seed%1009)*1009+i*37)%100000))
			}
		})})
	}
	ph[0] = append(ph[0], unitPlan{reg.GID(wlTelemetry, telemetry.Subscribe), fill(func(i int) []byte {
		return rawGet(fmt.Sprintf("/t/subscribe?dev=0&sub=%d", i))
	})})
	ph[1] = []unitPlan{{reg.GID(wlTelemetry, telemetry.Ingest), fill(func(i int) []byte {
		return rawPost("/t/ingest", fmt.Sprintf("dev=0&f=%04x", i&0xffff))
	})}}
	ph[2] = []unitPlan{{reg.GID(wlTelemetry, telemetry.Poll), fill(func(i int) []byte {
		return rawGet(fmt.Sprintf("/t/poll?dev=0&sub=%d", i))
	})}}
	return ph
}

// fixedStats are the simulated statistics of the fixed work: one round
// on a fresh fabric whose queue was prefilled before the device started
// (Manual mode), so every virtual-time value is a pure function of the
// seed. Two runs must agree bit for bit.
type fixedStats struct {
	dev           simt.DeviceStats
	virtualUs     float64
	virtualReqPer float64
}

type satInstance struct {
	fab    *fabric.Fabric
	phases [3][]unitPlan
	fixed  fixedStats
	first  []*unitRec // the fixed round's records (with responses, for the gate)
}

func (in *satInstance) close() { in.fab.Close() }

// dispatchPhase dispatches every unit of a phase, starts the fabric's
// device workers if start is set (the first, prefilled phase), and waits
// for all of them.
func (in *satInstance) dispatchPhase(plans []unitPlan, epoch time.Time, start, keepResps bool) ([]*unitRec, error) {
	recs := make([]*unitRec, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		rec := &unitRec{reqs: len(p.reqs), dispatch: int64(time.Since(epoch))}
		recs[i] = rec
		wg.Add(1)
		u := &cluster.Unit{Type: p.typ, Group: 0, Reqs: p.reqs, Done: func(res *cluster.Result) {
			rec.fill(res, epoch, keepResps)
			wg.Done()
		}}
		if !in.fab.Dispatch(u) {
			return nil, errors.New("device_saturated: fabric refused a unit with a prefill-depth queue")
		}
	}
	if start {
		in.fab.Start()
	}
	wg.Wait()
	return recs, nil
}

func (in *satInstance) round(epoch time.Time, first, keepResps bool) ([]*unitRec, error) {
	var all []*unitRec
	for k, plans := range in.phases {
		recs, err := in.dispatchPhase(plans, epoch, first && k == 0, keepResps)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	return all, nil
}

// setupSaturated builds the loopback fabric (1 node × 1 device, 4
// slots, Manual), seeds the group's sessions, generates the round, and
// runs the fixed round, which doubles as the warm-up.
func setupSaturated(reg *service.Registry, seed int64, keepResps bool) (*satInstance, error) {
	fab, err := fabric.New(fabric.Config{
		Registry: reg, Nodes: 1, DevicesPerNode: 1, CohortSize: satCohort,
		SlotsPerDevice: 4, QueueDepth: satRoundUnits + 3, Manual: true,
	})
	if err != nil {
		return nil, err
	}
	in := &satInstance{fab: fab}
	in.phases = satPhases(reg, seed, fab.GroupSessions(0))
	if in.first, err = in.round(time.Now(), true, keepResps); err != nil {
		fab.Close()
		return nil, err
	}
	snap := fab.Snapshot()
	in.fixed.dev = snap.Aggregate
	for _, d := range snap.Devices {
		in.fixed.virtualUs = max(in.fixed.virtualUs, d.VirtualTimeUs)
	}
	if in.fixed.virtualUs > 0 {
		in.fixed.virtualReqPer = float64(satRoundUnits*satCohort) / (in.fixed.virtualUs / 1e6)
	}
	return in, nil
}

// gateSaturated checks every response of the fixed round against
// Registry.ExecuteHost on the same requests and a twin of the state.
func gateSaturated(reg *service.Registry, seed int64) (int64, error) {
	in, err := setupSaturated(reg, seed, true)
	if err != nil {
		return 0, err
	}
	defer in.close()
	// The cluster's default group geometry.
	refSessions := session.NewArray(sessionBuckets, (1<<16)/sessionBuckets*4+4)
	refBes := reg.NewBackends()
	ref := satPhases(reg, seed, refSessions)
	var checked int64
	k := 0
	for _, plans := range ref {
		for _, p := range plans {
			rec := in.first[k]
			k++
			if rec.err != nil || rec.kernelErrs != 0 || len(rec.resps) != len(p.reqs) {
				return checked, fmt.Errorf("unit %d: err=%v kernel_errors=%d responses=%d", k, rec.err, rec.kernelErrs, len(rec.resps))
			}
			for i := range p.reqs {
				want, failed := reg.ExecuteHost(p.typ, &p.reqs[i], refSessions, refBes)
				if failed || !bytes.Equal(want, rec.resps[i]) {
					return checked, fmt.Errorf("unit %d (%s) request %d: device response differs from Registry.ExecuteHost (host failed=%v)",
						k, reg.Spec(p.typ).Display, i, failed)
				}
				checked++
			}
		}
	}
	return checked, nil
}

func runSaturated(cfg runConfig) (*outcome, error) {
	reg := defaultRegistry()
	o := newOutcome()
	gated, err := gateSaturated(reg, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	o.attempted += gated

	in, setupS, err := medianSetup(
		func() (*satInstance, error) { return setupSaturated(reg, cfg.seed, false) },
		(*satInstance).close,
		exactly(func(in *satInstance) fixedStats { return in.fixed }))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	o.m["setup_s"] = setupS

	before := in.fab.Snapshot()
	rtBefore := readRuntime()
	epoch := time.Now()
	var recs []*unitRec
	for time.Since(epoch).Seconds() < cfg.seconds {
		r, err := in.round(epoch, false, false)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r...)
	}
	elapsed := time.Since(epoch)
	rtAfter := readRuntime()
	after := in.fab.Snapshot()
	if !cfg.trace {
		o.m["heap_mb"] = heapMB()
	}

	// Slices cover the requested window; the round in flight at the
	// deadline completes past it and is not counted.
	s := summarizeUnits(recs, int64(cfg.seconds*1e9), 0)
	o.attempted += s.requests
	o.failed += s.failed + int64(after.Sheds-before.Sheds) + int64(after.LostUnits-before.LostUnits)
	o.windowMetrics(s.win)
	o.m["virtual_req_per_s"] = in.fixed.virtualReqPer
	o.errorShare()
	if !cfg.trace {
		return o, nil
	}
	o.runtimeMetrics(rtBefore, rtAfter, s.requests)
	o.m["service.render_ns_per_req"] = perOp(s.renderNs, s.requests)
	o.m["simt.kernel_wall_us_per_req"] = perOp(s.kernelNs, s.requests) / 1e3
	o.m["fabric.unit_rtt_us_p50"] = s.win.p50Ms * 1e3
	o.m["fabric.self_us_per_unit"] = perOp(s.selfNs, s.units) / 1e3
	// On loopback the fabric adds no hop of its own: what a unit's root
	// span does not spend in kernels or render, it spent queued.
	o.m["cluster.queue_us_per_unit"] = perOp(s.selfNs, s.units) / 1e3
	o.m["cluster.units_per_s"] = float64(s.units) / elapsed.Seconds()
	o.m["cluster.sheds"] = float64(after.Sheds - before.Sheds)
	o.m["cluster.retries"] = float64(after.Retries - before.Retries)
	// The simulated statistics come from the fixed round, so they repeat
	// exactly; host time per simulated event comes from the window.
	o.deviceMetrics(simt.DeviceStats{}, in.fixed.dev, satRoundUnits, in.fixed.virtualUs*1e3)
	o.m["simt.host_ns_per_block_exec"] = perOp(s.kernelBusyNs, after.Aggregate.BlockExecs-before.Aggregate.BlockExecs)
	o.m["simt.kernel_wall_share"] = float64(s.kernelBusyNs) / float64(elapsed)
	// bench.trace_overhead_share stays 0: the spans are built after the
	// window from fields every Result carries anyway.
	return o, writeChromeTrace(cfg.tracePath("device_saturated"), []*spanBuf{s.spans})
}

// ---------------------------------------------------------------------
// cohort_socket's unit replay

// replayCohortUnits replays occupancy-sized units of cohort_socket's mix
// through a loopback fabric of the cohort server's default geometry, one
// at a time, and reports the kernel and render wall time the server
// itself does not expose per window.
func replayCohortUnits(reg *service.Registry, seed int64, occupancy int) (unitSummary, error) {
	fab, err := fabric.New(fabric.Config{Registry: reg, CohortSize: 128, SlotsPerDevice: 4})
	if err != nil {
		return unitSummary{}, err
	}
	defer fab.Close()
	tr := mixedTraffic(reg)
	g := newCorpusGen(reg, tr, seed, 0)
	// Session'd banking requests carry live cookies of the group's own
	// array; logins and logouts stay out (they need the cookie jar).
	g.gen = banking.NewGenerator(seed, fab.GroupSessions(0))
	g.gen.Populate(256)
	g.tr.banking = append([]float64(nil), tr.banking...)
	g.tr.banking[banking.Login], g.tr.banking[banking.Logout] = 0, 0
	sub := &cluster.Unit{Type: reg.GID(wlTelemetry, telemetry.Subscribe), Group: 0,
		Reqs: []httpx.Request{mustParse(g.telemetryEntry(telemetry.Subscribe).raw)}}
	const units = 300
	epoch := time.Now()
	recs := make([]*unitRec, 0, units)
	done := make(chan struct{}, 1)
	dispatch := func(u *cluster.Unit, rec *unitRec) error {
		u.Done = func(res *cluster.Result) { rec.fill(res, epoch, false); done <- struct{}{} }
		rec.dispatch = int64(time.Since(epoch))
		if !fab.Dispatch(u) {
			return errors.New("cohort unit replay: fabric refused a unit")
		}
		<-done
		return rec.err
	}
	if err := dispatch(sub, &unitRec{reqs: 1}); err != nil {
		return unitSummary{}, err
	}
	weights := g.tr.localWeights(reg)
	for len(recs) < units {
		w := pick(g.rng, g.tr.split[:])
		local := pick(g.rng, weights[w])
		reqs := make([]httpx.Request, occupancy)
		for i := range reqs {
			reqs[i] = mustParse(g.entryOf(w, local).raw)
		}
		rec := &unitRec{reqs: occupancy}
		if err := dispatch(&cluster.Unit{Type: reg.GID(w, local), Group: 0, Reqs: reqs}, rec); err != nil {
			return unitSummary{}, err
		}
		recs = append(recs, rec)
	}
	return summarizeUnits(recs, int64(time.Since(epoch)), 200), nil
}
