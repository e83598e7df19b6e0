package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// fabric_tcp_hostunits: nproc callers each dispatch cluster.Unit{Host:
// true} of one request through fabric.Dispatch, wait for Done, and
// alternate between the two shard groups. The same callers drive a
// loopback fabric of the same shape as the control that isolates the
// wire.

const hostUnitGroups = 2

// unitCorpus is one caller's stream for one shard group, in parsed
// form, with the units prebuilt so that dispatching allocates nothing
// on the caller's side.
type unitCorpus struct {
	setup, loop []unitEntry
	units       []*cluster.Unit // parallel to loop
	jar         *cookieJar
	next        int
}

func buildUnitCorpus(reg *service.Registry, seed int64, caller, g int) (*unitCorpus, error) {
	tr := hostUnitTraffic(reg)
	gen := newCorpusGen(reg, tr, seed+int64(g)*104729, caller)
	// A session lands in bucket session.BucketFor(uid), and a bucket
	// belongs to shard group bucket mod groups: these users live in g.
	gen.uids = spreadUIDs(seed, caller, tr.users, func(s int) int {
		return (hostUnitGroups*s + g) % sessionBuckets
	})
	cor := gen.build(2048)
	uc := &unitCorpus{jar: newJar(tr.users)}
	var err error
	if uc.setup, err = parseEntries(cor.setup); err != nil {
		return nil, err
	}
	if uc.loop, err = parseEntries(cor.loop); err != nil {
		return nil, err
	}
	return uc, nil
}

// hostCaller is one closed-loop caller.
type hostCaller struct {
	idx     int
	fab     *fabric.Fabric
	cor     [hostUnitGroups]*unitCorpus
	turn    int
	res     *cluster.Result
	ch      chan struct{} // buffered(1): Done never blocks
	done    func(*cluster.Result)
	samples []sample
	failed  int64
	spans   *spanBuf
}

func newHostCaller(reg *service.Registry, seed int64, idx int) (*hostCaller, error) {
	c := &hostCaller{idx: idx, ch: make(chan struct{}, 1)}
	c.done = func(res *cluster.Result) { c.res = res; c.ch <- struct{}{} }
	for g := range c.cor {
		uc, err := buildUnitCorpus(reg, seed, idx, g)
		if err != nil {
			return nil, err
		}
		for i := range uc.loop {
			uc.units = append(uc.units, c.unit(&uc.loop[i], g))
		}
		c.cor[g] = uc
	}
	return c, nil
}

// unit wraps one parsed request as a single-request host unit of group g.
func (c *hostCaller) unit(e *unitEntry, g int) *cluster.Unit {
	return &cluster.Unit{Type: e.typ, Group: g, Host: true, Reqs: []httpx.Request{e.req}, Done: c.done}
}

// roundTrip dispatches one single-request host unit and waits for it.
// The only allocation on the caller's side is the cookie's string.
func (c *hostCaller) roundTrip(uc *unitCorpus, e *unitEntry, u *cluster.Unit) (*cluster.Result, error) {
	if e.cookieIdx >= 0 {
		u.Reqs[0].Cookies[e.cookieIdx].Value = string(uc.jar.holder(&e.entry)[:])
	}
	if !c.fab.Dispatch(u) {
		return nil, errors.New("the fabric refused the unit")
	}
	<-c.ch
	res := c.res
	if res.Err != nil {
		return res, res.Err
	}
	if res.KernelErrs != 0 || len(res.Resps) != 1 {
		return res, errors.New("the unit took the error path")
	}
	if resp := res.Resps[0]; e.kind == kindLogin && !uc.jar.learn(&e.entry, resp[:min(len(resp), 512)]) {
		return res, errNoCookie
	}
	return res, nil
}

// login plays a group's set-up script through the caller's fabric.
func (c *hostCaller) login(g int) error {
	uc := c.cor[g]
	for i := range uc.setup {
		e := &uc.setup[i]
		if _, err := c.roundTrip(uc, e, c.unit(e, g)); err != nil {
			return fmt.Errorf("caller %d: %s: %w", c.idx, firstLine(e.raw), err)
		}
	}
	return nil
}

// step dispatches the caller's next unit, alternating groups.
func (c *hostCaller) step() (*cluster.Result, error) {
	g := c.turn % hostUnitGroups
	c.turn++
	uc := c.cor[g]
	i := uc.next
	e, u := &uc.loop[i], uc.units[i]
	res, err := c.roundTrip(uc, e, u)
	if uc.next++; uc.next == len(uc.loop) {
		uc.next = 0
		uc.jar.cycled()
	}
	return res, err
}

func (c *hostCaller) run(epoch, deadline time.Time) {
	for {
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		res, err := c.step()
		end := time.Now()
		if err != nil {
			c.failed++
		}
		c.samples = append(c.samples, sample{end: int64(end.Sub(epoch)), lat: int64(end.Sub(start))})
		if c.spans != nil && res != nil {
			// The worker's clock is not the caller's: the render (here the
			// whole ExecuteHost) is anchored at the end of the round trip.
			id := uint32(len(c.samples))
			root := c.spans.add(lyUnit, -1, id, int64(start.Sub(epoch)), int64(end.Sub(epoch)))
			c.spans.add(lyRender, root, id, int64(end.Sub(epoch))-int64(res.RenderDur), int64(end.Sub(epoch)))
		}
	}
}

// hostUnitInstance is a set-up fabric with its logged-in, warmed-up
// callers. workers is empty for the loopback control.
type hostUnitInstance struct {
	workers []*fabric.Worker
	fab     *fabric.Fabric
	callers []*hostCaller
}

func (in *hostUnitInstance) close() {
	if in.fab != nil {
		in.fab.Close()
	}
	for _, w := range in.workers {
		w.Close()
	}
}

const hostUnitWarm = 512 // warm-up units per caller, part of set-up

// setupHostUnits builds the fabric — two in-process workers of one
// device each behind the tcp transport, or the loopback control of the
// same shape — then the callers' corpora, logs every user in through
// the fabric, and warms up.
func setupHostUnits(reg *service.Registry, seed int64, callers int, tcp bool) (*hostUnitInstance, error) {
	in := &hostUnitInstance{}
	cfg := fabric.Config{Registry: reg, Nodes: hostUnitGroups, DevicesPerNode: 1, Groups: hostUnitGroups}
	if tcp {
		for i := 0; i < hostUnitGroups; i++ {
			w := fabric.NewWorker(fabric.WorkerConfig{Registry: reg, Devices: 1, Groups: hostUnitGroups})
			in.workers = append(in.workers, w)
			if err := w.Listen("127.0.0.1:0"); err != nil {
				in.close()
				return nil, err
			}
			go w.Serve()
			cfg.Addrs = append(cfg.Addrs, w.Addr())
		}
	}
	var err error
	if in.fab, err = fabric.New(cfg); err != nil {
		in.close()
		return nil, err
	}
	errs := make([]error, callers)
	in.callers = make([]*hostCaller, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := newHostCaller(reg, seed, i)
			if err != nil {
				errs[i] = err
				return
			}
			c.fab = in.fab
			in.callers[i] = c
			for g := 0; g < hostUnitGroups && errs[i] == nil; g++ {
				errs[i] = c.login(g)
			}
			for k := 0; k < hostUnitWarm && errs[i] == nil; k++ {
				_, errs[i] = c.step()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// hostUnitPass is one measured window.
type hostUnitPass struct {
	win               window
	attempted         int64
	failed            int64
	before, after     fabric.Snapshot
	rtBefore, rtAfter rtSnap
	spans             []*spanBuf
}

func (in *hostUnitInstance) measure(seconds float64, trace bool) hostUnitPass {
	var p hostUnitPass
	for _, c := range in.callers {
		c.samples, c.failed, c.spans = c.samples[:0], 0, nil
		if trace {
			c.spans = &spanBuf{track: c.idx}
			p.spans = append(p.spans, c.spans)
		}
	}
	p.before = in.fab.Snapshot()
	p.rtBefore = readRuntime()
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range in.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(epoch, deadline)
		}()
	}
	wg.Wait()
	p.rtAfter = readRuntime()
	p.after = in.fab.Snapshot()
	var all []sample
	for _, c := range in.callers {
		all = append(all, c.samples...)
		p.attempted += int64(len(c.samples))
		p.failed += c.failed
	}
	p.failed += int64(p.after.LostUnits-p.before.LostUnits) + int64(p.after.Sheds-p.before.Sheds)
	p.win = summarize(all, nil, int64(deadline.Sub(epoch)))
	return p
}

// gateHostUnits drives one caller's script through a fresh tcp fabric
// and checks every response against Registry.ExecuteHost on the same
// request and a twin of each group's state.
func gateHostUnits(reg *service.Registry, seed int64) (int64, error) {
	in, err := setupHostUnits(reg, seed, 0, true)
	if err != nil {
		return 0, err
	}
	defer in.close()
	c, err := newHostCaller(reg, seed+7, 0)
	if err != nil {
		return 0, err
	}
	c.fab = in.fab
	type twin struct {
		sessions *session.Array
		bes      []service.Backend
	}
	var twins [hostUnitGroups]twin
	for g := range twins {
		// The worker cluster's default group geometry.
		twins[g] = twin{session.NewArray(sessionBuckets, (1<<16)/sessionBuckets*4+4), reg.NewBackends()}
	}
	var checked int64
	check := func(g int, uc *unitCorpus, e *unitEntry, u *cluster.Unit) error {
		res, err := c.roundTrip(uc, e, u)
		if err != nil {
			return fmt.Errorf("%s: %w", firstLine(e.raw), err)
		}
		want, failed := reg.ExecuteHost(e.typ, &u.Reqs[0], twins[g].sessions, twins[g].bes)
		if failed || !bytes.Equal(want, res.Resps[0]) {
			return fmt.Errorf("%s: fabric response differs from Registry.ExecuteHost (host failed=%v)", firstLine(e.raw), failed)
		}
		checked++
		return nil
	}
	for g, uc := range c.cor {
		for i := range uc.setup {
			e := &uc.setup[i]
			if err := check(g, uc, e, c.unit(e, g)); err != nil {
				return checked, err
			}
		}
	}
	for k := 0; k < 600; k++ {
		g := k % hostUnitGroups
		uc := c.cor[g]
		i := (k / hostUnitGroups) % len(uc.loop)
		if err := check(g, uc, &uc.loop[i], uc.units[i]); err != nil {
			return checked, err
		}
	}
	return checked, nil
}

func runHostUnits(cfg runConfig) (*outcome, error) {
	reg := defaultRegistry()
	o := newOutcome()
	gated, err := gateHostUnits(reg, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	o.attempted += gated

	in, setupS, err := medianSetup(
		func() (*hostUnitInstance, error) { return setupHostUnits(reg, cfg.seed, cfg.clients, true) },
		(*hostUnitInstance).close, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	o.m["setup_s"] = setupS

	if !cfg.trace {
		p := in.measure(cfg.seconds, false)
		o.m["heap_mb"] = heapMB()
		o.attempted += p.attempted
		o.failed += p.failed
		o.windowMetrics(p.win)
		o.errorShare()
		return o, nil
	}

	// Traced run: a quarter of the window untraced on tcp (the overhead
	// reference), half traced on tcp, a quarter on the loopback control.
	ref := in.measure(cfg.seconds/4, false)
	p := in.measure(cfg.seconds/2, true)
	ctl, err := setupHostUnits(reg, cfg.seed, cfg.clients, false)
	if err != nil {
		return nil, fmt.Errorf("loopback control: %w", err)
	}
	cp := ctl.measure(cfg.seconds/4, false)
	ctl.close()

	o.attempted += ref.attempted + p.attempted + cp.attempted
	o.failed += ref.failed + p.failed + cp.failed
	o.windowMetrics(p.win)
	if ref.win.ratePerS > 0 {
		o.m["bench.trace_overhead_share"] = 1 - p.win.ratePerS/ref.win.ratePerS
	}
	o.runtimeMetrics(p.rtBefore, p.rtAfter, p.attempted)
	self, count := selfTimesOf(p.spans)
	o.m["fabric.self_us_per_unit"] = perOp(self[lyUnit], count[lyUnit]) / 1e3
	o.m["service.execute_host_ns_per_req"] = perOp(self[lyRender], count[lyUnit])
	o.m["fabric.unit_rtt_us_p50"] = p.win.p50Ms * 1e3
	o.m["fabric.wire_us_per_unit"] = (p.win.p50Ms - cp.win.p50Ms) * 1e3
	var sent, recv, nacks uint64
	for i := range p.after.Nodes {
		a, b := p.after.Nodes[i], p.before.Nodes[i]
		sent += a.Link.SentBytes - b.Link.SentBytes
		recv += a.Link.RecvBytes - b.Link.RecvBytes
		nacks += a.Nacked - b.Nacked
	}
	if p.attempted > 0 {
		o.m["fabric.wire_bytes_per_req"] = float64(sent+recv) / float64(p.attempted)
	}
	o.m["fabric.nacks"] = float64(nacks)
	o.m["fabric.node_retries"] = float64(p.after.NodeRetries - p.before.NodeRetries)
	o.m["fabric.lost_units"] = float64(p.after.LostUnits - p.before.LostUnits)
	o.errorShare()
	return o, writeChromeTrace(cfg.tracePath("fabric_tcp_hostunits"), p.spans)
}
