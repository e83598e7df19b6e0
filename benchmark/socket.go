package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rhythm"
	"rhythm/internal/service"
)

// socketSpec is one loopback-TCP workload: which server it starts and
// what its nproc closed-loop clients send.
type socketSpec struct {
	name    string
	opts    func() []rhythm.Option
	traffic func(reg *service.Registry, clients int) traffic
	cache   int  // render-cache entries (0: off), mirrored by the replay
	cohort  bool // cohort mode: the frontend only parses and classifies
	warm    int  // warm-up requests per client, part of set-up
}

// renderCacheEntries is the render-cache size of the cached workloads.
// cachedUsers users × 9 cacheable banking pages = 2304 entries, so the
// read workload's working set fits with room for shard imbalance.
const (
	renderCacheEntries = 4096
	cachedUsers        = 256
)

// loopEntries is the length of each client's request loop before the
// trailing logins.
const loopEntries = 4096

var socketSpecs = []socketSpec{
	{
		name:    "host_mixed",
		opts:    func() []rhythm.Option { return []rhythm.Option{rhythm.WithHostExecution()} },
		traffic: func(reg *service.Registry, _ int) traffic { return mixedTraffic(reg) },
		warm:    2048,
	},
	{
		name: "host_cached_reads",
		opts: func() []rhythm.Option {
			return []rhythm.Option{rhythm.WithHostExecution(), rhythm.WithRenderCache(renderCacheEntries)}
		},
		// The users are split over the clients, so the working set does
		// not grow with the core count. 2% writes: every write invalidates
		// all of its user's pages, which caps the hit share at 0.76 for 5%.
		traffic: func(reg *service.Registry, clients int) traffic {
			return cachedTraffic(reg, max(1, cachedUsers/clients), 0.02)
		},
		cache: renderCacheEntries,
		warm:  4096,
	},
	{
		name: "host_cached_writes",
		opts: func() []rhythm.Option {
			return []rhythm.Option{rhythm.WithHostExecution(), rhythm.WithRenderCache(renderCacheEntries)}
		},
		// Twice the users of host_mixed: at four thousand entries the cache
		// is smaller than their pages, and a user's payee list (Besim stops
		// at about two hundred) grows half as fast.
		traffic: func(reg *service.Registry, _ int) traffic { return cachedTraffic(reg, 512, 0.50) },
		cache:   renderCacheEntries,
		warm:    2048,
	},
	{
		name:    "cohort_socket",
		opts:    func() []rhythm.Option { return nil },
		traffic: func(reg *service.Registry, _ int) traffic { return mixedTraffic(reg) },
		cohort:  true,
		warm:    256,
	},
}

// startServer binds a live server on an ephemeral loopback port and
// serves it on a goroutine of its own.
func startServer(opts ...rhythm.Option) (rhythm.Server, error) {
	srv, err := rhythm.New("127.0.0.1:0", opts...)
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	return srv, nil
}

func stopServer(srv rhythm.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Drain(ctx)
}

// counters is the subset of Server.Snapshot() the benchmark reads,
// folded to one shape for both modes.
type counters struct {
	errors         uint64 // host: errors; cohort: kernel_errors + parse_errors + not_found + lost_units
	shed           uint64 // cohort: rejected_queue + rejected_pool
	deadlineMisses uint64
	cacheHits      uint64
	cacheMisses    uint64
	cacheInval     uint64
	cacheEntries   uint64
	flightReqs     uint64
	flightAnoms    uint64
	cohort         *rhythm.CohortServerStats
}

func readCounters(srv rhythm.Server) counters {
	snap := srv.Snapshot()
	if h := snap.Host; h != nil {
		return counters{errors: h.Errors, cacheHits: h.CacheHits, cacheMisses: h.CacheMisses,
			cacheInval: h.CacheInvalidations, cacheEntries: h.CacheEntries,
			flightReqs: h.FlightRequests, flightAnoms: h.FlightAnomalies}
	}
	c := snap.Cohort
	return counters{
		errors:         c.KernelErrors + c.ParseErrors + c.NotFound + c.LostUnits,
		shed:           c.RejectedQueue + c.RejectedPool,
		deadlineMisses: c.DeadlineMisses,
		cacheHits:      c.CacheHits, cacheMisses: c.CacheMisses,
		cacheInval: c.CacheInvalidations, cacheEntries: c.CacheEntries,
		flightReqs: c.FlightRequests, flightAnoms: c.FlightAnomalies,
		cohort: c,
	}
}

// serverFailures is how many operations the server itself counted as
// failed between two readings. HTTP 200 alone is not success: an error
// page is a 200 that raises the server's error counter.
func serverFailures(before, after counters) int64 {
	return int64(after.errors-before.errors) + int64(after.shed-before.shed) +
		int64(after.deadlineMisses-before.deadlineMisses)
}

// socketInstance is a set-up workload: a serving server and its
// connected, logged-in, warmed-up clients.
type socketInstance struct {
	srv     rhythm.Server
	clients []*client
}

func (in *socketInstance) close() {
	for _, c := range in.clients {
		c.close()
	}
	stopServer(in.srv)
}

// each runs fn for every client concurrently and returns the first
// error.
func (in *socketInstance) each(fn func(c *client) error) error {
	errs := make([]error, len(in.clients))
	var wg sync.WaitGroup
	for i, c := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupSocket is the workload's whole set-up: construct the server,
// build the seeded corpora, connect, log every user in over the socket,
// and warm up.
func setupSocket(spec socketSpec, reg *service.Registry, seed int64, clients int) (*socketInstance, error) {
	srv, err := startServer(spec.opts()...)
	if err != nil {
		return nil, err
	}
	in := &socketInstance{srv: srv}
	tr := spec.traffic(reg, clients)
	for i := 0; i < clients; i++ {
		cor := newCorpusGen(reg, tr, seed, i).build(loopEntries)
		c, err := dialClient(srv.Addr().String(), i, cor)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, c)
	}
	err = in.each(func(c *client) error {
		if err := c.play(c.cor.setup); err != nil {
			return err
		}
		return c.warm(spec.warm)
	})
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// pass is one measured window over a socket instance.
type pass struct {
	win               window
	attempted         int64
	failed            int64
	writes            int64
	before, after     counters
	rtBefore, rtAfter rtSnap
	seconds           float64
	spans             []*spanBuf
}

// measure opens a window of the given length: every client cycles its
// corpus closed-loop until the deadline.
func (in *socketInstance) measure(seconds float64, trace bool) pass {
	p := pass{seconds: seconds}
	for _, c := range in.clients {
		c.samples = c.samples[:0]
		c.failed, c.writes = 0, 0
		c.spans = nil
		if trace {
			c.spans = &spanBuf{track: c.idx}
			p.spans = append(p.spans, c.spans)
		}
	}
	p.before = readCounters(in.srv)
	p.rtBefore = readRuntime()
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(seconds * float64(time.Second)))
	in.each(func(c *client) error { c.run(epoch, deadline); return nil })
	p.rtAfter = readRuntime()
	p.after = readCounters(in.srv)
	var all []sample
	for _, c := range in.clients {
		all = append(all, c.samples...)
		p.attempted += int64(len(c.samples))
		p.failed += c.failed
		p.writes += c.writes
	}
	p.win = summarize(all, nil, int64(deadline.Sub(epoch)))
	if sf := serverFailures(p.before, p.after); sf > p.failed {
		p.failed = sf
	}
	return p
}

func runSocket(spec socketSpec, cfg runConfig) (*outcome, error) {
	reg := defaultRegistry()
	o := newOutcome()
	gated, err := socketGate(spec, reg, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	o.attempted += gated

	in, setupS, err := medianSetup(
		func() (*socketInstance, error) { return setupSocket(spec, reg, cfg.seed, cfg.clients) },
		(*socketInstance).close, nil)
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

	// Traced run: half the window untraced as the reference, half with a
	// root span per request; the live counters come from the traced half.
	ref := in.measure(cfg.seconds/2, false)
	p := in.measure(cfg.seconds/2, true)
	o.attempted += ref.attempted + p.attempted
	o.failed += ref.failed + p.failed
	o.windowMetrics(p.win)
	if ref.win.ratePerS > 0 {
		o.m["bench.trace_overhead_share"] = 1 - p.win.ratePerS/ref.win.ratePerS
	}
	o.runtimeMetrics(p.rtBefore, p.rtAfter, p.attempted)
	o.liveCounterMetrics(p)

	corpora := make([]*corpus, len(in.clients))
	for i, c := range in.clients {
		corpora[i] = c.cor
	}
	o.m["httpx.parse_allocs_per_req"] = parseAllocs(corpora)
	o.m["bench.client_allocs_per_req"] = clientAllocsPerRequest()
	rp := newReplayer(reg, spec.cache, spec.cohort)
	spans, err := replayCorpora(rp, corpora)
	if err != nil {
		return nil, err
	}
	o.failed += rp.failed
	layersNs := o.replayMetrics(rp, spans)
	traces := append(p.spans, spans)
	if spec.cohort {
		occupancy := int(o.m["cohort.occupancy_mean"] + 0.5)
		ur, err := replayCohortUnits(reg, cfg.seed, max(1, occupancy))
		if err != nil {
			return nil, err
		}
		o.m["simt.kernel_wall_us_per_req"] = perOp(ur.kernelNs, ur.requests) / 1e3
		o.m["service.render_ns_per_req"] = perOp(ur.renderNs, ur.requests)
		layersNs += o.m["cohort.formation_wait_ms_mean"]*1e6 + perOp(ur.kernelNs+ur.renderNs, ur.units)
		traces = append(traces, ur.spans)
	}
	o.m["frontend.residual_us_per_req"] = p.win.p50Ms*1e3 - layersNs/1e3
	o.errorShare()
	return o, writeChromeTrace(cfg.tracePath(spec.name), traces)
}

// liveCounterMetrics fills the per-layer metrics read from the live
// server's always-on counters over the traced half-window.
func (o *outcome) liveCounterMetrics(p pass) {
	b, a := p.before, p.after
	if lookups := float64(a.cacheHits-b.cacheHits) + float64(a.cacheMisses-b.cacheMisses); lookups > 0 {
		o.m["rcache.hit_share"] = float64(a.cacheHits-b.cacheHits) / lookups
	}
	if p.writes > 0 {
		o.m["rcache.invalidations_per_write"] = float64(a.cacheInval-b.cacheInval) / float64(p.writes)
	}
	o.m["rcache.entries"] = float64(a.cacheEntries)
	if n := float64(a.flightReqs - b.flightReqs); n > 0 {
		o.m["flight.promoted_share"] = float64(a.flightAnoms-b.flightAnoms) / n
	}
	if p.attempted > 0 {
		o.m["frontend.shed_share"] = float64(a.shed-b.shed) / float64(p.attempted)
	}
	o.m["frontend.deadline_misses"] = float64(a.deadlineMisses - b.deadlineMisses)
	cb, ca := b.cohort, a.cohort
	if ca == nil || cb == nil {
		return
	}
	// formation_wait_ms_mean is cumulative with one observation per
	// batched request, so the window's mean is the weighted difference.
	if n := float64(ca.RequestsBatched - cb.RequestsBatched); n > 0 {
		o.m["cohort.formation_wait_ms_mean"] = (ca.FormWaitMsMean*float64(ca.RequestsBatched) -
			cb.FormWaitMsMean*float64(cb.RequestsBatched)) / n
	}
	// The server exposes the p99 only over its whole life (set-up and
	// warm-up included).
	o.m["cohort.formation_wait_ms_p99"] = ca.FormWaitMsP99
	if formed := float64(ca.CohortsFormed - cb.CohortsFormed); formed > 0 {
		o.m["cohort.occupancy_mean"] = float64(ca.SumOccupancy-cb.SumOccupancy) / formed
		o.m["cohort.timeout_share"] = float64(ca.CohortsTimedOut-cb.CohortsTimedOut) / formed
		o.m["cohort.filled_share"] = float64(ca.CohortsFilled-cb.CohortsFilled) / formed
		o.m["cohort.cohorts_per_s"] = formed / p.seconds
	}
	var virtualUs float64
	for i := range ca.Devices {
		if i < len(cb.Devices) {
			virtualUs += ca.Devices[i].VirtualTimeUs - cb.Devices[i].VirtualTimeUs
		}
	}
	o.deviceMetrics(cb.Device, ca.Device, int64(ca.CohortsFormed-cb.CohortsFormed), virtualUs*1e3)
}
