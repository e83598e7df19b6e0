package harness

import (
	"fmt"
	"strings"
	"sync"

	"rhythm/internal/banking"
	"rhythm/internal/cluster"
	"rhythm/internal/ecom"
	"rhythm/internal/httpx"
	"rhythm/internal/simt"
	"rhythm/internal/telemetry"
	"rhythm/internal/workloads"
)

// WorkloadMixStudy runs the full default registry — banking, e-commerce,
// and streaming telemetry — through one shared device pool and measures
// the mixed-stream aggregate. Heterogeneous cohorts share devices,
// shard groups, and session arrays; the study reports each workload's
// request share plus the telemetry fan-out outcome (frames delivered to
// subscribers, frames lost to ring overrun — zero at the committed
// geometry). Like the cluster sweep it runs in Manual mode with
// deterministic per-group generators, so every virtual-time value is
// bit-identical across runs and parallelism settings and the CI bench
// gate can hold its rows.

// WorkloadMixRow is one workload's slice of the mixed stream.
type WorkloadMixRow struct {
	Workload   string
	Units      int     // cohort units dispatched
	Requests   int     // requests executed
	SharePct   float64 // of total requests
	KernelErrs int     // requests that took the kernel error path
}

// WorkloadMixResult is the study outcome.
type WorkloadMixResult struct {
	Rows            []WorkloadMixRow
	Devices         int
	Requests        int     // total across workloads
	VirtualMs       float64 // slowest device's virtual clock
	ThroughputK     float64 // aggregate KReq/s of virtual time
	FramesDelivered int     // telemetry frames drained by subscriber polls
	FramesLost      int     // frames reported lost (ring overrun); 0 at committed geometry
}

// workloadMixUnitsPerGroup is the per-shard-group unit recipe: six
// banking cohorts, four e-commerce catalog cohorts, and the three-phase
// telemetry sequence (subscribe, ingest, poll).
const workloadMixBankingUnits = 6
const workloadMixEcomUnits = 4

// WorkloadMixStudy executes the mixed-workload run on a pool of the
// given width. Telemetry's phases are dispatched after the pool drains
// the previous phase, so every subscriber cursor predates every publish
// and every poll sees the full ring — dispatch order, and therefore
// every virtual-time value, stays deterministic.
func WorkloadMixStudy(cfg Config, devices int) WorkloadMixResult {
	cfg.validate()
	reg := workloads.Default()
	widx := map[string]int{}
	for i, w := range reg.Workloads() {
		widx[w.Name()] = i
	}

	devCfg := simt.GTXTitan()
	devCfg.HostParallelism = cfg.HostParallelism
	devCfg.SimParallelism = cfg.SimParallelism
	cl := cluster.New(cluster.Config{
		Registry:       reg,
		Devices:        devices,
		CohortSize:     cfg.CohortSize,
		SlotsPerDevice: cfg.MaxCohorts,
		QueueDepth:     (workloadMixBankingUnits + workloadMixEcomUnits + 2) * devices,
		Simt:           devCfg,
		Manual:         true,
	})
	defer cl.Close()

	var mu sync.Mutex
	counts := map[string]*WorkloadMixRow{}
	for _, name := range workloads.Names {
		counts[name] = &WorkloadMixRow{Workload: name}
	}
	framesDelivered, framesLost := 0, 0

	// account tallies one completed unit under mu; poll units
	// additionally parse their fan-out headers.
	account := func(name string, poll bool) func(*cluster.Result) {
		return func(r *cluster.Result) {
			if r.Err != nil {
				panic(fmt.Sprintf("harness: %s unit failed: %v", name, r.Err))
			}
			mu.Lock()
			defer mu.Unlock()
			row := counts[name]
			row.Units++
			row.Requests += len(r.Resps)
			row.KernelErrs += r.KernelErrs
			if poll {
				for _, resp := range r.Resps {
					n, lost := parsePollHeader(resp)
					framesDelivered += n
					framesLost += lost
				}
			}
		}
	}

	parse := func(raw string) httpx.Request {
		req, err := httpx.Parse([]byte(raw))
		if err != nil {
			panic(fmt.Sprintf("harness: generated request failed to parse: %v", err))
		}
		return req
	}
	get := func(uri string) httpx.Request {
		return parse("GET " + uri + " HTTP/1.1\r\nHost: b\r\n\r\n")
	}

	dispatch := func(units []*cluster.Unit, started bool) {
		var wg sync.WaitGroup
		for _, u := range units {
			done := u.Done
			wg.Add(1)
			u.Done = func(r *cluster.Result) {
				done(r)
				wg.Done()
			}
			if !cl.Dispatch(u) {
				panic("harness: cluster dispatch rejected with prefill-depth queues")
			}
		}
		if !started {
			cl.Start()
		}
		wg.Wait()
	}

	size := cfg.CohortSize
	unit := func(name string, local, g int, poll bool, reqs []httpx.Request) *cluster.Unit {
		return &cluster.Unit{
			Type:  reg.GID(widx[name], local),
			Group: g,
			Reqs:  reqs,
			Done:  account(name, poll),
		}
	}

	// Phase 1: banking pages, e-commerce catalog reads, and telemetry
	// subscribes. One telemetry stream per shard group (dev id == g).
	var phase1 []*cluster.Unit
	for g := 0; g < cl.GroupCount(); g++ {
		gen := banking.NewGenerator(cfg.Seed+int64(g), cl.GroupSessions(g))
		gen.Populate(2 * size)
		for u := 0; u < workloadMixBankingUnits; u++ {
			rt := sweepTypes[u%len(sweepTypes)]
			reqs := make([]httpx.Request, size)
			for i := range reqs {
				reqs[i] = parse(string(gen.Request(rt)))
			}
			phase1 = append(phase1, unit("banking", int(rt), g, false, reqs))
		}
		for u := 0; u < workloadMixEcomUnits; u++ {
			local := []int{ecom.Index, ecom.Browse, ecom.Search, ecom.Product}[u%4]
			reqs := make([]httpx.Request, size)
			for i := range reqs {
				switch local {
				case ecom.Index:
					reqs[i] = get("/index.php")
				case ecom.Browse:
					reqs[i] = get("/browse.php?cat=" + ecom.Categories[(g+i)%len(ecom.Categories)])
				case ecom.Search:
					reqs[i] = get(fmt.Sprintf("/search.php?q=kw%d", (g*131+i)%977))
				case ecom.Product:
					reqs[i] = get(fmt.Sprintf("/product.php?id=%d", (g*1009+i*37)%100000))
				}
			}
			phase1 = append(phase1, unit("ecom", local, g, false, reqs))
		}
		reqs := make([]httpx.Request, size)
		for i := range reqs {
			reqs[i] = get(fmt.Sprintf("/t/subscribe?dev=%d&sub=%d", g, i))
		}
		phase1 = append(phase1, unit("telemetry", telemetry.Subscribe, g, false, reqs))
	}
	dispatch(phase1, false)

	// Phase 2: publish exactly one ring of frames per stream, so phase
	// 3's pollers (cursor 0) see a full ring with nothing overrun.
	var phase2 []*cluster.Unit
	for g := 0; g < cl.GroupCount(); g++ {
		reqs := make([]httpx.Request, size)
		for i := range reqs {
			reqs[i] = parse(fmt.Sprintf(
				"POST /t/ingest HTTP/1.1\r\nHost: b\r\nContent-Length: %d\r\n\r\ndev=%d&f=%04x",
				len(fmt.Sprintf("dev=%d&f=%04x", g, i&0xffff)), g, i&0xffff))
		}
		phase2 = append(phase2, unit("telemetry", telemetry.Ingest, g, false, reqs))
	}
	dispatch(phase2, true)

	// Phase 3: every subscriber drains its cursor.
	var phase3 []*cluster.Unit
	for g := 0; g < cl.GroupCount(); g++ {
		reqs := make([]httpx.Request, size)
		for i := range reqs {
			reqs[i] = get(fmt.Sprintf("/t/poll?dev=%d&sub=%d", g, i))
		}
		phase3 = append(phase3, unit("telemetry", telemetry.Poll, g, true, reqs))
	}
	dispatch(phase3, true)

	snap := cl.Snapshot()
	var maxUs float64
	for _, d := range snap.Devices {
		if d.VirtualTimeUs > maxUs {
			maxUs = d.VirtualTimeUs
		}
	}
	res := WorkloadMixResult{
		Devices:         devices,
		VirtualMs:       maxUs / 1e3,
		FramesDelivered: framesDelivered,
		FramesLost:      framesLost,
	}
	for _, name := range workloads.Names {
		res.Requests += counts[name].Requests
	}
	for _, name := range workloads.Names {
		row := *counts[name]
		row.SharePct = 100 * float64(row.Requests) / float64(res.Requests)
		res.Rows = append(res.Rows, row)
	}
	res.ThroughputK = float64(res.Requests) / (maxUs / 1e6) / 1e3
	return res
}

// parsePollHeader extracts the n= and lost= counters from a rendered
// telemetry poll response ("RHYTHM-T FRAMES dev=.. sub=.. n=.. lost=..
// cursor=..", with SIMT-geometry padding inside the dynamic fields).
func parsePollHeader(resp []byte) (n, lost int) {
	s := string(resp)
	i := strings.Index(s, "n=")
	if i < 0 {
		panic(fmt.Sprintf("harness: poll response has no frames header: %.200q", s))
	}
	if _, err := fmt.Sscanf(s[i:], "n=%d lost=%d", &n, &lost); err != nil {
		panic(fmt.Sprintf("harness: bad poll header in %.200q: %v", s[i:], err))
	}
	return n, lost
}

// Render formats the mixed-workload study.
func (r WorkloadMixResult) Render() *Table {
	t := &Table{
		Title: fmt.Sprintf("Workload mix: banking + ecom + telemetry on %d shared devices", r.Devices),
		Caption: "heterogeneous cohorts through one pool; throughput is total requests over " +
			"the slowest device's virtual time; telemetry fan-out drained by subscriber polls",
		Headers: []string{"Workload", "Units", "Requests", "Share", "Kernel errs"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Workload, fmt.Sprint(row.Units), fmt.Sprint(row.Requests),
			f1(row.SharePct)+"%", fmt.Sprint(row.KernelErrs))
	}
	t.AddRow("total", "", fmt.Sprint(r.Requests), "100.0%", "")
	t.AddRow("", "", "", "", "")
	t.AddRow("virtual ms", f1(r.VirtualMs), "KReq/s", f1(r.ThroughputK), "")
	t.AddRow("frames delivered", fmt.Sprint(r.FramesDelivered), "frames lost", fmt.Sprint(r.FramesLost), "")
	return t
}
