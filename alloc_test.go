package rhythm

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// TestAllocBudgets enforces the committed allocation budgets of the
// frontend hot path (BENCH_allocs.json): classify, render, a render
// cache hit, a render cache miss, and a /metrics scrape, measured with
// testing.AllocsPerRun — and of the stage kernel, per request. Any increase over a committed budget fails the
// build (the alloc-gate CI job); improvements print a reminder to
// re-baseline. Re-baseline deliberately with:
//
//	RHYTHM_WRITE_ALLOC_BASELINE=1 go test -run TestAllocBudgets .
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	measured := measureAllocs(t)

	if os.Getenv("RHYTHM_WRITE_ALLOC_BASELINE") != "" {
		buf, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_allocs.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote BENCH_allocs.json: %s", buf)
		return
	}

	raw, err := os.ReadFile("BENCH_allocs.json")
	if err != nil {
		t.Fatalf("no committed alloc baseline (re-baseline with RHYTHM_WRITE_ALLOC_BASELINE=1): %v", err)
	}
	var budgets map[string]float64
	if err := json.Unmarshal(raw, &budgets); err != nil {
		t.Fatalf("BENCH_allocs.json: %v", err)
	}

	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		budget := budgets[name]
		got, ok := measured[name]
		if !ok {
			t.Errorf("%s: budgeted in BENCH_allocs.json but not measured", name)
			continue
		}
		switch {
		case got > budget:
			t.Errorf("%s: %.2f allocs/request exceeds the committed budget %.2f — the hot path regressed", name, got, budget)
		case got < budget-1:
			t.Logf("%s: improved to %.2f allocs/request (budget %.2f) — consider re-baselining BENCH_allocs.json", name, got, budget)
		default:
			t.Logf("%s: %.2f allocs/request within budget %.2f", name, got, budget)
		}
	}
	for name := range measured {
		if _, ok := budgets[name]; !ok {
			t.Errorf("%s: measured but missing from BENCH_allocs.json — re-baseline", name)
		}
	}
}

// measureAllocs builds a cache-enabled server pinned to the host route
// and measures each hot-path segment in isolation. Everything runs
// in-process against the same respond path the TCP handler uses, so the
// numbers track the real serving loop, not a synthetic copy.
func measureAllocs(t *testing.T) map[string]float64 {
	t.Helper()
	s, err := newCohortServer(cohortOptions{MaxSessions: 4096, RenderCache: 1 << 12, CrossoverRate: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	uid, pw := s.Seed(7001)
	a := newConnArena(s.reg.MaxBufferBytes())

	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	login := []byte(fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	resp := s.respond(a, login)
	cookie := setCookieValue(string(resp))
	if cookie == "" {
		t.Fatalf("login returned no cookie: %.200q", resp)
	}
	summary := []byte("GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: " + cookie + "\r\n\r\n")

	m := map[string]float64{}
	bad := false

	// classify: parse into the arena request and route to a type — the
	// prefix every banking request pays.
	m["classify"] = testing.AllocsPerRun(500, func() {
		if err := httpx.ParseInto(summary, &a.req); err != nil {
			bad = true
			return
		}
		if _, ok := banking.ByPath(a.req.Path); !ok {
			bad = true
		}
	})

	// render: serialize an executed page into the arena's reusable
	// response buffer.
	if err := httpx.ParseInto(summary, &a.req); err != nil {
		t.Fatal(err)
	}
	t0, ok := s.reg.Classify(&a.req)
	sc := service.NewScratch()
	if !ok || s.reg.ExecuteScratch(sc, t0, &a.req, s.fab.GroupSessions(s.fab.GroupFor(&a.req, t0)), s.reg.NewBackends()) {
		t.Fatal("execute failed")
	}
	m["render"] = testing.AllocsPerRun(500, func() {
		sc.Render(a.out)
	})

	// cache_hit: the full respond path when the page is cached — the
	// steady state the render cache buys (budget: <= 1, the parse's
	// raw-to-string conversion).
	s.respond(a, summary) // prime
	m["cache_hit"] = testing.AllocsPerRun(500, func() {
		if r := s.respond(a, summary); len(r) == 0 {
			bad = true
		}
	})

	// cache_miss: the full respond path when the user's state version
	// just moved — execute, render, and re-insert.
	m["cache_miss"] = testing.AllocsPerRun(200, func() {
		s.cache.Invalidate(uid)
		if r := s.respond(a, summary); len(r) == 0 {
			bad = true
		}
	})

	// flight_append: arming, filling, and finishing the per-request
	// flight record plus the response-header trace-ID splice — the
	// recorder's always-on per-request cost (budget: <= 1 alloc/request;
	// measured 0 — ring slots are preallocated and the splice reuses the
	// arena's write buffer).
	flightStart := time.Now()
	m["flight_append"] = testing.AllocsPerRun(500, func() {
		id := s.flight.NextID()
		a.frec.Reset()
		a.frec.TraceID = id
		a.frec.Type = "account_summary"
		a.frec.Start = flightStart
		a.frec.HostExec = true
		a.frec.Latency = time.Millisecond
		s.flight.Finish(&a.frec)
		a.wbuf = spliceTraceHeader(a.wbuf, resp, id)
	})

	// metrics_scrape: one Prometheus /metrics render.
	m["metrics_scrape"] = testing.AllocsPerRun(100, func() {
		if len(s.metricsResponse()) == 0 {
			bad = true
		}
	})

	// stage_kernel: the final stage kernel of a full 128-lane cohort, the
	// launch every serving path spends its time in, per request.
	m["stage_kernel"] = stageKernelAllocs(t)

	if bad {
		t.Fatal("a measured path failed while counting allocations")
	}
	return m
}

// stageKernelAllocs binds full cohorts of banking transfers (a 16 KB page
// behind one backend round trip) on one device slot, as
// BenchmarkStageKernelEmit does, and returns the fewest allocations a
// request the final stage kernel's launch made over the cohorts after the
// first, which sets up the lanes' contexts and rows.
func stageKernelAllocs(t *testing.T) float64 {
	t.Helper()
	const lanes = 128
	sessions := session.NewArray(256, 64)
	be := backend.New()
	gen := banking.NewGenerator(9, sessions)
	gen.Populate(256)
	reqs := make([]httpx.Request, lanes)
	for i := range reqs {
		req, err := httpx.Parse(gen.Request(banking.Transfer))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 16<<20, nil)
	slot := banking.NewWorkload().NewSlot(dev, lanes, service.TitanB)
	stream := dev.NewStream()
	var ms runtime.MemStats
	fewest := math.Inf(1)
	for i := 0; i < 8; i++ {
		unit := slot.Bind(int(banking.Transfer), reqs, sessions, be)
		stream.Launch(unit.Stage(0), lanes, nil)
		eng.Run()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		stream.Launch(unit.Stage(1), lanes, nil)
		eng.Run()
		runtime.ReadMemStats(&ms)
		if unit.Failed(0) {
			t.Fatal("the transfer cohort took the error path")
		}
		if i > 0 {
			fewest = min(fewest, float64(ms.Mallocs-before)/lanes)
		}
	}
	return fewest
}

// setCookieValue extracts the Set-Cookie value from a raw HTTP response.
func setCookieValue(resp string) string {
	for _, line := range strings.Split(resp, "\r\n") {
		if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok {
			return v
		}
	}
	return ""
}
