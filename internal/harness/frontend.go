package harness

import (
	"runtime"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/httpx"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// FrontendStudy measures the zero-copy frontend hot path and the
// whole-page render cache (DESIGN.md §14) by driving one mixed request
// corpus through three serving loops:
//
//   - baseline: the pre-§14 per-request allocation path — Parse into a
//     fresh Request, Execute on a fresh Ctx, RenderAlloc into a fresh
//     response buffer.
//   - pooled: the arena path the live servers now use — ParseInto a
//     reused Request, Execute on a reused Scratch, Render into a reused
//     max-size buffer.
//   - cached: the pooled path with the render cache and backend write
//     hook attached, so repeated read-only pages skip execution.
//
// Every mode builds its workload from the same seed and replays the
// identical corpus twice (the second epoch is where a cache can hit),
// so the three loops do the same work and their wall clocks compare
// directly. Throughput and speedup are wall-clock (host-dependent,
// single-threaded); allocations per request come from the runtime's
// Mallocs counter and are stable across hosts.

// FrontendMode is one serving loop's measurement.
type FrontendMode struct {
	Name           string
	ThroughputReqS float64 // wall-clock requests/sec over both epochs
	AllocsPerReq   float64 // heap allocations per request (Mallocs delta)
	SpeedupX       float64 // throughput vs the baseline mode
	HitPct         float64 // render-cache hit share of all requests
	Errors         uint64
	WallSecs       float64
}

// FrontendResult is the study outcome.
type FrontendResult struct {
	Requests int // requests served per mode (corpus driven twice)
	Baseline FrontendMode
	Pooled   FrontendMode
	Cached   FrontendMode
}

// Modes returns the three measurements in report order.
func (r FrontendResult) Modes() []FrontendMode {
	return []FrontendMode{r.Baseline, r.Pooled, r.Cached}
}

// frontendCorpus pre-generates the mixed request corpus outside the
// measured region, so the loops time serving, not workload generation.
func frontendCorpus(cfg Config, n int) (*session.Array, [][]byte) {
	sessions, gen := newWorkload(cfg, 0, n)
	corpus := make([][]byte, n)
	for i := range corpus {
		corpus[i], _ = gen.Mixed()
	}
	return sessions, corpus
}

// runFrontendMode drives the corpus twice through serve and measures
// wall clock and heap allocations per request.
func runFrontendMode(name string, cfg Config, n int,
	setup func(*session.Array, *backend.DB) func(raw []byte) bool) FrontendMode {
	sessions, corpus := frontendCorpus(cfg, n)
	db := backend.New()
	serve := setup(sessions, db)
	m := FrontendMode{Name: name}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for epoch := 0; epoch < 2; epoch++ {
		for _, raw := range corpus {
			if !serve(raw) {
				m.Errors++
			}
		}
	}
	m.WallSecs = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	served := 2 * len(corpus)
	m.AllocsPerReq = float64(m1.Mallocs-m0.Mallocs) / float64(served)
	if m.WallSecs > 0 {
		m.ThroughputReqS = float64(served) / m.WallSecs
	}
	return m
}

// FrontendStudy runs the three-mode comparison. The corpus scales with
// cfg.CPURequestsPerType so -paper runs drive more requests.
func FrontendStudy(cfg Config) FrontendResult {
	cfg.validate()
	n := 25 * cfg.CPURequestsPerType
	res := FrontendResult{Requests: 2 * n}
	bank := banking.NewWorkload()

	res.Baseline = runFrontendMode("baseline", cfg, n,
		func(sessions *session.Array, db *backend.DB) func([]byte) bool {
			return func(raw []byte) bool {
				req, err := httpx.Parse(raw)
				if err != nil {
					return false
				}
				t, ok := banking.ByPath(req.Path)
				if !ok {
					return false
				}
				ctx := bank.Execute(int(t), &req, sessions, db, true)
				ctx.RenderAlloc()
				return ctx.Err == ""
			}
		})

	res.Pooled = runFrontendMode("pooled", cfg, n,
		func(sessions *session.Array, db *backend.DB) func([]byte) bool {
			scratch := service.NewScratch()
			out := make([]byte, banking.MaxBufferBytes())
			var req httpx.Request
			return func(raw []byte) bool {
				if err := httpx.ParseInto(raw, &req); err != nil {
					return false
				}
				t, ok := banking.ByPath(req.Path)
				if !ok {
					return false
				}
				failed := bank.ExecuteHost(scratch, int(t), &req, sessions, db)
				scratch.Render(out)
				return !failed
			}
		})

	var cache *rcache.Cache
	res.Cached = runFrontendMode("cached", cfg, n,
		func(sessions *session.Array, db *backend.DB) func([]byte) bool {
			cache = rcache.New(1 << 16)
			db.SetWriteHook(cache.Invalidate)
			scratch := service.NewScratch()
			out := make([]byte, banking.MaxBufferBytes())
			var req httpx.Request
			return func(raw []byte) bool {
				if err := httpx.ParseInto(raw, &req); err != nil {
					return false
				}
				t, ok := banking.ByPath(req.Path)
				if !ok {
					return false
				}
				// Mirror the live server's protocol: resolve the session,
				// capture the user's state version BEFORE executing, and
				// only insert error-free pages.
				var (
					cacheable  bool
					csid       session.ID
					cuid, cver uint64
				)
				if banking.Cacheable(t) {
					if sid, ok := session.ParseID(req.Cookie("MY_ID")); ok {
						if uid, ok := sessions.Lookup(sid); ok {
							cacheable, csid, cuid = true, sid, uid
							cver = cache.Version(cuid)
							if _, hit := cache.Get(service.TypeID(t), csid, cuid, cver, &req); hit {
								return true
							}
						}
					}
				}
				failed := bank.ExecuteHost(scratch, int(t), &req, sessions, db)
				resp := scratch.Render(out)
				if cacheable && !failed {
					cache.Put(service.TypeID(t), csid, cuid, cver, &req, resp)
				}
				return !failed
			}
		})
	if cache != nil {
		cs := cache.Stats()
		res.Cached.HitPct = 100 * float64(cs.Hits) / float64(res.Requests)
	}

	if base := res.Baseline.ThroughputReqS; base > 0 {
		res.Baseline.SpeedupX = 1
		res.Pooled.SpeedupX = res.Pooled.ThroughputReqS / base
		res.Cached.SpeedupX = res.Cached.ThroughputReqS / base
	}
	return res
}

// RenderFrontend formats the study.
func RenderFrontend(r FrontendResult) *Table {
	t := &Table{
		Title:   "Frontend hot path: per-request allocation vs arena vs render cache",
		Caption: "corpus replayed twice per mode; throughput and speedup are wall-clock (single-threaded), allocs/req is host-independent",
		Headers: []string{"Mode", "Reqs", "KReq/s (wall)", "Allocs/req", "Speedup", "Cache hit %", "Errors"},
	}
	for _, m := range r.Modes() {
		t.AddRow(m.Name, kilo(float64(r.Requests)), kilo(m.ThroughputReqS), f2(m.AllocsPerReq),
			f2(m.SpeedupX), f1(m.HitPct), kilo(float64(m.Errors)))
	}
	return t
}
