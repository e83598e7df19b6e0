package main

import (
	"fmt"
	"runtime"
	"time"

	"rhythm/internal/httpx"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// replayer drives the seeded corpus through the call sequence
// TCPServer.respond performs — httpx.ParseInto, Registry.Classify,
// session.ParseID/Lookup, rcache.Version/Get, Registry.ExecuteHost,
// rcache.Put — against its own session array, backends and cache, with a
// span around each call. A layer's number is its span's self time. The
// live server's banking fast path (arena scratch and reused render
// buffer) is private to the root package, so banking executes through
// Registry.ExecuteHost like every other workload; the difference lands in
// frontend.residual_us_per_req.
type replayer struct {
	reg       *service.Registry
	sessions  *session.Array
	bes       []service.Backend
	cache     *rcache.Cache // nil: render cache off
	parseOnly bool          // cohort frontends only parse and classify
	req       httpx.Request
	spans     *spanBuf // nil: untimed (warm-up pass)
	epoch     time.Time
	hookCalls int64
	requests  int64
	failed    int64
}

var execLayer = [numWorkloads]layer{lyExecBanking, lyExecEcom, lyExecTelemetry}

func newReplayer(reg *service.Registry, cacheEntries int, parseOnly bool) *replayer {
	r := &replayer{
		reg: reg,
		// The live servers' default geometry (MaxSessions 1<<16).
		sessions:  session.NewArray(sessionBuckets, (1<<16)/sessionBuckets*4+4),
		bes:       reg.NewBackends(),
		parseOnly: parseOnly,
		epoch:     time.Now(),
	}
	hook := func(uint64) { r.hookCalls++ }
	if cacheEntries > 0 {
		r.cache = rcache.New(cacheEntries)
		hook = func(uid uint64) { r.hookCalls++; r.cache.Invalidate(uid) }
	}
	for _, be := range r.bes {
		be.SetWriteHook(hook)
	}
	return r
}

// timed runs fn inside a child span of parent.
func (r *replayer) timed(name layer, parent int32, id uint32, fn func()) {
	if r.spans == nil {
		fn()
		return
	}
	start := time.Since(r.epoch)
	fn()
	r.spans.add(name, parent, id, int64(start), int64(time.Since(r.epoch)))
}

// respond answers one raw request the way the host server does.
func (r *replayer) respond(raw []byte) []byte {
	r.requests++
	id := uint32(r.requests)
	root := int32(-1)
	if r.spans != nil {
		now := int64(time.Since(r.epoch))
		root = r.spans.add(lyReplay, -1, id, now, now)
		defer func() { r.spans.finish(root, int64(time.Since(r.epoch))) }()
	}
	req := &r.req
	var perr error
	r.timed(lyParse, root, id, func() { perr = httpx.ParseInto(raw, req) })
	if perr != nil {
		r.failed++
		return nil
	}
	var (
		t  service.TypeID
		ok bool
	)
	r.timed(lyClassify, root, id, func() { t, ok = r.reg.Classify(req) })
	if !ok {
		r.failed++
		return nil
	}
	if r.parseOnly {
		return nil
	}
	var (
		cacheable  bool
		csid       session.ID
		cuid, cver uint64
		resp       []byte
		hit        bool
	)
	if r.cache != nil && r.reg.Spec(t).Cacheable {
		r.timed(lySession, root, id, func() {
			if sid, ok := session.ParseID(req.Cookie(r.reg.WorkloadOf(t).SessionCookie())); ok {
				if uid, ok := r.sessions.Lookup(sid); ok {
					cacheable, csid, cuid = true, sid, uid
				}
			}
		})
		if cacheable {
			r.timed(lyCacheGet, root, id, func() {
				cver = r.cache.Version(cuid)
				resp, hit = r.cache.Get(t, csid, cuid, cver, req)
			})
			if hit {
				return resp
			}
		}
	}
	var failed bool
	r.timed(execLayer[r.reg.WorkloadIndex(t)], root, id, func() {
		resp, failed = r.reg.ExecuteHost(t, req, r.sessions, r.bes)
	})
	if failed {
		r.failed++
	} else if cacheable {
		r.timed(lyCachePut, root, id, func() { r.cache.Put(t, csid, cuid, cver, req, resp) })
	}
	return resp
}

// play feeds entries through respond, keeping the cookie jar current.
func (r *replayer) play(jar *cookieJar, es []entry) error {
	for i := range es {
		e := &es[i]
		resp := r.respond(jar.patch(e))
		if e.kind == kindLogin && !r.parseOnly {
			head := resp
			if len(head) > 512 {
				head = head[:512]
			}
			if !jar.learn(e, head) {
				return fmt.Errorf("replay: %s: %w", firstLine(e.raw), errNoCookie)
			}
		}
	}
	return nil
}

// replayCorpora replays every client's whole corpus twice — an untimed
// pass that warms the cache and backends, then the timed pass — and
// returns the spans of the timed pass. Whole cycles only: a cycle ends
// with every slot logged in.
func replayCorpora(r *replayer, corpora []*corpus) (*spanBuf, error) {
	jars := make([]*cookieJar, len(corpora))
	for i, c := range corpora {
		jars[i] = newJar(len(c.uids))
		if err := r.play(jars[i], c.setup); err != nil {
			return nil, err
		}
	}
	spans := &spanBuf{track: 100}
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			r.spans = spans
			r.requests, r.hookCalls = 0, 0
		}
		for i, c := range corpora {
			if err := r.play(jars[i], c.loop); err != nil {
				return nil, err
			}
			jars[i].cycled()
		}
	}
	r.spans = nil
	return spans, nil
}

// parseAllocs reports heap allocations per httpx.ParseInto over the
// corpus (the runtime's Mallocs counter around a parse-only loop).
func parseAllocs(corpora []*corpus) float64 {
	var req httpx.Request
	var before, after runtime.MemStats
	n := 0
	runtime.ReadMemStats(&before)
	for _, c := range corpora {
		for i := range c.loop {
			if httpx.ParseInto(c.loop[i].raw, &req) == nil {
				n++
			}
		}
	}
	runtime.ReadMemStats(&after)
	if n == 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// replayMetrics turns the timed pass's spans into per-layer metrics and
// returns the summed self time of all layer calls per request, in ns
// (what the frontend residual subtracts from the client's p50).
func (o *outcome) replayMetrics(r *replayer, spans *spanBuf) float64 {
	self, count := selfTimes(spans.spans)
	reqs := float64(count[lyReplay])
	if reqs == 0 {
		return 0
	}
	per := func(l layer, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(self[l]) / float64(n)
	}
	o.m["httpx.parse_ns_per_req"] = float64(self[lyParse]) / reqs
	o.m["service.classify_ns_per_req"] = float64(self[lyClassify]) / reqs
	o.m["session.lookup_ns_per_req"] = float64(self[lySession]) / reqs
	o.m["rcache.get_ns"] = per(lyCacheGet, count[lyCacheGet])
	o.m["rcache.put_ns"] = per(lyCachePut, count[lyCachePut])
	exec := self[lyExecBanking] + self[lyExecEcom] + self[lyExecTelemetry]
	o.m["service.execute_host_ns_per_req"] = float64(exec) / reqs
	o.m["banking.execute_ns_per_req"] = per(lyExecBanking, count[lyExecBanking])
	o.m["ecom.execute_ns_per_req"] = per(lyExecEcom, count[lyExecEcom])
	o.m["telemetry.execute_ns_per_req"] = per(lyExecTelemetry, count[lyExecTelemetry])
	o.m["backend.writes_per_req"] = float64(r.hookCalls) / reqs
	var layers int64
	for l := lyParse; l < numLayers; l++ {
		layers += self[l]
	}
	return float64(layers) / reqs
}
