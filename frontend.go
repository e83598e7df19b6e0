package rhythm

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/fabric"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// mode is what differs between the two servers from dispatch on (PAPER.md
// §3.1: reader → parser → dispatch → process → response). TCPServer
// executes on the handler goroutine; CohortServer dispatches a host-routed
// request from the handler too, and admits the rest to its formation loop
// and waits.
type mode interface {
	// dispatch answers the classified request in a (a.req, a.t, a.frec
	// armed) with its response bytes. It records the outcome in
	// a.frec.Status — or re-points a.done at a record it owned while the
	// request was in flight — and sets a.spans when the request's
	// lifecycle should be traced. The frontend calls it once per
	// classified request that missed the render cache.
	dispatch(a *connArena) []byte
	// sessionsFor returns the session array the request's session lives
	// in (nil = not reachable from here, so the page is not cacheable).
	sessionsFor(req *httpx.Request, t service.TypeID) *session.Array
	// statsDocument is the mode's /v1/stats payload.
	statsDocument() any
	// writeMetrics emits the mode's own Prometheus families between the
	// shared head and tail of /v1/metrics.
	writeMetrics(w *obs.PromWriter)
}

// frontend is everything the two servers share before and around
// dispatch: the listener, the tracked connection set and its drain, the
// per-connection arena, read → parse → control-plane route → classify →
// render-cache probe → mode.dispatch → write, and the observability
// surfaces the control plane renders. Both servers embed one.
type frontend struct {
	reg    *service.Registry
	names  []string // display label (workload/name) per TypeID
	labels []string // Prometheus label set per TypeID
	mode   mode
	// modeName is "host" or "cohort"; maxOut sizes each connection's
	// render buffer.
	modeName string
	maxOut   int
	// fab is the device fabric behind the server (nil in host mode): the
	// /v1/topology document and the device track of /v1/trace.
	fab *fabric.Fabric

	mu sync.Mutex // listener only
	ln net.Listener

	closing atomic.Bool
	connMu  sync.Mutex
	conns   map[*liveConn]struct{}
	connWG  sync.WaitGroup

	// Handler-side counters (many goroutines).
	served      atomic.Uint64
	parseErrors atomic.Uint64
	notFound    atomic.Uint64
	images      atomic.Uint64

	// Observability surfaces, safe from any goroutine: the request-trace
	// ring behind /v1/trace, the per-type latency histograms behind
	// /v1/metrics, the always-on flight recorder behind /v1/debug/flight
	// and the SLO burn-rate engine behind /v1/health (DESIGN.md §15).
	// captureBusy serializes blocking ?secs=N trace captures.
	tracer      *obs.Recorder
	latHist     []*stats.Histogram // per service.TypeID, nanoseconds
	flight      *flight.Recorder
	hEngine     *health.Engine
	captureBusy atomic.Bool

	// cache, when non-nil, is the whole-page render cache: a hit is
	// answered before dispatch (DESIGN.md §14).
	cache *rcache.Cache
}

// init wires the frontend under m. The health engine is set separately
// (setHealth) because its counts close over mode state.
func (f *frontend) init(reg *service.Registry, m mode, modeName string, maxOut int, fcfg flight.Config) {
	f.reg = reg
	f.names = reg.DisplayNames()
	f.labels = typeLabelSets(reg)
	f.mode = m
	f.modeName = modeName
	f.maxOut = maxOut
	f.conns = make(map[*liveConn]struct{})
	f.tracer = obs.NewRecorder(obs.DefaultTraceCapacity)
	f.latHist = newLatencyHistograms(reg.NumTypes())
	f.flight = flight.New(fcfg)
}

// setHealth builds the burn-rate engine over the latency histograms.
// extraBad counts per-type requests that never reach them (sheds,
// deadline misses); nil when the mode has no such paths.
func (f *frontend) setHealth(cfg health.Config, extraBad []atomic.Uint64) {
	if cfg.SLO <= 0 {
		cfg.SLO = defaultHealthSLO
	}
	sloNs := float64(cfg.SLO)
	f.hEngine = health.New(cfg, func() map[string]health.Counts {
		return sloCounts(f.names, f.latHist, sloNs, extraBad)
	})
}

// Addr reports the bound address once Listen has been called.
func (f *frontend) Addr() net.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ln == nil {
		return nil
	}
	return f.ln.Addr()
}

// Seed reports the deterministic banking credentials for userID, so
// demo clients can log in. Every Besim synthesizes the same profile for
// a userID on first touch, so no state needs creating up front.
func (f *frontend) Seed(userID uint64) (uint64, string) {
	return userID, backend.PasswordFor(userID)
}

// Served reports how many responses have been produced (including error
// and shed responses).
func (f *frontend) Served() uint64 { return f.served.Load() }

// Listen binds the listener without serving (so callers can learn the
// port before Serve blocks).
func (f *frontend) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.ln = ln
	f.mu.Unlock()
	return nil
}

// Serve accepts connections until the listener is closed.
func (f *frontend) Serve() error {
	f.mu.Lock()
	ln := f.ln
	f.mu.Unlock()
	if ln == nil {
		return errors.New("rhythm: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go f.handle(conn)
	}
}

// ListenAndServe binds addr and serves until the server is drained.
func (f *frontend) ListenAndServe(addr string) error {
	if err := f.Listen(addr); err != nil {
		return err
	}
	return f.Serve()
}

// stopAccepting marks the frontend closing and closes the listener.
// Handlers stop reading after their current response.
func (f *frontend) stopAccepting() {
	f.closing.Store(true)
	f.mu.Lock()
	ln := f.ln
	f.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// drainConns closes idle (reading) connections immediately and busy ones
// after their current write, returning once every handler has exited.
// When ctx ends first it closes the rest and returns ctx.Err(). Call
// after stopAccepting, once no handler can be left waiting on the mode.
func (f *frontend) drainConns(ctx context.Context) error {
	// Barrier: a handler that saw closing==false completes its WaitGroup
	// registration (under connMu) before we start waiting.
	//lint:ignore SA2001 the empty critical section is the barrier
	f.connMu.Lock()
	f.connMu.Unlock()
	waited := make(chan struct{})
	go func() {
		f.connWG.Wait()
		close(waited)
	}()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		f.closeConns(false)
		select {
		case <-waited:
			return nil
		case <-ctx.Done():
			f.closeConns(true)
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// closeConns closes every tracked connection that is idle, or all of
// them when busyToo is set.
func (f *frontend) closeConns(busyToo bool) {
	f.connMu.Lock()
	for lc := range f.conns {
		if busyToo || !lc.busy.Load() {
			lc.Close()
		}
	}
	f.connMu.Unlock()
}

// liveConn wraps an accepted connection with a busy flag so a drain can
// close idle (reading) connections while letting a handler mid-response
// finish its write.
type liveConn struct {
	net.Conn
	busy atomic.Bool
}

// connArena holds the per-connection reusable buffers of the zero-copy
// hot path — the raw request bytes, the parsed request (param/cookie
// slices recycled by ParseInto), the execution scratch host mode runs
// through, a max-size render buffer both modes' host paths render into,
// and the cohort host route's reusable dispatch — so the steady state
// allocates nothing but the parse's raw-to-string conversion (DESIGN.md
// §14). It also carries the current request between the frontend and
// mode.dispatch.
type connArena struct {
	raw     []byte
	req     httpx.Request
	scratch *service.Scratch
	out     []byte
	host    *hostCall
	// frec is the connection's flight-record scratch, armed for every
	// classified request and either recycled (fast path) or copied into
	// the anomaly ring by Finish (DESIGN.md §15). wbuf is the reusable
	// write buffer the X-Rhythm-Trace header is spliced into, so
	// cached/rendered response bytes are never mutated.
	frec flight.Record
	wbuf []byte

	// The request in flight: its type and arrival time, the flight record
	// to Finish after the write (nil = not a workload request; &frec
	// unless dispatch handed back its own), the lifecycle spans to
	// commit with it (nil = untraced), and the trailing spaces the write
	// appends to a render-cache hit (whose entry holds live bytes only).
	t     service.TypeID
	start time.Time
	done  *flight.Record
	spans []obs.Span
	pad   int
}

// newConnArena builds an arena; maxOut > 0 adds the host execution
// buffers, the render buffer sized to the registry's largest
// response-buffer class so one buffer serves every registered type.
func newConnArena(maxOut int) *connArena {
	a := &connArena{raw: make([]byte, 0, 1024)}
	if maxOut > 0 {
		a.scratch = service.NewScratch()
		a.out = make([]byte, maxOut)
	}
	return a
}

// keepRaw keeps raw's grown capacity for the connection's next request,
// unless one large request grew it past maxRetainedRaw: that buffer is
// dropped rather than pinned for the connection's life.
func (a *connArena) keepRaw(raw []byte) {
	if cap(raw) > maxRetainedRaw {
		raw = nil
	}
	a.raw = raw
}

// handle serves one keep-alive connection.
func (f *frontend) handle(conn net.Conn) {
	lc := &liveConn{Conn: conn}
	f.connMu.Lock()
	if f.closing.Load() {
		f.connMu.Unlock()
		conn.Close()
		return
	}
	f.conns[lc] = struct{}{}
	f.connWG.Add(1)
	f.connMu.Unlock()
	defer func() {
		conn.Close()
		f.connMu.Lock()
		delete(f.conns, lc)
		f.connMu.Unlock()
		f.connWG.Done()
	}()
	r := bufio.NewReader(conn)
	a := newConnArena(f.maxOut)
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		raw, err := readRequestInto(r, a.raw[:0])
		a.keepRaw(raw)
		if err != nil {
			if errors.Is(err, errHeaderTooLarge) {
				f.served.Add(1)
				f.parseErrors.Add(1)
				conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
				// Best effort: the connection closes either way.
				conn.Write(errorResponse(431, "Request Header Fields Too Large"))
			}
			return
		}
		lc.busy.Store(true)
		resp := f.respond(a, raw)
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		wstart := time.Now()
		if a.done != nil {
			a.wbuf = spliceTraceHeader(a.wbuf, resp, a.done.TraceID)
			a.wbuf = httpx.AppendSpaces(a.wbuf, a.pad)
			resp = a.wbuf
		}
		_, werr := conn.Write(resp)
		lc.busy.Store(false)
		if a.done != nil {
			if a.spans != nil {
				a.spans = append(a.spans, obs.Span{Name: "write", Start: wstart, Dur: time.Since(wstart)})
				f.tracer.Add(obs.RequestTrace{Type: f.names[a.t], Spans: a.spans})
				a.done.Spans = a.spans
			}
			a.done.Latency = time.Since(a.start)
			f.flight.Finish(a.done)
		}
		if werr != nil || f.closing.Load() {
			return
		}
	}
}

// respond answers one request using the connection's arena: the control
// plane and static assets directly, a cacheable page from the render
// cache when it can, everything else through mode.dispatch. For a
// classified request it leaves a.done (and a.spans) set for handle to
// finish after the write.
func (f *frontend) respond(a *connArena, raw []byte) []byte {
	f.served.Add(1)
	a.start = time.Now()
	a.done, a.spans, a.pad = nil, nil, 0
	req := &a.req
	if err := httpx.ParseInto(raw, req); err != nil {
		f.parseErrors.Add(1)
		return errorResponse(400, "Bad Request")
	}
	switch req.Path {
	case StatsPathV1:
		return jsonResponse(f.mode.statsDocument())
	case MetricsPathV1:
		return f.metricsResponse()
	case TracePathV1:
		return f.traceResponse(req)
	case FlightPathV1:
		return flightResponse(req, f.flight)
	case HealthPathV1:
		return healthResponse(f.hEngine, f.flight)
	case TopologyPathV1:
		if f.fab != nil {
			return jsonResponse(f.fab.Snapshot())
		}
	}
	t, ok := f.reg.Classify(req)
	if !ok {
		if resp, ok := f.reg.Static(req.Path); ok {
			f.images.Add(1)
			return resp
		}
		f.notFound.Add(1)
		return errorResponse(404, "Not Found")
	}
	a.t = t
	a.frec.Reset()
	a.frec.TraceID = f.flight.NextID()
	a.frec.Type = f.names[t]
	a.frec.Start = a.start
	a.done = &a.frec

	// Render-cache probe. The state version is captured BEFORE dispatch
	// so a concurrent write can only make the later insert unreachable,
	// never stale (DESIGN.md §14). The session lookup is lock-free for
	// the caller: session arrays are internally bucket-locked.
	var (
		cacheable  bool
		csid       session.ID
		cuid, cver uint64
	)
	if f.cache != nil && f.reg.Spec(t).Cacheable {
		if sid, ok := session.ParseID(req.Cookie(f.reg.WorkloadOf(t).SessionCookie())); ok {
			if arr := f.mode.sessionsFor(req, t); arr != nil {
				if uid, ok := arr.Lookup(sid); ok {
					cacheable, csid, cuid = true, sid, uid
					cver = f.cache.Version(cuid)
					if resp, hit := f.cache.Get(t, csid, cuid, cver, req); hit {
						// The entry is the page less its pad; the write
						// restores the pad to the type's buffer size.
						a.pad = f.reg.Spec(t).BufferBytes - len(resp)
						f.latHist[t].ObserveEx(float64(time.Since(a.start)), a.frec.TraceID)
						return resp
					}
				}
			}
		}
	}

	resp := f.mode.dispatch(a)
	// Only a page of exactly the type's buffer size is inserted, so the
	// pad a hit restores is always the one that was cut.
	if cacheable && a.done.Status == flight.StatusOK && len(resp) == f.reg.Spec(t).BufferBytes {
		f.cache.Put(t, csid, cuid, cver, req, resp)
	}
	return resp
}

// metricsResponse renders the Prometheus /v1/metrics document: the
// shared head, the mode's own families, the shared tail. Everything the
// frontend reads here is atomic or internally locked.
func (f *frontend) metricsResponse() []byte {
	w := obs.NewPromWriter()
	w.Family("rhythm_build_info", "gauge", "Serving mode of this rhythmd process.")
	w.Value("rhythm_build_info", obs.Label("mode", f.modeName), 1)
	w.Family("rhythm_requests_served_total", "counter", "Responses produced, including errors and sheds.")
	w.Value("rhythm_requests_served_total", "", float64(f.served.Load()))
	f.mode.writeMetrics(w)
	writeLatencyFamilies(w, f.labels, f.latHist)
	if f.cache != nil {
		writeRenderCacheFamilies(w, f.cache.Stats())
	}
	w.Family("rhythm_traces_recorded_total", "counter", "Request traces captured by the lifecycle recorder.")
	w.Value("rhythm_traces_recorded_total", "", float64(f.tracer.Total()))
	writeFlightFamilies(w, f.flight)
	return bodyResponse(promContentType, w.Bytes())
}

// traceResponse renders the Chrome trace-event document for /v1/trace,
// optionally blocking for a ?secs=N capture window. Without a fabric
// the document carries only the request track.
func (f *frontend) traceResponse(req *httpx.Request) []byte {
	secs, ok := captureSecs(req)
	if !ok {
		return errorResponse(400, "Bad Request")
	}
	var (
		since    time.Time
		floors   [][]uint64
		launches []simt.LaunchRecord
	)
	if secs > 0 {
		// One blocking capture at a time: each holds its connection's
		// handler goroutine for secs seconds, so unbounded concurrent
		// captures would pile up goroutines (DESIGN.md §15).
		if !f.captureBusy.CompareAndSwap(false, true) {
			return tooManyCapturesResponse()
		}
		defer f.captureBusy.Store(false)
		since = time.Now()
		// Launch sequence numbers are per device, so the capture floor
		// is too: each node cluster filters its rings before the fabric
		// merges them (empty with remote workers — their rings live in
		// the worker process).
		if f.fab != nil {
			floors = f.fab.LaunchFloors()
		}
		time.Sleep(time.Duration(secs) * time.Second)
	}
	if f.fab != nil {
		launches = f.fab.ProfilesSince(floors)
	}
	var traces []obs.RequestTrace
	if secs > 0 {
		traces = f.tracer.Since(since)
	} else {
		traces = f.tracer.Snapshot()
	}
	return bodyResponse("application/json", obs.ChromeTrace(traces, launches))
}

// cacheStats snapshots the render-cache counters for a stats document
// (zero when the cache is disabled).
func (f *frontend) cacheStats() rcache.Stats {
	if f.cache == nil {
		return rcache.Stats{}
	}
	return f.cache.Stats()
}
