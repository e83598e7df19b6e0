package rhythm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
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

// frontend is everything the server does before and around dispatch:
// the listener, the tracked connection set and its drain, the
// per-connection arena, read → parse → control-plane route → classify →
// render-cache probe → dispatch → write (PAPER.md §3.1: reader → parser
// → dispatch → process → response), and the observability surfaces the
// control plane renders. The server embeds one; the steps that need the
// server (handle, respond, metricsResponse) are its methods.
type frontend struct {
	reg    *service.Registry
	names  []string // display label (workload/name) per TypeID
	labels []string // Prometheus label set per TypeID
	// maxOut sizes each connection's render buffer.
	maxOut int
	// fab is the device fabric behind the server: the /v1/topology
	// document and the device track of /v1/trace.
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

// init wires the frontend. The health engine is set separately
// (setHealth) because its counts close over server state.
func (f *frontend) init(reg *service.Registry, fcfg flight.Config) {
	f.reg = reg
	f.names = reg.DisplayNames()
	f.labels = typeLabelSets(reg)
	f.maxOut = reg.MaxBufferBytes()
	f.conns = make(map[*liveConn]struct{})
	f.tracer = obs.NewRecorder(obs.DefaultTraceCapacity)
	f.latHist = newLatencyHistograms(reg.NumTypes())
	f.flight = flight.New(fcfg)
}

// setHealth builds the burn-rate engine over the latency histograms.
// extraBad counts per-type requests that never reach them (sheds,
// deadline misses).
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
func (s *cohortServer) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
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
		go s.handle(conn)
	}
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
// after stopAccepting, once no handler can be left waiting on dispatch.
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
// slices recycled by ParseInto), a max-size render buffer the host route
// renders into, and the host route's reusable dispatch — so the steady
// state allocates little beyond the parse's raw-to-string conversion
// (DESIGN.md §14). It also carries the current request between the
// frontend and dispatch.
type connArena struct {
	raw  []byte
	req  httpx.Request
	out  []byte
	host *hostCall
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

// newConnArena builds an arena whose render buffer has maxOut bytes, the
// registry's largest response-buffer class, so one buffer serves every
// registered type.
func newConnArena(maxOut int) *connArena {
	return &connArena{raw: make([]byte, 0, 1024), out: make([]byte, maxOut)}
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
func (s *cohortServer) handle(conn net.Conn) {
	f := &s.frontend
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
		resp := s.respond(a, raw)
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
// cache when it can, everything else through dispatch. For a classified
// request it leaves a.done (and a.spans) set for handle to finish after
// the write.
func (s *cohortServer) respond(a *connArena, raw []byte) []byte {
	f := &s.frontend
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
		return jsonResponse(s.Stats())
	case MetricsPathV1:
		return s.metricsResponse()
	case TracePathV1:
		return f.traceResponse(req)
	case FlightPathV1:
		return flightResponse(req, f.flight)
	case HealthPathV1:
		return healthResponse(f.hEngine, f.flight)
	case TopologyPathV1:
		return jsonResponse(f.fab.Snapshot())
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
			if arr := s.sessionsFor(req, t); arr != nil {
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

	resp := s.dispatch(a)
	// Only a page of exactly the type's buffer size is inserted, so the
	// pad a hit restores is always the one that was cut.
	if cacheable && a.done.Status == flight.StatusOK && len(resp) == f.reg.Spec(t).BufferBytes {
		f.cache.Put(t, csid, cuid, cver, req, resp)
	}
	return resp
}

// metricsResponse renders the Prometheus /v1/metrics document. The
// server's own families come through one Stats snapshot; everything the
// frontend reads here is atomic or internally locked.
func (s *cohortServer) metricsResponse() []byte {
	f := &s.frontend
	w := obs.NewPromWriter()
	w.Family("rhythm_build_info", "gauge", "Serving mode of this rhythmd process: host when pinned to the host route, else cohort.")
	w.Value("rhythm_build_info", obs.Label("mode", s.mode()), 1)
	w.Family("rhythm_requests_served_total", "counter", "Responses produced, including errors and sheds.")
	w.Value("rhythm_requests_served_total", "", float64(f.served.Load()))
	s.writeMetrics(w)
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
// optionally blocking for a ?secs=N capture window. On remote workers
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
		floors = f.fab.LaunchFloors()
		time.Sleep(time.Duration(secs) * time.Second)
	}
	launches = f.fab.ProfilesSince(floors)
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

// errorResponse renders a connection-closing error page.
func errorResponse(code int, reason string) []byte {
	buf := make([]byte, 512)
	w := httpx.NewResponseWriter(buf)
	w.StartError(code, reason)
	return w.Finish()
}

// Request size limits. A header section past maxHeaderBytes is answered
// 431 and the connection closed; a Content-Length past maxBodyBytes
// closes it unanswered. An arena whose raw buffer grew past
// maxRetainedRaw (one large body) drops it after the request instead of
// pinning it for the connection's life.
const (
	maxHeaderBytes = 64 << 10
	maxBodyBytes   = 1 << 20
	maxRetainedRaw = maxHeaderBytes
)

// errHeaderTooLarge reports a request whose header section exceeds
// maxHeaderBytes — one endless line or endlessly many.
var errHeaderTooLarge = errors.New("rhythm: request header section too large")

// readRequestInto reads one HTTP/1.1 request (headers + Content-Length
// body) from r, appending into buf and returning the extended slice,
// which never exceeds maxHeaderBytes + maxBodyBytes. Once a
// connection's buffer has grown to its working size, reading a request
// performs no allocation (lines are consumed via ReadSlice and the
// Content-Length value is scanned in place).
func readRequestInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	contentLength := 0
	for {
		lineStart := len(buf)
		for {
			frag, err := r.ReadSlice('\n')
			if len(buf)+len(frag) > maxHeaderBytes {
				return buf, errHeaderTooLarge
			}
			buf = append(buf, frag...)
			if err == nil {
				break
			}
			if err == bufio.ErrBufferFull {
				continue // header line longer than the reader buffer
			}
			return buf, err
		}
		line := buf[lineStart:]
		for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			break
		}
		if n, ok := contentLengthValue(line); ok {
			if n < 0 || n > maxBodyBytes {
				return buf, fmt.Errorf("rhythm: bad content length %q", line)
			}
			contentLength = n
		}
	}
	if contentLength > 0 {
		bodyStart := len(buf)
		if cap(buf)-bodyStart < contentLength {
			grown := make([]byte, bodyStart, bodyStart+contentLength)
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:bodyStart+contentLength]
		if _, err := io.ReadFull(r, buf[bodyStart:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// contentLengthValue matches a Content-Length header line
// case-insensitively and parses its decimal value in place, reporting
// (-1, true) for a malformed value.
func contentLengthValue(line []byte) (int, bool) {
	const name = "content-length:"
	if len(line) < len(name) {
		return 0, false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return 0, false
		}
	}
	v := line[len(name):]
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
		v = v[:len(v)-1]
	}
	if len(v) == 0 {
		return -1, true
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' || n > (1<<30) {
			return -1, true
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
