package rhythm

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/stats"
)

// TCPServer serves the registered workloads over a real TCP listener
// using the host execution path — the same service code the device
// kernels run, so responses are identical. It exists for end-to-end
// demos (cmd/rhythmd, examples); performance evaluation uses Server.
type TCPServer struct {
	// reg is the workload registry; names its display-label universe,
	// labels the per-type Prometheus label sets. bes holds one backend
	// store per workload (this server is a single shard group).
	reg    *service.Registry
	names  []string
	labels []string
	bes    []service.Backend

	// mu guards the workload state (backends + sessions are
	// single-writer by design) and the listener. It is held only across
	// Execute — never across connection I/O — so a slow client can't
	// serialize the server (request parsing and page rendering run
	// lock-free).
	mu       sync.Mutex
	sessions *session.Array
	ln       net.Listener
	served   atomic.Uint64
	errors   atomic.Uint64

	// Observability surfaces (all safe from any goroutine): per-type
	// request counts and latency histograms behind /metrics, and the
	// request-trace ring behind /rhythm-trace.
	typeCounts []atomic.Uint64
	latHist    []*stats.Histogram
	tracer     *obs.Recorder

	// flight is the always-on tail-latency recorder behind
	// /v1/debug/flight, and hEngine the SLO burn-rate engine behind
	// /v1/health (DESIGN.md §15). captureBusy serializes blocking
	// ?secs=N trace captures (concurrent captures answer 429).
	flight      *flight.Recorder
	hEngine     *health.Engine
	captureBusy atomic.Bool

	// cache, when non-nil, is the whole-page render cache; hits bypass
	// the banking lock, execution, and tracing entirely.
	cache *rcache.Cache
}

// EnableRenderCache attaches a whole-page render cache of at most
// entries pages, invalidated by every workload backend's write hook.
// Call before Serve.
func (s *TCPServer) EnableRenderCache(entries int) {
	s.cache = rcache.New(entries)
	for _, be := range s.bes {
		be.SetWriteHook(s.cache.Invalidate)
	}
}

// NewTCPServer builds a TCP server over the default registry with
// capacity for maxSessions live sessions.
func NewTCPServer(maxSessions int) *TCPServer {
	return NewTCPServerFor(DefaultRegistry(), maxSessions)
}

// NewTCPServerFor builds a TCP server serving reg's workloads.
func NewTCPServerFor(reg *service.Registry, maxSessions int) *TCPServer {
	if maxSessions < 256 {
		maxSessions = 256
	}
	s := &TCPServer{
		reg:        reg,
		names:      reg.DisplayNames(),
		labels:     typeLabelSets(reg),
		bes:        reg.NewBackends(),
		sessions:   session.NewArray(256, maxSessions/256*4+4),
		typeCounts: make([]atomic.Uint64, reg.NumTypes()),
		latHist:    newLatencyHistograms(reg.NumTypes()),
		tracer:     obs.NewRecorder(0),
		flight:     flight.New(flight.Config{}),
	}
	s.hEngine = s.newHealthEngine(health.Config{})
	return s
}

// ConfigureFlight replaces the flight recorder with one built from cfg.
// Call before Serve.
func (s *TCPServer) ConfigureFlight(cfg flight.Config) { s.flight = flight.New(cfg) }

// ConfigureHealth rebuilds the SLO burn-rate engine from cfg. Call
// before Serve.
func (s *TCPServer) ConfigureHealth(cfg health.Config) { s.hEngine = s.newHealthEngine(cfg) }

// newHealthEngine wires a burn-rate engine to this server's latency
// histograms. Host mode has no shed or deadline paths, so the counts
// are purely latency-classified.
func (s *TCPServer) newHealthEngine(cfg health.Config) *health.Engine {
	if cfg.SLO <= 0 {
		cfg.SLO = defaultHealthSLO
	}
	names := s.names
	sloNs := float64(cfg.SLO)
	return health.New(cfg, func() map[string]health.Counts {
		return sloCounts(names, s.latHist, sloNs, nil)
	})
}

// Seed reports the deterministic banking credentials for userID (every
// profile is synthesized on first touch), so demo clients can log in.
func (s *TCPServer) Seed(userID uint64) (uint64, string) {
	return userID, backend.PasswordFor(userID)
}

// Addr reports the bound address once Listen has been called.
func (s *TCPServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Served reports how many requests have been answered.
func (s *TCPServer) Served() uint64 { return s.served.Load() }

// Errors reports how many answered requests failed (parse errors,
// unknown paths, failed service executions).
func (s *TCPServer) Errors() uint64 { return s.errors.Load() }

// Listen binds the listener without serving (so callers can learn the
// port before Serve blocks).
func (s *TCPServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Serve accepts connections until the listener is closed.
func (s *TCPServer) Serve() error {
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

// ListenAndServe binds addr and serves until Close.
func (s *TCPServer) ListenAndServe(addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops the listener.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

// connArena holds the per-connection reusable buffers of the zero-copy
// hot path: the raw request bytes, the parsed request (param/cookie
// slices recycled by ParseInto), the execution scratch, and a max-size
// render buffer. One arena serves every request on its
// connection, so the steady state allocates nothing but the parse's
// raw-to-string conversion — see DESIGN.md §14.
type connArena struct {
	raw     []byte
	req     httpx.Request
	scratch *service.Scratch
	out     []byte
	// frec is the connection's flight-record scratch: filled per banking
	// request and either recycled (fast path) or copied into the anomaly
	// ring by Finish (DESIGN.md §15). wbuf is the reusable write buffer
	// the X-Rhythm-Trace header is spliced into, so cached/rendered
	// response bytes are never mutated.
	frec flight.Record
	wbuf []byte
}

// maxOut is the registry's largest response-buffer class, so one buffer
// serves every registered type.
func newConnArena(maxOut int) *connArena {
	return &connArena{
		raw:     make([]byte, 0, 1024),
		scratch: service.NewScratch(),
		out:     make([]byte, maxOut),
	}
}

// newParseArena builds an arena without the host execution buffers, for
// the cohort server (its handlers only read, parse, and classify —
// execution and rendering happen on the device workers).
func newParseArena() *connArena {
	return &connArena{raw: make([]byte, 0, 1024)}
}

// handle serves one keep-alive connection.
func (s *TCPServer) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	a := newConnArena(s.reg.MaxBufferBytes())
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		raw, err := readRequestInto(r, a.raw[:0])
		a.raw = raw // keep grown capacity for the next request
		if err != nil {
			return
		}
		resp, tr, id := s.respond(a, raw)
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		wstart := time.Now()
		wout := resp
		if id != 0 {
			a.wbuf = spliceTraceHeader(a.wbuf, resp, id)
			wout = a.wbuf
		}
		_, werr := conn.Write(wout)
		if tr != nil {
			tr.Spans = append(tr.Spans, obs.Span{Name: "write", Start: wstart, Dur: time.Since(wstart)})
			s.tracer.Add(*tr)
		}
		if id != 0 {
			if tr != nil {
				a.frec.Spans = tr.Spans
			}
			a.frec.Latency = time.Since(a.frec.Start)
			s.flight.Finish(&a.frec)
		}
		if werr != nil {
			return
		}
	}
}

// respond answers one request using the connection's arena. Only the
// service execution itself takes the server lock; parsing happens
// before it and rendering after (the scratch ctx is private to this
// goroutine once Execute returns). A render-cache hit skips the lock,
// the execution, and tracing entirely — its only allocation is the
// parse's raw-to-string conversion. For executed banking requests it
// also returns the request's lifecycle trace (minus the write span,
// which the caller appends before committing) and the request's flight
// trace ID (non-zero means a.frec is armed and the caller must Finish
// it after the write).
func (s *TCPServer) respond(a *connArena, raw []byte) ([]byte, *obs.RequestTrace, uint64) {
	s.served.Add(1)
	start := time.Now()
	req := &a.req
	if err := httpx.ParseInto(raw, req); err != nil {
		s.errors.Add(1)
		return errorResponse(400, "Bad Request"), nil, 0
	}
	switch req.Path {
	case StatsPath, StatsPathV1:
		return jsonResponse(s.statsDocument()), nil, 0
	case MetricsPath, MetricsPathV1:
		return s.metricsResponse(), nil, 0
	case TracePath, TracePathV1:
		return s.traceResponse(req), nil, 0
	case FlightPathV1:
		return flightResponse(req, s.flight), nil, 0
	case HealthPathV1:
		return healthResponse(s.hEngine, s.flight), nil, 0
	}
	t, ok := s.reg.Classify(req)
	if !ok {
		if resp, ok := s.reg.Static(req.Path); ok {
			return resp, nil, 0
		}
		s.errors.Add(1)
		return errorResponse(404, "Not Found"), nil, 0
	}
	s.typeCounts[t].Add(1)
	id := s.flight.NextID()
	a.frec.Reset()
	a.frec.TraceID = id
	a.frec.Type = s.names[t]
	a.frec.Start = start
	a.frec.HostExec = true
	a.frec.Attempts = 1
	classified := time.Now()

	// Render-cache lookup. The state version is captured BEFORE the
	// execute so a concurrent write can only make the inserted entry
	// unreachable, never stale (DESIGN.md §14). Session resolution here
	// is lock-free: the session array is internally bucket-locked.
	var (
		cacheable  bool
		csid       session.ID
		cuid, cver uint64
	)
	if s.cache != nil && s.reg.Spec(t).Cacheable {
		if sid, ok := session.ParseID(req.Cookie(s.reg.WorkloadOf(t).SessionCookie())); ok {
			if uid, ok := s.sessions.Lookup(sid); ok {
				cacheable, csid, cuid = true, sid, uid
				cver = s.cache.Version(cuid)
				if resp, hit := s.cache.Get(t, csid, cuid, cver, req); hit {
					s.latHist[t].ObserveEx(float64(time.Since(start)), id)
					return resp, nil, id
				}
			}
		}
	}

	// Execute through the arena's scratch ctx under the workload lock,
	// then render into the arena's reused buffer outside it.
	s.mu.Lock()
	failed := s.reg.ExecuteScratch(a.scratch, t, req, s.sessions, s.bes)
	s.mu.Unlock()
	executed := time.Now()
	resp := a.scratch.Render(a.out)
	if failed {
		s.errors.Add(1)
		a.frec.Status = flight.StatusError
	}
	rendered := time.Now()
	if cacheable && !failed {
		s.cache.Put(t, csid, cuid, cver, req, resp)
	}
	s.latHist[t].ObserveEx(float64(rendered.Sub(start)), id)
	return resp, &obs.RequestTrace{
		Type: s.names[t],
		Spans: []obs.Span{
			{Name: "classify", Start: start, Dur: classified.Sub(start)},
			{Name: "execute", Start: classified, Dur: executed.Sub(classified)},
			{Name: "render", Start: executed, Dur: rendered.Sub(executed)},
		},
	}, id
}

// statsDocument builds the host-mode /v1/stats payload.
func (s *TCPServer) statsDocument() HostStats {
	st := HostStats{
		SchemaVersion:   StatsSchemaVersion,
		Mode:            "host",
		Workloads:       workloadNames(s.reg),
		Served:          s.served.Load(),
		Errors:          s.errors.Load(),
		FlightRequests:  s.flight.Total(),
		FlightAnomalies: s.flight.Promoted(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheInvalidations = cs.Invalidations
		st.CacheEntries = cs.Entries
	}
	return st
}

// metricsResponse renders the host-mode Prometheus /metrics document.
// Every counter here is atomic, so the scrape is race-free without
// touching the banking lock.
func (s *TCPServer) metricsResponse() []byte {
	w := obs.NewPromWriter()
	w.Family("rhythm_build_info", "gauge", "Serving mode of this rhythmd process.")
	w.Value("rhythm_build_info", obs.Label("mode", "host"), 1)
	w.Family("rhythm_requests_served_total", "counter", "Responses produced, including errors.")
	w.Value("rhythm_requests_served_total", "", float64(s.served.Load()))
	w.Family("rhythm_request_errors_total", "counter", "Requests that failed (parse, unknown path, service error).")
	w.Value("rhythm_request_errors_total", "", float64(s.errors.Load()))
	w.Family("rhythm_requests_total", "counter", "Requests executed on the host path, by workload and type.")
	for i := range s.typeCounts {
		if n := s.typeCounts[i].Load(); n > 0 {
			w.Value("rhythm_requests_total", s.labels[i], float64(n))
		}
	}
	writeLatencyFamilies(w, s.labels, s.latHist)
	if s.cache != nil {
		writeRenderCacheFamilies(w, s.cache.Stats())
	}
	w.Family("rhythm_traces_recorded_total", "counter", "Request traces captured by the lifecycle recorder.")
	w.Value("rhythm_traces_recorded_total", "", float64(s.tracer.Total()))
	writeFlightFamilies(w, s.flight)
	return bodyResponse(promContentType, w.Bytes())
}

// traceResponse renders the Chrome trace-event document for
// /rhythm-trace. Host mode has no device, so the document carries only
// the request track.
func (s *TCPServer) traceResponse(req *httpx.Request) []byte {
	secs, ok := captureSecs(req)
	if !ok {
		return errorResponse(400, "Bad Request")
	}
	var since time.Time
	wait := secs > 0
	if wait {
		// One blocking capture at a time: each holds its connection's
		// handler goroutine for secs seconds, so unbounded concurrent
		// captures would pile up goroutines (DESIGN.md §15).
		if !s.captureBusy.CompareAndSwap(false, true) {
			return tooManyCapturesResponse()
		}
		defer s.captureBusy.Store(false)
		since = time.Now()
		time.Sleep(time.Duration(secs) * time.Second)
	}
	return bodyResponse("application/json", traceDocument(s.tracer, since, wait, nil, 0))
}

// HostStats is the /v1/stats (and legacy /rhythm-stats) document of a
// host-mode server.
type HostStats struct {
	SchemaVersion int    `json:"schema_version"`
	Mode          string `json:"mode"`
	// Workloads lists the registered workload names in registration
	// order (schema_version 4).
	Workloads []string `json:"workloads"`
	Served    uint64   `json:"served"`
	Errors    uint64   `json:"errors"`
	// Render-cache counters (zero when the cache is disabled).
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       uint64 `json:"cache_entries"`
	// Flight-recorder counters (DESIGN.md §15).
	FlightRequests  uint64 `json:"flight_requests"`
	FlightAnomalies uint64 `json:"flight_anomalies"`
}

func errorResponse(code int, reason string) []byte {
	buf := make([]byte, 512)
	w := httpx.NewResponseWriter(buf)
	w.StartError(code, reason)
	return w.Finish()
}

// readRequestInto reads one HTTP/1.1 request (headers + Content-Length
// body) from r, appending into buf and returning the extended slice.
// It is the arena-backed replacement for the old per-request
// strings.Builder: once a connection's buffer has grown to its working
// size, reading a request performs no allocation (lines are consumed
// via ReadSlice and the Content-Length value is scanned in place).
func readRequestInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	contentLength := 0
	for {
		lineStart := len(buf)
		for {
			frag, err := r.ReadSlice('\n')
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
			if n < 0 || n > 1<<20 {
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
