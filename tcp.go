package rhythm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// TCPServer serves the registered workloads over a real TCP listener
// using the host execution path — the same service code the device
// kernels run, so responses are identical. It is the conventional-server
// baseline: the shared frontend with execution on the handler goroutine.
type TCPServer struct {
	frontend

	// bes holds one backend store per workload (this server is a single
	// shard group).
	bes []service.Backend

	// mu guards the workload state (backends + sessions are
	// single-writer by design). It is held only across Execute — never
	// across connection I/O — so a slow client can't serialize the server
	// (request parsing and page rendering run lock-free).
	mu         sync.Mutex
	sessions   *session.Array
	execErrors atomic.Uint64
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
		bes:      reg.NewBackends(),
		sessions: session.NewArray(256, maxSessions/256*4+4),
	}
	s.frontend.init(reg, s, "host", reg.MaxBufferBytes(), flight.Config{})
	s.ConfigureHealth(health.Config{})
	return s
}

// ConfigureFlight replaces the flight recorder with one built from cfg.
// Call before Serve.
func (s *TCPServer) ConfigureFlight(cfg flight.Config) { s.flight = flight.New(cfg) }

// ConfigureHealth rebuilds the SLO burn-rate engine from cfg. Call
// before Serve. Host mode has no shed or deadline paths, so the counts
// are purely latency-classified.
func (s *TCPServer) ConfigureHealth(cfg health.Config) { s.setHealth(cfg, nil) }

// Errors reports how many answered requests failed (parse errors,
// unknown paths, failed service executions).
func (s *TCPServer) Errors() uint64 {
	return s.parseErrors.Load() + s.notFound.Load() + s.execErrors.Load()
}

// Drain stops the listener, closes idle connections and waits for busy
// ones to finish their current response, bounded by ctx.
func (s *TCPServer) Drain(ctx context.Context) error {
	s.stopAccepting()
	return s.drainConns(ctx)
}

// Close stops the listener and closes every connection without waiting
// for responses in flight.
func (s *TCPServer) Close() error {
	s.stopAccepting()
	s.closeConns(true)
	return nil
}

// Snapshot returns the mode-tagged serving statistics.
func (s *TCPServer) Snapshot() ServerStats {
	doc := s.hostStats()
	return ServerStats{Mode: "host", Host: &doc}
}

// dispatch is the host mode hook: execute through the arena's scratch
// ctx under the workload lock, then render into the arena's reused
// buffer outside it (the scratch ctx is private to this goroutine once
// Execute returns).
func (s *TCPServer) dispatch(a *connArena) []byte {
	classified := time.Now()
	a.frec.HostExec = true
	a.frec.Attempts = 1
	s.mu.Lock()
	failed := s.reg.ExecuteScratch(a.scratch, a.t, &a.req, s.sessions, s.bes)
	s.mu.Unlock()
	executed := time.Now()
	resp := a.scratch.Render(a.out)
	if failed {
		s.execErrors.Add(1)
		a.frec.Status = flight.StatusError
	}
	rendered := time.Now()
	s.latHist[a.t].ObserveEx(float64(rendered.Sub(a.start)), a.frec.TraceID)
	// Capacity for the write span the frontend appends.
	a.spans = append(make([]obs.Span, 0, 4),
		obs.Span{Name: "classify", Start: a.start, Dur: classified.Sub(a.start)},
		obs.Span{Name: "execute", Start: classified, Dur: executed.Sub(classified)},
		obs.Span{Name: "render", Start: executed, Dur: rendered.Sub(executed)})
	return resp
}

// sessionsFor: one shard group, one session array.
func (s *TCPServer) sessionsFor(*httpx.Request, service.TypeID) *session.Array { return s.sessions }

func (s *TCPServer) statsDocument() any { return s.hostStats() }

// hostStats builds the host-mode /v1/stats payload.
func (s *TCPServer) hostStats() HostStats {
	cs := s.cacheStats()
	return HostStats{
		SchemaVersion:      StatsSchemaVersion,
		Mode:               "host",
		Workloads:          workloadNames(s.reg),
		Served:             s.served.Load(),
		Errors:             s.Errors(),
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		CacheInvalidations: cs.Invalidations,
		CacheEntries:       cs.Entries,
		CacheBytes:         cs.Bytes,
		FlightRequests:     s.flight.Total(),
		FlightAnomalies:    s.flight.Promoted(),
	}
}

// writeMetrics emits the host-mode families. Every counter here is
// atomic, so the scrape is race-free without touching the workload lock.
func (s *TCPServer) writeMetrics(w *obs.PromWriter) {
	w.Family("rhythm_request_errors_total", "counter", "Requests that failed (parse, unknown path, service error).")
	w.Value("rhythm_request_errors_total", "", float64(s.Errors()))
	w.Family("rhythm_requests_total", "counter", "Requests executed on the host path, by workload and type.")
	for t, h := range s.latHist {
		// Every classified request lands in its type's latency histogram.
		if n := h.Count(); n > 0 {
			w.Value("rhythm_requests_total", s.labels[t], float64(n))
		}
	}
}

// HostStats is the /v1/stats document of a host-mode server.
type HostStats struct {
	SchemaVersion int    `json:"schema_version"`
	Mode          string `json:"mode"`
	// Workloads lists the registered workload names in registration
	// order.
	Workloads []string `json:"workloads"`
	Served    uint64   `json:"served"`
	Errors    uint64   `json:"errors"`
	// Render-cache counters (zero when the cache is disabled).
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       uint64 `json:"cache_entries"`
	CacheBytes         uint64 `json:"cache_bytes"` // live bytes the entries hold
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
