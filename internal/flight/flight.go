// Package flight is the always-on tail-latency flight recorder
// (DESIGN.md §15). Every request is assigned a trace ID and accumulates
// its full causal record — lifecycle spans, linked kernel launch seqs,
// cohort size and launch reason, device and failover hops — into a
// per-connection scratch Record. On the fast path the scratch is simply
// recycled; only anomalous requests (slow, errored, shed, or
// deadline-exceeded) are *promoted* by value into a bounded in-memory
// ring that /v1/debug/flight exports as JSON or a Chrome trace-event
// document. Promotion itself allocates nothing: the ring slots are
// preallocated and a Record is a value copy (span slices are retained
// by reference; the serving paths never reuse a request's span slice
// after Finish).
package flight

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rhythm/internal/obs"
	"rhythm/internal/stats"
)

// Status classifies how a request ended, as seen by the serving loop.
type Status uint8

const (
	StatusOK        Status = iota
	StatusError            // request failed (parse/app error response)
	StatusShed             // rejected at admission (503)
	StatusDeadline         // missed its request deadline (504)
	StatusKernelErr        // a stage kernel reported an error
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	case StatusShed:
		return "shed"
	case StatusDeadline:
		return "deadline"
	case StatusKernelErr:
		return "kernel-error"
	}
	return "unknown"
}

// Reason says why a record was promoted into the anomaly ring.
type Reason uint8

const (
	NotPromoted Reason = iota
	ReasonSlow
	ReasonError
	ReasonShed
	ReasonDeadline
	ReasonKernel
	reasonCount
)

func (r Reason) String() string {
	switch r {
	case ReasonSlow:
		return "slow"
	case ReasonError:
		return "error"
	case ReasonShed:
		return "shed"
	case ReasonDeadline:
		return "deadline"
	case ReasonKernel:
		return "kernel-error"
	}
	return "none"
}

// maxLaunches bounds the per-record launch-seq linkage array. It is a
// fixed array (not a slice) so filling it never allocates; the banking
// pipeline runs at most four stage kernels per request today.
const maxLaunches = 8

// Record is one request's causal record. The serving loops own one
// scratch Record per connection (or per in-flight request) and fill it
// as the request progresses; Finish decides promote-or-recycle. A
// promoted Record is copied by value into the ring, so the scratch can
// be reset and reused immediately.
type Record struct {
	TraceID uint64
	Type    string
	Start   time.Time
	Latency time.Duration
	Status  Status
	Reason  Reason // set by Finish on promotion

	// Execution placement and failover trail.
	Device   int // device id, -1 when the request never reached one
	Attempts int // 1 = clean; >1 counts failover/retry hops
	HostExec bool

	// Cohort formation outcome (zero-valued on the host path).
	CohortSize    int
	LaunchReason  string // "timeout", "full", "drain", "host", ...
	FormationWait time.Duration

	// Kernel launch linkage into the profiler's records.
	NumLaunches int
	LaunchSeqs  [maxLaunches]uint64

	// Lifecycle spans (classify → ... → write). Retained by reference,
	// at most obs.MaxSpans of them (obs.CapSpans); callers must not
	// mutate the slice after Finish.
	Spans []obs.Span
}

// RecordBytes is the most bytes one anomaly-ring slot holds: the Record
// and obs.MaxSpans spans. Its strings are the registry's type names and
// the server's fixed launch reasons, not a request's.
const RecordBytes = int(unsafe.Sizeof(Record{})) + obs.MaxSpans*obs.SpanBytes

// Reset clears a scratch record for reuse, keeping nothing.
func (r *Record) Reset() { *r = Record{Device: -1} }

// AddLaunch appends a kernel launch seq to the linkage array (dropping
// overflow past maxLaunches rather than allocating).
func (r *Record) AddLaunch(seq uint64) {
	if r.NumLaunches < maxLaunches {
		r.LaunchSeqs[r.NumLaunches] = seq
	}
	r.NumLaunches++
}

// Config sizes and tunes a Recorder.
type Config struct {
	// Ring is the anomaly ring capacity (records kept). Default 256.
	Ring int
	// Slow is an explicit slow-promotion threshold. Zero means adaptive:
	// promote OK answers beyond the p99 of the histograms New was given.
	Slow time.Duration
	// MinSamples is the adaptive warm-up: until this many requests have
	// finished, nothing is promoted for slowness alone. Default 512.
	MinSamples uint64
}

// refreshEvery finishes between recomputations of the cached adaptive
// p99 threshold (a power of two, tested with a mask).
const refreshEvery = 256

// Recorder assigns trace IDs, derives the adaptive slow threshold from
// the caller's latency histograms, and keeps the bounded anomaly ring.
// All fast-path methods (NextID, Finish) are lock-free except for the
// ring insert on promotion, and allocate nothing.
type Recorder struct {
	cfg      Config
	lat      []*stats.Histogram // the OK answers' latencies, observed by the caller
	ids      atomic.Uint64
	total    atomic.Uint64
	promoted atomic.Uint64
	byReason [reasonCount]atomic.Uint64
	threshNs atomic.Int64 // cached adaptive p99 bucket edge (0 = not warm)

	mu   sync.Mutex
	ring []Record
	next uint64 // monotone count of promoted records written
}

// New builds a Recorder, applying defaults for zero Config fields. lat
// are the histograms (nanoseconds, shared bounds) the caller observes
// each OK answer's Latency into before it calls Finish; the adaptive
// threshold ranks over them.
func New(cfg Config, lat []*stats.Histogram) *Recorder {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 512
	}
	return &Recorder{cfg: cfg, lat: lat, ring: make([]Record, cfg.Ring)}
}

// NextID returns the next trace ID (monotone, starting at 1).
func (r *Recorder) NextID() uint64 { return r.ids.Add(1) }

// Finish ends a request's record, promoting it into the anomaly ring
// iff the request errored, was shed, missed its deadline, hit a kernel
// error, or was slow (past Config.Slow, or past the adaptive p99 bucket
// edge of the OK answers once warm). Returns whether the record was
// promoted. The caller may Reset and reuse rec immediately either way,
// but must not mutate rec.Spans after a promotion (the ring retains the
// slice).
func (r *Recorder) Finish(rec *Record) bool {
	n := r.total.Add(1)
	if n&(refreshEvery-1) == 0 {
		r.threshNs.Store(int64(stats.Percentile(99, r.lat...)))
	}

	reason := NotPromoted
	switch rec.Status {
	case StatusOK:
		if slow := r.cfg.Slow; slow > 0 {
			if rec.Latency > slow {
				reason = ReasonSlow
			}
		} else if n >= r.cfg.MinSamples {
			if t := r.threshNs.Load(); t > 0 && rec.Latency.Nanoseconds() > t {
				reason = ReasonSlow
			}
		}
	case StatusShed:
		reason = ReasonShed
	case StatusDeadline:
		reason = ReasonDeadline
	case StatusKernelErr:
		reason = ReasonKernel
	default:
		reason = ReasonError
	}
	if reason == NotPromoted {
		return false
	}
	rec.Reason = reason
	rec.Spans = obs.CapSpans(rec.Spans)
	r.promoted.Add(1)
	r.byReason[reason].Add(1)
	r.mu.Lock()
	r.ring[r.next%uint64(len(r.ring))] = *rec
	r.next++
	r.mu.Unlock()
	return true
}

// Counters is the recorder's cumulative promotion accounting.
type Counters struct {
	Total     uint64
	Promoted  uint64
	ByReason  map[string]uint64
	ThreshNs  int64
	RingSize  int
	RingCount int
}

// Snapshot copies the recorder state: counters plus up to n anomaly
// records, oldest→newest (n <= 0 means all retained records). The
// copies share span slices with the ring; treat them as read-only.
type Snapshot struct {
	Counters
	Records []Record
}

// Snapshot exports the current anomaly ring and counters.
func (r *Recorder) Snapshot(n int) Snapshot {
	r.mu.Lock()
	kept := int(r.next)
	if kept > len(r.ring) {
		kept = len(r.ring)
	}
	if n <= 0 || n > kept {
		n = kept
	}
	recs := make([]Record, n)
	for i := 0; i < n; i++ {
		recs[i] = r.ring[(r.next-uint64(n)+uint64(i))%uint64(len(r.ring))]
	}
	ringCount := kept
	r.mu.Unlock()

	s := Snapshot{Records: recs}
	s.Total = r.total.Load()
	s.Promoted = r.promoted.Load()
	s.ThreshNs = r.threshNs.Load()
	s.RingSize = len(r.ring)
	s.RingCount = ringCount
	s.ByReason = make(map[string]uint64, int(reasonCount))
	for reason := ReasonSlow; reason < reasonCount; reason++ {
		if c := r.byReason[reason].Load(); c > 0 {
			s.ByReason[reason.String()] = c
		}
	}
	return s
}

// BytesBound is the most bytes the anomaly ring holds: its slots times
// RecordBytes.
func (r *Recorder) BytesBound() uint64 { return uint64(len(r.ring)) * uint64(RecordBytes) }

// Promoted reports the cumulative promoted-record count.
func (r *Recorder) Promoted() uint64 { return r.promoted.Load() }

// Total reports the cumulative finished-request count.
func (r *Recorder) Total() uint64 { return r.total.Load() }

// spanJSON renders one span relative to the request start.
type spanJSON struct {
	Name     string         `json:"name"`
	OffsetUs float64        `json:"offset_us"`
	DurUs    float64        `json:"dur_us"`
	Args     map[string]any `json:"args,omitempty"`
}

type recordJSON struct {
	TraceID         uint64     `json:"trace_id"`
	Type            string     `json:"type"`
	Start           string     `json:"start"`
	LatencyUs       float64    `json:"latency_us"`
	Status          string     `json:"status"`
	Reason          string     `json:"reason"`
	Device          int        `json:"device"`
	Attempts        int        `json:"attempts"`
	HostExec        bool       `json:"host_exec"`
	CohortSize      int        `json:"cohort_size,omitempty"`
	LaunchReason    string     `json:"launch_reason,omitempty"`
	FormationWaitUs float64    `json:"formation_wait_us"`
	LaunchSeqs      []uint64   `json:"launch_seqs,omitempty"`
	Spans           []spanJSON `json:"spans,omitempty"`
}

type documentJSON struct {
	Schema      int               `json:"schema"`
	Total       uint64            `json:"total"`
	Promoted    uint64            `json:"promoted"`
	ByReason    map[string]uint64 `json:"by_reason,omitempty"`
	ThresholdUs float64           `json:"slow_threshold_us"`
	RingSize    int               `json:"ring_size"`
	Records     []recordJSON      `json:"records"`
}

// JSON renders the snapshot as the /v1/debug/flight document.
func (s Snapshot) JSON() []byte {
	doc := documentJSON{
		Schema:      1,
		Total:       s.Total,
		Promoted:    s.Promoted,
		ByReason:    s.ByReason,
		ThresholdUs: float64(s.ThreshNs) / 1e3,
		RingSize:    s.RingSize,
		Records:     make([]recordJSON, len(s.Records)),
	}
	for i, rec := range s.Records {
		rj := recordJSON{
			TraceID:         rec.TraceID,
			Type:            rec.Type,
			Start:           rec.Start.UTC().Format(time.RFC3339Nano),
			LatencyUs:       float64(rec.Latency) / 1e3,
			Status:          rec.Status.String(),
			Reason:          rec.Reason.String(),
			Device:          rec.Device,
			Attempts:        rec.Attempts,
			HostExec:        rec.HostExec,
			CohortSize:      rec.CohortSize,
			LaunchReason:    rec.LaunchReason,
			FormationWaitUs: float64(rec.FormationWait) / 1e3,
		}
		if n := rec.NumLaunches; n > 0 {
			if n > maxLaunches {
				n = maxLaunches
			}
			rj.LaunchSeqs = rec.LaunchSeqs[:n]
		}
		for _, sp := range rec.Spans {
			rj.Spans = append(rj.Spans, spanJSON{
				Name:     sp.Name,
				OffsetUs: float64(sp.Start.Sub(rec.Start)) / 1e3,
				DurUs:    float64(sp.Dur) / 1e3,
				Args:     sp.Args(),
			})
		}
		doc.Records[i] = rj
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		// Built from plain values; marshaling cannot fail.
		panic("flight: document marshal: " + err.Error())
	}
	return append(out, '\n')
}

// Chrome renders the snapshot's anomaly records as a Chrome trace-event
// document (one thread row per anomaly, tid = trace ID), loadable in
// Perfetto next to the /v1/trace output. Stage spans keep their
// launch_seq linkage args, so a kernel launch can still be joined
// against the profiler's records.
func (s Snapshot) Chrome() []byte {
	traces := make([]obs.RequestTrace, 0, len(s.Records))
	for _, rec := range s.Records {
		if len(rec.Spans) == 0 {
			continue
		}
		traces = append(traces, obs.RequestTrace{
			Seq:   rec.TraceID,
			Type:  rec.Type,
			Spans: rec.Spans,
		})
	}
	return obs.ChromeTrace(traces, nil)
}
