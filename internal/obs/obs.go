// Package obs is the observability layer (DESIGN.md §10): request
// lifecycle spans with a bounded recorder, Chrome trace-event JSON
// export (chrome://tracing / Perfetto loadable) that merges request
// timelines with the SIMT device's kernel-launch profile, and a
// Prometheus text-format writer for the /v1/metrics endpoint.
package obs

import (
	"sync"
	"time"
	"unsafe"

	"rhythm/internal/simt"
)

// Span is one phase of a request's lifecycle (classify, formation-wait,
// stage-0 kernel, render, write, ...), measured in wall-clock time on
// the serving host. A stage span carries its kernel launch's statistics
// (Launch, nil on every other span), which the exporters render as the
// span's args (Args).
type Span struct {
	Name   string
	Start  time.Time
	Dur    time.Duration
	Launch *simt.LaunchStats
}

// Args is the launch linkage a stage span exports, nil for a span with
// no launch: enough to find the kernel in the device profile
// (launch_seq) and to explain its cost without leaving the trace viewer.
func (sp Span) Args() map[string]any {
	st := sp.Launch
	if st == nil {
		return nil
	}
	return map[string]any{
		"kernel":             st.Kernel,
		"launch_seq":         st.Seq,
		"cohort":             st.Threads,
		"device_us":          float64(st.Duration) / 1e3,
		"issue_cycles":       st.IssueCycles,
		"divergent_execs":    st.DivergentExec,
		"transactions":       st.Transactions,
		"ideal_transactions": st.IdealTxns,
		"occupancy":          st.Occupancy,
		"energy_j":           st.EnergyJ,
	}
}

// MaxSpans is the most spans a recorded request keeps. The serving
// paths make five and one per stage kernel (classify, admit-queue,
// formation-wait, the stages, render, write: nine for the default
// registry's longest chain of four); Recorder.Add and the flight
// recorder's promotion keep a longer list's first MaxSpans (CapSpans).
const MaxSpans = 16

// SpanBytes is the most bytes one kept span holds: the Span and the
// launch statistics it points to. Names, and the kernel name in the
// statistics, are the server's fixed strings, not a request's.
const SpanBytes = int(unsafe.Sizeof(Span{}) + unsafe.Sizeof(simt.LaunchStats{}))

// CapSpans returns spans as a recorder keeps them: at most MaxSpans, in
// an array of at most MaxSpans. A list within the cap comes back as it
// is; a longer one, or one whose array has room for more, is copied.
func CapSpans(spans []Span) []Span {
	if cap(spans) <= MaxSpans {
		return spans
	}
	kept := make([]Span, min(len(spans), MaxSpans))
	copy(kept, spans)
	return kept
}

// RequestTrace is the completed span set of one served request.
type RequestTrace struct {
	// Seq numbers traces from 1 in completion order (assigned by the
	// Recorder).
	Seq uint64
	// Type is the request-type label (Table 2 row name).
	Type string
	// Spans holds the lifecycle phases in start order.
	Spans []Span
}

// Recorder keeps the most recent request traces in a bounded ring so a
// live server can always answer a trace capture without unbounded
// growth. Add and Snapshot are safe from any goroutine.
type Recorder struct {
	mu     sync.Mutex
	traces []RequestTrace
	seq    uint64
}

// DefaultTraceCapacity bounds the recorder when callers pass 0.
const DefaultTraceCapacity = 1024

// TraceBytes is the most bytes one recorder slot holds: the trace and
// MaxSpans spans (CapSpans).
const TraceBytes = int(unsafe.Sizeof(RequestTrace{})) + MaxSpans*SpanBytes

// NewRecorder builds a recorder holding up to capacity traces
// (0 = DefaultTraceCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Recorder{traces: make([]RequestTrace, capacity)}
}

// Add stamps tr with the next sequence number and stores it, evicting
// the oldest trace once the ring is full. It keeps at most MaxSpans of
// tr's spans (CapSpans).
func (r *Recorder) Add(tr RequestTrace) {
	tr.Spans = CapSpans(tr.Spans)
	r.mu.Lock()
	r.seq++
	tr.Seq = r.seq
	r.traces[(r.seq-1)%uint64(len(r.traces))] = tr
	r.mu.Unlock()
}

// BytesBound is the most bytes the recorder holds: its slots times
// TraceBytes.
func (r *Recorder) BytesBound() uint64 { return uint64(len(r.traces)) * uint64(TraceBytes) }

// Total reports how many traces were ever added.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Snapshot copies the buffered traces in sequence order (oldest first).
func (r *Recorder) Snapshot() []RequestTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.seq
	capacity := uint64(len(r.traces))
	if n > capacity {
		n = capacity
	}
	out := make([]RequestTrace, n)
	for i := uint64(0); i < n; i++ {
		out[i] = r.traces[(r.seq-n+i)%capacity]
	}
	return out
}

// Since filters a snapshot to traces whose first span starts at or after
// t — the capture-window filter behind /v1/trace?secs=N.
func (r *Recorder) Since(t time.Time) []RequestTrace {
	all := r.Snapshot()
	out := all[:0]
	for _, tr := range all {
		if len(tr.Spans) > 0 && !tr.Spans[0].Start.Before(t) {
			out = append(out, tr)
		}
	}
	return out
}
