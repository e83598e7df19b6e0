// Package obs is the observability layer (DESIGN.md §10): request
// lifecycle spans with a bounded recorder, Chrome trace-event JSON
// export (chrome://tracing / Perfetto loadable) that merges request
// timelines with the SIMT device's kernel-launch profile, and a
// Prometheus text-format writer for the /v1/metrics endpoint.
package obs

import (
	"sync"
	"time"
)

// Span is one phase of a request's lifecycle (classify, formation-wait,
// stage-0 kernel, render, write, ...), measured in wall-clock time on
// the serving host. Args carries span-specific detail — stage spans link
// to their kernel's LaunchRecord via a "launch_seq" arg.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Args  map[string]any
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

// NewRecorder builds a recorder holding up to capacity traces
// (0 = DefaultTraceCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Recorder{traces: make([]RequestTrace, capacity)}
}

// Add stamps tr with the next sequence number and stores it, evicting
// the oldest trace once the ring is full.
func (r *Recorder) Add(tr RequestTrace) {
	r.mu.Lock()
	r.seq++
	tr.Seq = r.seq
	r.traces[(r.seq-1)%uint64(len(r.traces))] = tr
	r.mu.Unlock()
}

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
