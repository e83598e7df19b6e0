// Package stats implements the metrics the paper reports: throughput,
// latency distributions, and requests/Joule efficiency, including the
// weighted harmonic mean the paper uses to combine per-request-type
// efficiencies into a whole-workload number (§5.3.1).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// WeightedHarmonicMean combines per-class rates using the weights as the
// work mix: WHM = sum(w) / sum(w_i / x_i). This is the paper's method for
// turning per-request-type throughput/Watt into workload efficiency.
// It panics if lengths differ and returns 0 for empty input. Classes with
// zero weight are ignored; a zero value with positive weight yields 0
// (an infinitely slow class dominates a harmonic mean).
func WeightedHarmonicMean(values, weights []float64) float64 {
	if len(values) != len(weights) {
		panic(fmt.Sprintf("stats: %d values vs %d weights", len(values), len(weights)))
	}
	var wsum, denom float64
	for i, v := range values {
		w := weights[i]
		if w == 0 {
			continue
		}
		if w < 0 {
			panic("stats: negative weight")
		}
		if v <= 0 {
			return 0
		}
		wsum += w
		denom += w / v
	}
	if denom == 0 {
		return 0
	}
	return wsum / denom
}

// WeightedArithmeticMean combines per-class values (e.g., response sizes
// or latencies) by the request mix.
func WeightedArithmeticMean(values, weights []float64) float64 {
	if len(values) != len(weights) {
		panic(fmt.Sprintf("stats: %d values vs %d weights", len(values), len(weights)))
	}
	var wsum, acc float64
	for i, v := range values {
		acc += v * weights[i]
		wsum += weights[i]
	}
	if wsum == 0 {
		return 0
	}
	return acc / wsum
}

// LatencyRecorder accumulates request latencies (in nanoseconds) and
// reports mean and percentile statistics. The paper reports mean latency
// and notes the 99th percentile (§6.1).
type LatencyRecorder struct {
	samples []float64
	sorted  bool
	sum     float64
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record adds one latency sample in nanoseconds.
func (r *LatencyRecorder) Record(ns float64) {
	if ns < 0 {
		panic("stats: negative latency")
	}
	r.samples = append(r.samples, ns)
	r.sum += ns
	r.sorted = false
}

// Merge folds every sample of o into r (o is left untouched), so
// per-worker recorders can be combined without sharing one recorder
// across goroutines.
func (r *LatencyRecorder) Merge(o *LatencyRecorder) {
	r.samples = append(r.samples, o.samples...)
	r.sum += o.sum
	r.sorted = len(o.samples) == 0 && r.sorted
}

// Mean reports the average latency in nanoseconds (0 when empty).
func (r *LatencyRecorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / float64(len(r.samples))
}

// Percentile reports the p-th percentile (0 < p <= 100) using
// nearest-rank. It returns 0 when empty.
func (r *LatencyRecorder) Percentile(p float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	return r.samples[rank-1]
}

// Max reports the maximum sample (0 when empty).
func (r *LatencyRecorder) Max() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	return r.samples[len(r.samples)-1]
}

// LatencyWindow holds the most recent samples of an unbounded stream in
// a fixed ring, so a long-lived server's percentiles follow its traffic
// at a fixed memory cost. Record and Mean are O(1) (a running sum, exact
// for the integral nanosecond samples servers record); percentiles come
// from Recorder's copy, so the sort runs wherever that copy is read.
type LatencyWindow struct {
	ring []float64
	next int // slot the next sample overwrites once the ring is full
	sum  float64
}

// NewLatencyWindow returns an empty window over the last size samples.
func NewLatencyWindow(size int) *LatencyWindow {
	return &LatencyWindow{ring: make([]float64, 0, size)}
}

// Record adds one latency sample in nanoseconds, evicting the oldest
// once the window is full.
func (w *LatencyWindow) Record(ns float64) {
	if ns < 0 {
		panic("stats: negative latency")
	}
	w.sum += ns
	if len(w.ring) < cap(w.ring) {
		w.ring = append(w.ring, ns)
		return
	}
	w.sum -= w.ring[w.next]
	w.ring[w.next] = ns
	w.next = (w.next + 1) % len(w.ring)
}

// Mean reports the average of the held samples (0 when empty).
func (w *LatencyWindow) Mean() float64 {
	if len(w.ring) == 0 {
		return 0
	}
	return w.sum / float64(len(w.ring))
}

// Recorder returns a recorder over a copy of the held samples, made in
// buf when it has the room (the recorder then owns buf).
func (w *LatencyWindow) Recorder(buf []float64) *LatencyRecorder {
	return &LatencyRecorder{samples: append(buf[:0], w.ring...), sum: w.sum}
}
