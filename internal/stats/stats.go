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
