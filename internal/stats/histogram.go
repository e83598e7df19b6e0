package stats

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with lock-free atomic counters,
// safe for concurrent Observe and Snapshot (live servers record on hot
// paths while /v1/metrics scrapes snapshot). Bucket semantics follow the
// Prometheus convention: bucket i counts observations <= bounds[i], and
// an implicit +Inf bucket catches everything past the last bound.
type Histogram struct {
	bounds []float64 // ascending upper bounds (exclusive of +Inf)
	counts []atomic.Uint64
	inf    atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // sum of observations, truncated to integer units
	// Per-bucket exemplars (DESIGN.md §15): the trace ID of the latest
	// observation that landed in each bucket (index len(bounds) is the
	// +Inf bucket), linking /v1/metrics buckets to /v1/debug/flight
	// records. Only ObserveEx writes them.
	exemplars []atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// It panics on an empty or unsorted bound list.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d (%v <= %v)",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Uint64, len(bounds)),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Negative values clamp to 0 (they land in
// the first bucket); values past the last bound land in +Inf. The sum is
// accumulated in integer units of the observed value (fine for the
// nanosecond latencies and occupancy counts this repo records).
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.total.Add(1)
	h.sum.Add(uint64(v))
}

// ObserveEx records one value and stamps its trace ID as the bucket's
// exemplar. The exemplar is a plain last-writer-wins atomic — a scrape
// racing an observation may pair a fresh ID with a not-yet-bumped
// count, which exemplar semantics permit (it only needs to name *a*
// recent observation in the bucket).
func (h *Histogram) ObserveEx(v float64, traceID uint64) {
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	if traceID != 0 {
		h.exemplars[i].Store(traceID)
	}
	h.total.Add(1)
	h.sum.Add(uint64(v))
}

// CountAtOrBelow reports how many observations were <= v, resolved at
// bucket granularity: only whole buckets whose upper bound is <= v are
// counted, so the answer never overstates (the SLO health engine wants
// a conservative "good" count).
func (h *Histogram) CountAtOrBelow(v float64) uint64 {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) && h.bounds[i] == v {
		i++
	}
	var cum uint64
	for j := 0; j < i; j++ {
		cum += h.counts[j].Load()
	}
	return cum
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// export: cumulative counts per bound plus the +Inf total, following the
// Prometheus text format's `le` convention. (Counts are read without a
// global lock; a scrape racing an Observe may be off by the in-flight
// observation, which Prometheus semantics permit.)
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending
	Counts []uint64  // cumulative count of observations <= Bounds[i]
	Count  uint64    // total observations (the +Inf cumulative count)
	Sum    float64   // sum of observed values (integer-truncated units)
	// Exemplars holds the latest trace ID per bucket (index len(Bounds)
	// is +Inf); zero means the bucket has no exemplar.
	Exemplars []uint64
}

// Snapshot exports the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:    h.bounds,
		Counts:    make([]uint64, len(h.bounds)),
		Sum:       float64(h.sum.Load()),
		Exemplars: make([]uint64, len(h.bounds)+1),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.Count = cum + h.inf.Load()
	for i := range h.exemplars {
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum reports the sum of observed values (integer-truncated units).
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) }

// Percentile reports the nearest-rank p-th percentile (0 < p <= 100) of
// the observations of hs merged, at bucket resolution: the upper bound
// of the bucket that holds the rank. The histograms must share bounds.
// A rank in +Inf reports the last finite bound (JSON cannot carry
// +Inf), and no observations report 0. It reads the counters in place
// and allocates nothing.
func Percentile(p float64, hs ...*Histogram) float64 {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	var n uint64
	for _, h := range hs {
		for i := range h.counts {
			n += h.counts[i].Load()
		}
		n += h.inf.Load()
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(n) / 100))
	bounds := hs[0].bounds
	var cum uint64
	for i := range bounds {
		for _, h := range hs {
			cum += h.counts[i].Load()
		}
		if cum >= rank {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// LatencyBucketsNs returns the default latency bucket bounds in
// nanoseconds: the octaves 2^12 (4.1 µs) to 2^33 (8.6 s), 22 bounds,
// fine enough for a tens-of-microseconds host-route request and wide
// enough for a multi-second deadline miss.
func LatencyBucketsNs() []float64 {
	out := make([]float64, 22)
	for i := range out {
		out[i] = float64(int64(1) << (12 + i))
	}
	return out
}

// PowersOfTwoBuckets returns 1, 2, 4, ... up to the first power of two
// >= max — the cohort-occupancy distribution buckets.
func PowersOfTwoBuckets(max int) []float64 {
	if max < 1 {
		max = 1
	}
	var out []float64
	for b := 1; ; b *= 2 {
		out = append(out, float64(b))
		if b >= max {
			return out
		}
	}
}

// Buckets bins the recorder's samples into the given ascending upper
// bounds, returning cumulative counts; the last element is the total
// sample count (the +Inf bucket). This is the recorder's fixed-bucket
// histogram export — rhythm-load uses it for client-side -hist output.
func (r *LatencyRecorder) Buckets(bounds []float64) []uint64 {
	out := make([]uint64, len(bounds)+1)
	for _, v := range r.samples {
		i := sort.SearchFloat64s(bounds, v)
		out[i]++
	}
	var cum uint64
	for i := range out {
		cum += out[i]
		out[i] = cum
	}
	return out
}
