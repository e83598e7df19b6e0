package main

import (
	"math"
	"sort"
)

// numSlices is how many equal time slices a measured window is cut
// into. A rate or a tail percentile is reported as the median of its
// per-slice values, so one scheduler hiccup moves one slice, not the
// result.
const numSlices = 5

// tailBeyond is the choosing-metrics rule for percentiles: report the
// highest percentile that still has this many samples beyond it.
const tailBeyond = 10

// median returns the middle value of vs (mean of the two middle values
// for even lengths), or 0 for an empty input. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileSorted returns the p-th percentile (0 < p < 100) of an
// ascending slice by nearest rank, and whether the sample supports it:
// a percentile is supported only when at least tailBeyond samples lie
// beyond it.
func percentileSorted(sorted []int64, p float64) (v int64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= tailBeyond
}

// spread reports (max-min)/median of vs, the relative width of a set of
// per-slice values (0 when the median is 0).
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if m := median(vs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// sample is one completed operation: when it finished (ns since the
// window opened) and how long the caller waited for it.
type sample struct {
	end int64
	lat int64
}

// window summarises one measured window of closed-loop samples.
type window struct {
	ops        int64     // operations that completed inside the window
	sliceRates []float64 // ops/s per slice
	ratePerS   float64   // median of sliceRates
	p50Ms      float64   // median latency over the whole window
	// p99Ms is the median of the per-slice p99s; the whole window's p99
	// when some slice is too small to support one; 0 when the window is.
	p99Ms float64
}

// summarize cuts [0, dur) into numSlices equal slices by completion
// time and reduces the samples: weight[i] operations are credited to
// sample i's slice (1 for a request, the cohort size for a unit).
// Samples that ended outside the window are dropped.
func summarize(samples []sample, weight func(i int) int64, dur int64) window {
	var w window
	sliceLen := dur / numSlices
	if sliceLen <= 0 {
		return w
	}
	counts := make([]int64, numSlices)
	lats := make([][]int64, numSlices)
	var all []int64
	for i, s := range samples {
		if s.end < 0 || s.end >= sliceLen*numSlices {
			continue
		}
		k := s.end / sliceLen
		n := int64(1)
		if weight != nil {
			n = weight(i)
		}
		counts[k] += n
		w.ops += n
		lats[k] = append(lats[k], s.lat)
		all = append(all, s.lat)
	}
	w.sliceRates = make([]float64, numSlices)
	for k := range counts {
		w.sliceRates[k] = float64(counts[k]) / (float64(sliceLen) / 1e9)
	}
	w.ratePerS = median(w.sliceRates)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if v, _ := percentileSorted(all, 50); len(all) > 0 {
		w.p50Ms = float64(v) / 1e6
	}
	p99s := make([]float64, 0, numSlices)
	for k := range lats {
		sort.Slice(lats[k], func(i, j int) bool { return lats[k][i] < lats[k][j] })
		v, ok := percentileSorted(lats[k], 99)
		if !ok {
			if v, ok := percentileSorted(all, 99); ok {
				w.p99Ms = float64(v) / 1e6
			}
			return w
		}
		p99s = append(p99s, float64(v)/1e6)
	}
	w.p99Ms = median(p99s)
	return w
}
