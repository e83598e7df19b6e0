package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1000, 10, 10}, 10}, // one hiccup moves nothing
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func ramp(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

// A percentile is reported only with at least ten samples beyond it:
// p99 needs 1000 samples, p50 needs 20.
func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		p         float64
		want      int64
		supported bool
	}{
		{1000, 99, 990, true},
		{999, 99, 990, false}, // rank 990 of 999 leaves nine beyond
		{1001, 99, 991, true},
		{100, 99, 99, false},
		{20, 50, 10, true},
		{19, 50, 10, false},
		{1, 50, 1, false},
	} {
		got, ok := percentileSorted(ramp(c.n), c.p)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(n=%d, p=%v) = %d, %v; want %d, %v", c.n, c.p, got, ok, c.want, c.supported)
		}
	}
	if _, ok := percentileSorted(nil, 50); ok {
		t.Error("empty sample reported as supported")
	}
}

func TestSummarizeMedianOfSlices(t *testing.T) {
	// A 5 s window, one slice per second. Slices 0-3 complete 1000
	// operations of 1 ms each; slice 4 stalls: `stalled` operations of
	// 10 ms.
	const sec = int64(1e9)
	build := func(stalled int64) []sample {
		var samples []sample
		for k := int64(0); k < numSlices; k++ {
			n, lat := int64(1000), int64(1e6)
			if k == 4 {
				n, lat = stalled, 10e6
			}
			for i := int64(0); i < n; i++ {
				samples = append(samples, sample{end: k*sec + i*sec/n, lat: lat})
			}
		}
		return append(samples, sample{end: 5 * sec, lat: 1}, sample{end: -1, lat: 1}) // outside the window
	}

	w := summarize(build(1000), nil, 5*sec)
	if w.ops != 5000 || w.ratePerS != 1000 || w.p50Ms != 1 {
		t.Errorf("ops %d rate %v p50 %v ms, want 5000, 1000 and 1", w.ops, w.ratePerS, w.p50Ms)
	}
	if w.p99Ms != 1 {
		t.Errorf("p99 = %v ms, want 1: the median of the per-slice p99s ignores the stalled slice", w.p99Ms)
	}

	w = summarize(build(100), nil, 5*sec)
	if w.ops != 4100 {
		t.Errorf("ops = %d, want 4100", w.ops)
	}
	if w.ratePerS != 1000 {
		t.Errorf("rate = %v, want the median slice's 1000/s", w.ratePerS)
	}
	if w.p99Ms != 10 {
		t.Errorf("p99 = %v ms, want the whole window's 10: one slice has only 100 samples", w.p99Ms)
	}
	if w := summarize(build(100)[:900], nil, 5*sec); w.p99Ms != 0 {
		t.Errorf("p99 = %v ms reported for a window of 900 samples", w.p99Ms)
	}
	if got := spread(w.sliceRates); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("slice spread = %v, want 0.9", got)
	}

	// Units credit their cohort size to the rate.
	w = summarize([]sample{{end: 0, lat: 5}, {end: sec, lat: 5}, {end: 2 * sec, lat: 5}, {end: 3 * sec, lat: 5}, {end: 4 * sec, lat: 5}},
		func(int) int64 { return 128 }, 5*sec)
	if w.ops != 640 || w.ratePerS != 128 {
		t.Errorf("weighted: ops %d rate %v, want 640 and 128", w.ops, w.ratePerS)
	}
}
