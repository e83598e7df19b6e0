package stats

import (
	"reflect"
	"sync"
	"testing"
)

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})

	h.Observe(0)    // zero → first bucket
	h.Observe(-5)   // negative clamps to 0 → first bucket
	h.Observe(10)   // exactly on a bound → that bucket (le convention)
	h.Observe(11)   // just past a bound → next bucket
	h.Observe(1000) // exactly the max bound → last finite bucket
	h.Observe(1001) // past the last bound → +Inf overflow

	s := h.Snapshot()
	wantCum := []uint64{3, 4, 5}
	if !reflect.DeepEqual(s.Counts, wantCum) {
		t.Fatalf("cumulative counts = %v, want %v", s.Counts, wantCum)
	}
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 0+0+10+11+1000+1001 {
		t.Fatalf("Sum = %v", s.Sum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {5, 5}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBucketsNs())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%20) * 1e6)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

func TestLatencyRecorderBuckets(t *testing.T) {
	r := NewLatencyRecorder()
	for _, v := range []float64{0, 5, 10, 50, 200} {
		r.Record(v)
	}
	got := r.Buckets([]float64{10, 100})
	// <=10: {0,5,10}; <=100: +{50}; +Inf: +{200}
	want := []uint64{3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Buckets = %v, want %v", got, want)
	}
	if empty := NewLatencyRecorder().Buckets([]float64{1}); !reflect.DeepEqual(empty, []uint64{0, 0}) {
		t.Fatalf("empty Buckets = %v", empty)
	}
}

func TestPowersOfTwoBuckets(t *testing.T) {
	if got := PowersOfTwoBuckets(128); len(got) != 8 || got[7] != 128 {
		t.Fatalf("PowersOfTwoBuckets(128) = %v", got)
	}
	if got := PowersOfTwoBuckets(100); got[len(got)-1] != 128 {
		t.Fatalf("PowersOfTwoBuckets(100) = %v", got)
	}
	if got := PowersOfTwoBuckets(0); !reflect.DeepEqual(got, []float64{1}) {
		t.Fatalf("PowersOfTwoBuckets(0) = %v", got)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	h.ObserveEx(5, 41)
	h.ObserveEx(7, 42)   // same bucket: last writer wins
	h.ObserveEx(50, 43)  // second bucket
	h.ObserveEx(500, 44) // +Inf bucket
	h.Observe(3)         // plain Observe leaves exemplars alone
	h.ObserveEx(60, 0)   // zero trace ID is "no exemplar", not an overwrite
	s := h.Snapshot()
	if want := []uint64{42, 43, 44}; !reflect.DeepEqual(s.Exemplars, want) {
		t.Fatalf("Exemplars = %v, want %v", s.Exemplars, want)
	}
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6 (ObserveEx counts like Observe)", s.Count)
	}
}

func TestHistogramCountAtOrBelow(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 10, 50, 200, 5000} {
		h.Observe(v)
	}
	for _, tc := range []struct {
		v    float64
		want uint64
	}{
		{10, 3},   // exact bucket edge includes the bucket
		{100, 4},  // 200 sits past the 100 bound
		{99, 3},   // mid-bucket resolves conservatively to whole buckets
		{1000, 5}, // 5000 is +Inf
		{5, 0},    // below the first bound: no whole bucket qualifies
	} {
		if got := h.CountAtOrBelow(tc.v); got != tc.want {
			t.Fatalf("CountAtOrBelow(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestPercentileOverHistograms: the rank is nearest-rank over the merged
// counts and reports the upper bound of the bucket that holds it; no
// observations report 0, a rank in +Inf the last finite bound, and the
// walk allocates nothing.
func TestPercentileOverHistograms(t *testing.T) {
	bounds := []float64{10, 100, 1000}
	a, b := NewHistogram(bounds), NewHistogram(bounds)
	if got := Percentile(50, a, b); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	if got := Percentile(99); got != 0 {
		t.Fatalf("p99 of no histograms = %v, want 0", got)
	}
	// 98 observations in the first bucket of a, one each in b's second
	// and third: rank 99 of 100 is the second bucket, rank 100 the third.
	for i := 0; i < 98; i++ {
		a.Observe(5)
	}
	b.Observe(50)
	b.Observe(500)
	for _, tc := range []struct{ p, want float64 }{{1, 10}, {50, 10}, {98, 10}, {99, 100}, {100, 1000}} {
		if got := Percentile(tc.p, a, b); got != tc.want {
			t.Fatalf("merged p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(99, a); got != 10 {
		t.Fatalf("p99 of a alone = %v, want 10", got)
	}
	// Two observations past the last bound put the p99 rank in +Inf.
	b.Observe(5000)
	b.Observe(6000)
	if got := Percentile(99, a, b); got != 1000 {
		t.Fatalf("p99 in +Inf = %v, want the last finite bound 1000", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { Percentile(99, a, b) }); allocs != 0 {
		t.Fatalf("Percentile allocated %v times per call", allocs)
	}
	if got := a.Sum(); got != 98*5 {
		t.Fatalf("Sum = %v, want %v", got, 98*5)
	}
}

// TestLatencyBucketsAreOctaves: the default latency layout is the 22
// powers of two from 2^12 ns to 2^33 ns.
func TestLatencyBucketsAreOctaves(t *testing.T) {
	got := LatencyBucketsNs()
	if len(got) != 22 || got[0] != 4096 || got[21] != 1<<33 {
		t.Fatalf("LatencyBucketsNs = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != 2*got[i-1] {
			t.Fatalf("bound %d = %v, want twice %v", i, got[i], got[i-1])
		}
	}
}
