package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWeightedHarmonicMeanUniform(t *testing.T) {
	v := []float64{10, 10, 10}
	w := []float64{1, 2, 3}
	if got := WeightedHarmonicMean(v, w); !almost(got, 10, 1e-12) {
		t.Fatalf("WHM of constant values = %v, want 10", got)
	}
}

func TestWeightedHarmonicMeanKnown(t *testing.T) {
	// 50% at 100, 50% at 50 → 2/(1/100+1/50)·... = 66.67
	v := []float64{100, 50}
	w := []float64{0.5, 0.5}
	want := 1.0 / (0.5/100 + 0.5/50)
	if got := WeightedHarmonicMean(v, w); !almost(got, want, 1e-9) {
		t.Fatalf("WHM = %v, want %v", got, want)
	}
}

func TestWeightedHarmonicMeanZeroWeightIgnored(t *testing.T) {
	v := []float64{100, 1}
	w := []float64{1, 0}
	if got := WeightedHarmonicMean(v, w); !almost(got, 100, 1e-9) {
		t.Fatalf("WHM = %v, want 100", got)
	}
}

func TestWeightedHarmonicMeanZeroValue(t *testing.T) {
	if got := WeightedHarmonicMean([]float64{0, 10}, []float64{1, 1}); got != 0 {
		t.Fatalf("WHM with zero value = %v, want 0", got)
	}
}

func TestWeightedHarmonicMeanEmpty(t *testing.T) {
	if got := WeightedHarmonicMean(nil, nil); got != 0 {
		t.Fatalf("WHM(empty) = %v, want 0", got)
	}
}

func TestWeightedHarmonicMeanMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	WeightedHarmonicMean([]float64{1}, []float64{1, 2})
}

func TestWeightedHarmonicMeanBelowArithmetic(t *testing.T) {
	// Property: for positive values, WHM <= WAM.
	f := func(a, b, c uint8) bool {
		v := []float64{float64(a%50) + 1, float64(b%50) + 1, float64(c%50) + 1}
		w := []float64{1, 2, 3}
		return WeightedHarmonicMean(v, w) <= WeightedArithmeticMean(v, w)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedArithmeticMean(t *testing.T) {
	v := []float64{10, 20}
	w := []float64{3, 1}
	if got := WeightedArithmeticMean(v, w); !almost(got, 12.5, 1e-12) {
		t.Fatalf("WAM = %v, want 12.5", got)
	}
	if got := WeightedArithmeticMean(nil, nil); got != 0 {
		t.Fatalf("WAM(empty) = %v, want 0", got)
	}
}

func TestLatencyRecorderMean(t *testing.T) {
	r := NewLatencyRecorder()
	for _, v := range []float64{1, 2, 3, 4} {
		r.Record(v)
	}
	if got := r.Mean(); !almost(got, 2.5, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if len(r.samples) != 4 {
		t.Fatalf("Count = %d", len(r.samples))
	}
}

func TestLatencyRecorderPercentiles(t *testing.T) {
	r := NewLatencyRecorder()
	for i := 1; i <= 100; i++ {
		r.Record(float64(i))
	}
	if got := r.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := r.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.Max(); got != 100 {
		t.Fatalf("Max = %v", got)
	}
}

func TestLatencyRecorderRecordAfterPercentile(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(5)
	_ = r.Percentile(50)
	r.Record(1) // must re-sort
	if got := r.Percentile(50); got != 1 {
		t.Fatalf("p50 after append = %v, want 1", got)
	}
}

// TestLatencyWindowFollowsTraffic: the window holds the most recent
// samples only, so after a step in the stream the percentiles report the
// late value instead of freezing on the early one.
func TestLatencyWindowFollowsTraffic(t *testing.T) {
	const size = 1 << 16
	w := NewLatencyWindow(size)
	if r := w.Recorder(nil); len(r.samples) != 0 || w.Mean() != 0 {
		t.Fatalf("empty window holds %d samples, mean %v", len(r.samples), w.Mean())
	}
	w.Record(7)
	if r := w.Recorder(nil); len(r.samples) != 1 || w.Mean() != 7 || r.Mean() != 7 || r.Percentile(50) != 7 {
		t.Fatalf("one sample: count=%d mean=%v/%v p50=%v", len(r.samples), w.Mean(), r.Mean(), r.Percentile(50))
	}
	for i := 0; i < 200000; i++ {
		v := 100.0
		if i >= 100000 {
			v = 900
		}
		w.Record(v)
	}
	r := w.Recorder(nil)
	if len(r.samples) != size {
		t.Fatalf("full window holds %d samples, want %d", len(r.samples), size)
	}
	if r.Percentile(1) != 900 || r.Percentile(50) != 900 || r.Mean() != 900 || w.Mean() != 900 {
		t.Fatalf("after the step p1=%v p50=%v mean=%v/%v, want the late value 900 throughout",
			r.Percentile(1), r.Percentile(50), r.Mean(), w.Mean())
	}
	// The copy is the reader's: sorting it did not disturb the ring.
	for i := 0; i < size/50; i++ {
		w.Record(5)
	}
	if r := w.Recorder(nil); r.Percentile(1) != 5 || r.Percentile(3) != 900 || len(r.samples) != size {
		t.Fatalf("after 2%% more samples p1=%v p3=%v count=%d, want 5, 900 and %d",
			r.Percentile(1), r.Percentile(3), len(r.samples), size)
	}
}

// eagerRing is the window as it was before it grew on demand: the whole
// ring made up front. TestLatencyWindowLazyMatchesEager holds the lazy
// window to it.
type eagerRing struct {
	ring []float64
	next int
	sum  float64
}

func (e *eagerRing) record(ns float64) {
	e.sum += ns
	if len(e.ring) < cap(e.ring) {
		e.ring = append(e.ring, ns)
		return
	}
	e.sum -= e.ring[e.next]
	e.ring[e.next] = ns
	e.next = (e.next + 1) % len(e.ring)
}

// TestLatencyWindowLazyMatchesEager: a window holds no backing until its
// first sample, never more than its size, and across the growth steps
// and a wrap its held samples, mean and percentiles equal an eager
// ring's sample for sample.
func TestLatencyWindowLazyMatchesEager(t *testing.T) {
	const size = 1000 // not a power of two: the last growth step is capped
	w := NewLatencyWindow(size)
	if w.ring != nil {
		t.Fatalf("an empty window holds a %d-sample backing", cap(w.ring))
	}
	e := &eagerRing{ring: make([]float64, 0, size)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*size+17; i++ {
		v := float64(rng.Intn(1_000_000))
		w.Record(v)
		e.record(v)
		if cap(w.ring) > size {
			t.Fatalf("after %d samples the ring holds %d slots, past its size %d", i+1, cap(w.ring), size)
		}
		if i%97 != 0 && i < 3*size+16 {
			continue
		}
		if !slices.Equal(w.ring, e.ring) || w.next != e.next || w.Mean() != e.sum/float64(len(e.ring)) {
			t.Fatalf("after %d samples the lazy window differs from the eager ring", i+1)
		}
		got, want := w.Recorder(nil), &LatencyRecorder{samples: append([]float64(nil), e.ring...), sum: e.sum}
		for _, p := range []float64{1, 50, 90, 99, 100} {
			if got.Percentile(p) != want.Percentile(p) {
				t.Fatalf("after %d samples p%v = %v, eager %v", i+1, p, got.Percentile(p), want.Percentile(p))
			}
		}
		if got.Mean() != want.Mean() {
			t.Fatalf("after %d samples recorder mean %v, eager %v", i+1, got.Mean(), want.Mean())
		}
	}
}

func TestLatencyRecorderEmpty(t *testing.T) {
	r := NewLatencyRecorder()
	if r.Mean() != 0 || r.Percentile(99) != 0 || r.Max() != 0 {
		t.Fatal("empty recorder should report zeros")
	}
}

func TestLatencyRecorderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative latency did not panic")
		}
	}()
	NewLatencyRecorder().Record(-1)
}

func TestLatencyRecorderBadPercentilePanics(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(1)
	defer func() {
		if recover() == nil {
			t.Error("percentile 0 did not panic")
		}
	}()
	r.Percentile(0)
}

func TestPercentileProperty(t *testing.T) {
	// Property: percentile is monotone in p and bounded by [min, max].
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewLatencyRecorder()
		for _, v := range raw {
			r.Record(float64(v))
		}
		p50, p90, p99 := r.Percentile(50), r.Percentile(90), r.Percentile(99)
		return p50 <= p90 && p90 <= p99 && p99 <= r.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
