package stats

import (
	"math"
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
