package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// outcome is what one invocation reports for one workload: the counts
// the driver's result line carries and every metric measured, by
// catalogue name. A metric a workload does not exercise stays 0.
type outcome struct {
	attempted int64
	failed    int64
	correct   bool
	m         map[string]float64
	slices    []float64 // the window's per-slice rates, for the printed report
}

func newOutcome() *outcome { return &outcome{correct: true, m: make(map[string]float64)} }

// setupRuns is how many times a run sets its workload up. setup_s is
// the median; the last instance is the one measured.
const setupRuns = 3

// medianSetup builds an instance setupRuns times, closing all but the
// last, and returns the last with the median build time in seconds.
// between, when set, sees each instance before it is closed or returned
// (the fixed-work determinism check).
func medianSetup[T any](build func() (T, error), closeFn func(T), between func(T) error) (T, float64, error) {
	var last, zero T
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			closeFn(last)
			last = zero // unreachable before its successor is built
		}
		start := time.Now()
		inst, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = inst
		if between != nil {
			if err := between(inst); err != nil {
				closeFn(inst)
				return zero, 0, err
			}
		}
	}
	return last, median(times), nil
}

// rtSnap is a reading of the Go runtime's cumulative counters.
type rtSnap struct {
	mallocs  uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	snap := rtSnap{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = s[1].Value.Float64()
	}
	return snap
}

// runtimeMetrics fills runtime.* from two readings around ops
// operations.
func (o *outcome) runtimeMetrics(before, after rtSnap, ops int64) {
	if ops > 0 {
		o.m["runtime.allocs_per_req"] = float64(after.mallocs-before.mallocs) / float64(ops)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		o.m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// heapMB forces a collection and reports the live heap. It collects
// twice: sync.Pool contents and finalizer-guarded objects survive one
// cycle, which would make the reading depend on when the last background
// cycle ran. It reads HeapAlloc, the bytes of live objects, not
// HeapInuse: spans kept partly in use by a few survivors of an earlier
// workload in the same process (-sets, or no -workload) would count in
// full there, and did (host_mixed read 12.7 MB in a fresh process and
// 22.8 MB after the other six workloads).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// exactly returns a medianSetup check that fails unless of(instance) is
// the same value for every instance: the fixed work's simulated
// statistics must repeat bit for bit.
func exactly[T any, F comparable](of func(T) F) func(T) error {
	var first *F
	return func(inst T) error {
		got := of(inst)
		if first == nil {
			first = &got
		} else if *first != got {
			return fmt.Errorf("fixed work is not deterministic: %+v then %+v", *first, got)
		}
		return nil
	}
}

// windowMetrics fills the end-to-end latency and rate metrics and the
// window's validity diagnostics.
func (o *outcome) windowMetrics(w window) {
	o.m["req_per_s"] = w.ratePerS
	o.m["latency_p50_ms"] = w.p50Ms
	o.m["latency_p99_ms"] = w.p99Ms
	o.m["bench.slice_spread"] = spread(w.sliceRates)
	o.slices = w.sliceRates
}

// errorShare folds the failure count into the outcome.
func (o *outcome) errorShare() {
	if o.failed > o.attempted {
		o.failed = o.attempted
	}
	if o.attempted > 0 {
		o.m["error_share"] = float64(o.failed) / float64(o.attempted)
	}
	if o.failed > 0 {
		o.correct = false
	}
}
