package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rhythm"
	"rhythm/internal/banking"
)

// sim_offline: the researcher's path. rhythm.NewSimServer on Titan B
// with cohorts of 1024 in 4 contexts serves Table 2 mixed batches under
// virtual time; one operation is one Serve call.
const (
	simCohort  = 1024
	simContext = 4
	// simBatch requests per Serve call: one cohort's worth per context. A
	// call takes under 2 s, so a window holds enough calls for a median.
	simBatch = simContext * simCohort
)

func simOptions(seed int64) rhythm.Options {
	return rhythm.Options{Platform: rhythm.TitanB, CohortSize: simCohort, MaxCohorts: simContext, Seed: seed}
}

// mixedBatch generates n requests in the Table 2 proportions. It stands
// in for SimServer.GenerateMixed, whose batches are not error-free: the
// pipeline launches cohorts by type, so a page request can run after the
// logout that ended its session and render the error page. Here the
// logouts are generated first; the generator retires their sessions at
// once, so no other request of the batch (or a later one) refers to
// them, whatever order the cohorts run in. The batch is then shuffled.
func mixedBatch(srv *rhythm.SimServer, rng *rand.Rand, n int) ([][]byte, error) {
	order := []banking.ReqType{banking.Logout}
	var total float64
	for _, t := range banking.CoreTypes() {
		total += banking.Specs[t].MixPercent
		if t != banking.Logout {
			order = append(order, t)
		}
	}
	batch := make([][]byte, 0, n)
	for _, t := range order {
		count := int(banking.Specs[t].MixPercent / total * float64(n))
		reqs, err := srv.GenerateIsolated(t.String(), count)
		if err != nil {
			return nil, err
		}
		batch = append(batch, reqs...)
	}
	// Rounding down leaves a few requests short; top up with the commonest
	// session'd read.
	rest, err := srv.GenerateIsolated(banking.AccountSummary.String(), n-len(batch))
	if err != nil {
		return nil, err
	}
	batch = append(batch, rest...)
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch, nil
}

// simFailures counts what a Serve call got wrong: requests not
// completed, error-path requests, parse errors, failed validations.
func simFailures(st rhythm.Stats, sent int) int64 {
	return int64(sent) - int64(st.Completed) + int64(st.Errors+st.ParseErrors+st.ValidationFailures)
}

// gateSim serves a small batch on a fresh server with every response
// through the SPECWeb validator.
func gateSim(seed int64) (int64, error) {
	opts := simOptions(seed)
	opts.ValidateEvery = 1
	srv := rhythm.NewSimServer(opts)
	const n = 2 * simCohort
	reqs, err := mixedBatch(srv, rand.New(rand.NewSource(seed)), n)
	if err != nil {
		return 0, err
	}
	st := srv.Serve(reqs)
	if f := simFailures(st, n); f != 0 || st.Validated == 0 {
		return n, fmt.Errorf("%d of %d requests failed (completed %d, errors %d, parse errors %d, validated %d, validation failures %d)",
			f, n, st.Completed, st.Errors, st.ParseErrors, st.Validated, st.ValidationFailures)
	}
	return n, nil
}

// simInstance is a set-up server with the statistics of its fixed work:
// the first Serve on a fresh server.
type simInstance struct {
	srv   *rhythm.SimServer
	rng   *rand.Rand
	fixed rhythm.Stats
}

// simExact is the part of the fixed work's statistics that is a pure
// function of the seed. MeanLatency and P99Latency are left out: partial
// cohorts are flushed at end of stream in an order that varies from run
// to run, which moves single requests' latencies but not the totals.
type simExact struct {
	completed, errors, cohorts uint64
	throughput, occupancy      float64
	elapsed                    time.Duration
}

func exactOf(st rhythm.Stats) simExact {
	return simExact{st.Completed, st.Errors, st.CohortsFormed, st.Throughput, st.MeanOccupancy, st.Elapsed}
}

func setupSim(seed int64) (*simInstance, error) {
	srv := rhythm.NewSimServer(simOptions(seed))
	in := &simInstance{srv: srv, rng: rand.New(rand.NewSource(seed))}
	reqs, err := mixedBatch(srv, in.rng, simBatch)
	if err != nil {
		return nil, err
	}
	in.fixed = srv.Serve(reqs)
	if f := simFailures(in.fixed, simBatch); f != 0 {
		return nil, fmt.Errorf("fixed work: %d of %d requests failed", f, simBatch)
	}
	return in, nil
}

func runSim(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	gated, err := gateSim(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	o.attempted += gated

	in, setupS, err := medianSetup(
		func() (*simInstance, error) { return setupSim(cfg.seed) },
		// A server holds over a gigabyte of modelled device memory: collect
		// each one before the next is built.
		func(*simInstance) { runtime.GC() },
		exactly(func(in *simInstance) simExact { return exactOf(in.fixed) }))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.m["setup_s"] = setupS

	// Each Serve call is one sample and one slice: the rate is the median
	// of the per-call rates, the latency the median call.
	rtBefore := readRuntime()
	var (
		rates, calls []float64
		last         rhythm.Stats
		served       int64
		busy         time.Duration
	)
	for busy.Seconds() < cfg.seconds {
		reqs, err := mixedBatch(in.srv, in.rng, simBatch)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		last = in.srv.Serve(reqs)
		d := time.Since(start)
		busy += d
		served += simBatch
		o.failed += simFailures(last, simBatch)
		rates = append(rates, simBatch/d.Seconds())
		calls = append(calls, d.Seconds()*1e3)
	}
	rtAfter := readRuntime()
	o.attempted += served
	if !cfg.trace {
		o.m["heap_mb"] = heapMB()
	}
	// A server slows down as its state grows, so only the first numSlices
	// calls are reported: a faster simulator fits more calls into the
	// window, and they must not drag its own median down.
	rates, calls = rates[:min(numSlices, len(rates))], calls[:min(numSlices, len(calls))]
	o.m["req_per_s"] = median(rates)
	o.m["latency_p50_ms"] = median(calls)
	o.m["bench.slice_spread"] = spread(rates)
	o.slices = rates
	o.m["virtual_req_per_s"] = in.fixed.Throughput
	o.errorShare()
	if !cfg.trace {
		return o, nil
	}
	o.runtimeMetrics(rtBefore, rtAfter, served)
	o.m["pipeline.host_ns_per_req"] = busy.Seconds() * 1e9 / float64(served)
	o.m["pipeline.mean_occupancy"] = in.fixed.MeanOccupancy
	o.m["pipeline.device_utilization"] = in.fixed.DeviceUtilization
	o.m["pipeline.virtual_latency_p99_ms"] = float64(in.fixed.P99Latency) / 1e6
	o.m["pipeline.validation_failures"] = float64(in.fixed.ValidationFailures + last.ValidationFailures)
	// One span per Serve call is all an outside caller can see of the
	// pipeline; bench.trace_overhead_share stays 0 (timing a call that
	// takes a second costs nothing measurable).
	spans := &spanBuf{track: 0}
	var at int64
	for i, ms := range calls {
		spans.add(lyRequest, -1, uint32(i+1), at, at+int64(ms*1e6))
		at += int64(ms * 1e6)
	}
	return o, writeChromeTrace(cfg.tracePath("sim_offline"), []*spanBuf{spans})
}
