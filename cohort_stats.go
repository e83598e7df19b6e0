package rhythm

import (
	"sync/atomic"

	"rhythm/internal/adapt"
	"rhythm/internal/cluster"
	"rhythm/internal/cohort"
	"rhythm/internal/fabric"
	"rhythm/internal/obs"
	"rhythm/internal/service"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// perStage accumulates one pipeline stage's launch count and device time
// for a request type.
type perStage struct {
	Launches uint64  `json:"launches"`
	DeviceUs float64 `json:"device_us_total"`
}

// typeCounters is one request type's execution counters: loop-owned,
// except hostReqs, which the host route's handlers count. cohortReqs
// and hostReqs are the type's requests on each route.
type typeCounters struct {
	cohorts    uint64
	launches   [cohort.Early + 1]uint64 // by launch reason
	cohortReqs uint64
	hostReqs   atomic.Uint64
	sumOccup   uint64
	maxOccup   int
	stages     []perStage
}

// CohortTypeStats is the per-request-type section of CohortServerStats.
type CohortTypeStats struct {
	Workload string `json:"workload"`
	Cohorts  uint64 `json:"cohorts"`
	Filled   uint64 `json:"filled"`
	TimedOut uint64 `json:"timed_out"`
	Early    uint64 `json:"early"`
	// Requests counts the type's executed requests on both routes;
	// HostRequests is the part answered on the host route.
	Requests      uint64     `json:"requests"`
	HostRequests  uint64     `json:"host_requests"`
	MeanOccupancy float64    `json:"mean_occupancy"`
	MaxOccupancy  int        `json:"max_occupancy"`
	Stages        []perStage `json:"stages"`
}

// CohortServerStats is the server's /v1/stats document (cmd/rhythm-load
// decodes it to report server-side batching).
type CohortServerStats struct {
	SchemaVersion int `json:"schema_version"`
	// Mode is "host" for a server pinned to the host route
	// (WithHostExecution), else "cohort".
	Mode string `json:"mode"`
	// Workloads lists the registered workload names in registration
	// order; Types keys are workload-qualified display labels
	// ("banking/login").
	Workloads       []string `json:"workloads"`
	Served          uint64   `json:"served"`
	KernelErrors    uint64   `json:"kernel_errors"`
	ParseErrors     uint64   `json:"parse_errors"`
	NotFound        uint64   `json:"not_found"`
	Images          uint64   `json:"images"`
	RejectedQueue   uint64   `json:"rejected_queue"`
	RejectedPool    uint64   `json:"rejected_pool"`
	DeadlineMisses  uint64   `json:"deadline_misses"`
	CohortsFormed   uint64   `json:"cohorts_formed"`
	CohortsFilled   uint64   `json:"cohorts_filled"`
	CohortsTimedOut uint64   `json:"cohorts_timed_out"`
	CohortsEarly    uint64   `json:"cohorts_early"`
	HostFallbacks   uint64   `json:"host_fallbacks"`
	RequestsBatched uint64   `json:"requests_batched"`
	AdmissionStalls uint64   `json:"admission_stalls"`
	SumOccupancy    uint64   `json:"sum_occupancy"`
	MeanOccupancy   float64  `json:"mean_occupancy"`
	MaxOccupancy    int      `json:"max_occupancy"`
	MaxContexts     int      `json:"max_contexts_in_use"`
	FormWaitMsMean  float64  `json:"formation_wait_ms_mean"`
	FormWaitMsP99   float64  `json:"formation_wait_ms_p99"`
	LaunchDevUsMean float64  `json:"launch_device_us_mean"`
	LatencyMsP50    float64  `json:"latency_ms_p50"`
	LatencyMsP99    float64  `json:"latency_ms_p99"`

	// Device is the pool's aggregate device counter set; Devices breaks
	// it down per device. Both come from a single atomic pass over the
	// cluster (one mutex hold), so a scrape during drain or failover
	// never observes torn counts across the per-device fields.
	Device simt.DeviceStats `json:"device"`
	// ProfiledLaunches is how many launches the kernel profilers have
	// recorded across the pool (0 when profiling is off).
	ProfiledLaunches uint64 `json:"profiled_launches"`

	// Devices is the per-device breakdown: health, queue depth,
	// outstanding cohorts, owned shard groups, virtual time, stats.
	Devices []cluster.DeviceSnapshot `json:"devices"`
	// Failovers counts shard groups reassigned off a dead device;
	// DeviceRetries counts kernel-launch retry attempts; ShedCohorts
	// counts cohorts refused by the pool (full device queue or no
	// healthy device) and answered with 503s.
	Failovers     uint64 `json:"failovers"`
	DeviceRetries uint64 `json:"device_retries"`
	ShedCohorts   uint64 `json:"shed_cohorts"`

	// Fabric topology: transport kind, per-node rows, and node-level
	// failover/link counters.
	Transport     string                `json:"transport,omitempty"`
	Nodes         []fabric.NodeSnapshot `json:"nodes,omitempty"`
	NodeFailovers uint64                `json:"node_failovers,omitempty"`
	NodeRetries   uint64                `json:"node_retries,omitempty"`
	LinkSheds     uint64                `json:"link_sheds,omitempty"`
	LostUnits     uint64                `json:"lost_units,omitempty"`
	// WorkloadSheds counts 503-shed requests per workload name: quota,
	// queue, pool, link, and node-loss sheds all count.
	WorkloadSheds map[string]uint64 `json:"workload_sheds,omitempty"`

	// Render-cache counters (zero when the cache is disabled).
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       uint64 `json:"cache_entries"`
	CacheBytes         uint64 `json:"cache_bytes"`       // the entries' runs plus the reference pages
	CacheBytesBound    uint64 `json:"cache_bytes_bound"` // the most cache_bytes can reach

	// Flight-recorder counters (DESIGN.md §15).
	FlightRequests  uint64 `json:"flight_requests"`
	FlightAnomalies uint64 `json:"flight_anomalies"`

	// The most bytes the request-trace ring (/v1/trace) and the flight
	// anomaly ring (/v1/debug/flight) hold: slots × the largest record.
	TraceBytesBound  uint64 `json:"trace_bytes_bound"`
	FlightBytesBound uint64 `json:"flight_bytes_bound"`

	// Adapt is the formation controller's state: pinned or adaptive, and
	// per type the rate, window, threshold, route and crossover.
	Adapt *adapt.Snapshot `json:"adapt,omitempty"`

	Types map[string]CohortTypeStats `json:"types"`
}

// Stats snapshots the live counters. Safe to call at any time; while
// the loop runs the loop-owned counters are read on the loop goroutine,
// which copies nothing large. The means and percentiles are cumulative:
// they rank over the atomic histograms /v1/metrics exports, on the
// caller's goroutine.
func (s *cohortServer) Stats() CohortServerStats {
	var st CohortServerStats
	done := make(chan struct{})
	select {
	case s.doCh <- func() { st = s.snapshot(); close(done) }:
		select {
		case <-done:
		case <-s.doneCh:
			st = s.snapshot() // loop exited, its state is quiescent (a second read is harmless)
		}
	case <-s.doneCh:
		st = s.snapshot() // loop gone: safe to read from here
	}
	if n := s.formHist.Count(); n > 0 {
		st.FormWaitMsMean = s.formHist.Sum() / float64(n) / 1e6
	}
	st.FormWaitMsP99 = stats.Percentile(99, s.formHist) / 1e6
	st.LatencyMsP50 = stats.Percentile(50, s.latHist...) / 1e6
	st.LatencyMsP99 = stats.Percentile(99, s.latHist...) / 1e6
	return st
}

// snapshot reads the loop-owned state and the counters both routes
// write. host_fallbacks, each type's requests and max_occupancy are
// derived here from one load of each type's host count, so they agree
// within the document.
func (s *cohortServer) snapshot() CohortServerStats {
	ps := s.pool.Stats()
	// One pass over the fabric: per-node counters under the fabric
	// lock, then each node's cluster snapshot (an RPC for remote
	// workers, stale-cached when one is unreachable). The flattened
	// device view keeps the single-cluster stats sections meaningful
	// at any node count.
	fs := s.fab.Snapshot()
	cs := s.cacheStats()
	snap := s.ctrl.Snapshot()
	st := CohortServerStats{
		SchemaVersion:      StatsSchemaVersion,
		Mode:               s.mode(),
		Workloads:          workloadNames(s.reg),
		Served:             s.served.Load(),
		KernelErrors:       s.kernelErrors.Load(),
		ParseErrors:        s.parseErrors.Load(),
		NotFound:           s.notFound.Load(),
		Images:             s.images.Load(),
		RejectedQueue:      s.rejectedQueue.Load(),
		RejectedPool:       s.rejectedPool.Load(),
		DeadlineMisses:     s.deadlineMisses.Load(),
		CohortsFormed:      ps.Formed,
		CohortsFilled:      ps.Filled,
		CohortsTimedOut:    ps.TimedOut,
		CohortsEarly:       ps.Early,
		RequestsBatched:    ps.Requests,
		AdmissionStalls:    ps.Stalls,
		SumOccupancy:       ps.SumOccup,
		MeanOccupancy:      ps.MeanOccupancy(),
		MaxContexts:        ps.MaxInUse,
		Device:             fs.Aggregate,
		ProfiledLaunches:   fs.ProfiledLaunches,
		Devices:            fs.Devices,
		Failovers:          fs.Failovers,
		DeviceRetries:      fs.Retries,
		ShedCohorts:        s.shedCohorts,
		Transport:          fs.Transport,
		Nodes:              fs.Nodes,
		NodeFailovers:      fs.NodeFailovers,
		NodeRetries:        fs.NodeRetries,
		LinkSheds:          fs.LinkSheds,
		LostUnits:          fs.LostUnits,
		WorkloadSheds:      make(map[string]uint64, len(s.wlSheds)),
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		CacheInvalidations: cs.Invalidations,
		CacheEntries:       cs.Entries,
		CacheBytes:         cs.Bytes,
		CacheBytesBound:    s.cacheBytesBound,
		FlightRequests:     s.flight.Total(),
		FlightAnomalies:    s.flight.Promoted(),
		TraceBytesBound:    s.tracer.BytesBound(),
		FlightBytesBound:   s.flight.BytesBound(),
		Types:              make(map[string]CohortTypeStats),
	}
	if s.launchesDone > 0 {
		st.LaunchDevUsMean = s.launchDevNs / float64(s.launchesDone) / 1e3
	}
	for i, w := range s.reg.Workloads() {
		st.WorkloadSheds[w.Name()] = s.wlSheds[i].Load()
	}
	st.Adapt = &snap
	for t := range s.perType {
		tc := &s.perType[t]
		hostReqs := tc.hostReqs.Load()
		if tc.cohorts == 0 && hostReqs == 0 {
			continue // a type appears once it has executed
		}
		st.HostFallbacks += hostReqs
		st.MaxOccupancy = max(st.MaxOccupancy, tc.maxOccup)
		ts := CohortTypeStats{
			Workload:     s.reg.Spec(service.TypeID(t)).Workload,
			Cohorts:      tc.cohorts,
			Filled:       tc.launches[cohort.Filled],
			TimedOut:     tc.launches[cohort.TimedOut],
			Early:        tc.launches[cohort.Early],
			Requests:     tc.cohortReqs + hostReqs,
			HostRequests: hostReqs,
			MaxOccupancy: tc.maxOccup,
			Stages:       append([]perStage(nil), tc.stages...),
		}
		if tc.cohorts > 0 {
			ts.MeanOccupancy = float64(tc.sumOccup) / float64(tc.cohorts)
		}
		st.Types[s.names[t]] = ts
	}
	return st
}

// writeMetrics emits the server's own families. Loop-owned counters come
// through the Stats() snapshot (taken on the loop goroutine); histograms
// are atomic and read directly.
func (s *cohortServer) writeMetrics(w *obs.PromWriter) {
	st := s.Stats()
	w.Family("rhythm_requests_total", "counter", "Requests executed, in a cohort or on the host route, by workload and type.")
	for t, name := range s.names {
		if ts, ok := st.Types[name]; ok {
			w.Value("rhythm_requests_total", s.labels[t], float64(ts.Requests))
		}
	}
	w.Family("rhythm_cohorts_total", "counter", "Cohorts launched, by workload, type, and formation result.")
	for t, name := range s.names {
		if ts, ok := st.Types[name]; ok {
			w.Value("rhythm_cohorts_total", s.labels[t]+`,result="filled"`, float64(ts.Filled))
			w.Value("rhythm_cohorts_total", s.labels[t]+`,result="timeout"`, float64(ts.TimedOut))
			w.Value("rhythm_cohorts_total", s.labels[t]+`,result="early"`, float64(ts.Early))
		}
	}
	w.Family("rhythm_requests_batched_total", "counter", "Requests that rode a cohort launch.")
	w.Value("rhythm_requests_batched_total", "", float64(st.RequestsBatched))
	w.Family("rhythm_http_errors_total", "counter", "Error responses by status code (503 = shed, 504 = deadline miss).")
	w.Value("rhythm_http_errors_total", obs.Label("code", "400"), float64(st.ParseErrors))
	w.Value("rhythm_http_errors_total", obs.Label("code", "404"), float64(st.NotFound))
	w.Value("rhythm_http_errors_total", obs.Label("code", "503"), float64(st.RejectedQueue+st.RejectedPool))
	w.Value("rhythm_http_errors_total", obs.Label("code", "504"), float64(st.DeadlineMisses))
	w.Family("rhythm_images_total", "counter", "Static image responses.")
	w.Value("rhythm_images_total", "", float64(st.Images))
	w.Family("rhythm_kernel_errors_total", "counter", "Requests whose kernel execution reported an error.")
	w.Value("rhythm_kernel_errors_total", "", float64(st.KernelErrors))
	w.Family("rhythm_formation_wait_seconds", "histogram", "Admission-to-launch wait (the Fig. 4 formation delay).")
	w.Histogram("rhythm_formation_wait_seconds", "", s.formHist.Snapshot(), 1e-9)
	w.Family("rhythm_cohort_occupancy", "histogram", "Requests per launched cohort.")
	w.Histogram("rhythm_cohort_occupancy", "", s.occupHist.Snapshot(), 1)
	writeDeviceFamilies(w, st.Device, st.ProfiledLaunches)
	writeClusterFamilies(w, st)
	writeFabricFamilies(w, st)
	writeAdaptFamilies(w, st)
}
