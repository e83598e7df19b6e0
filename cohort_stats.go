package rhythm

import (
	"rhythm/internal/adapt"
	"rhythm/internal/cluster"
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
// except requests and hostReqs, which the host route also writes (under
// cohortServer.execMu).
type typeCounters struct {
	cohorts, filled, timedOut, early uint64
	requests, hostReqs               uint64
	sumOccup                         uint64
	maxOccup                         int
	stages                           []perStage
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
	CacheBytes         uint64 `json:"cache_bytes"` // live bytes the entries hold

	// Flight-recorder counters (DESIGN.md §15).
	FlightRequests  uint64 `json:"flight_requests"`
	FlightAnomalies uint64 `json:"flight_anomalies"`

	// Adapt is the formation controller's state: pinned or adaptive, and
	// per type the rate, window, threshold, route and crossover.
	Adapt *adapt.Snapshot `json:"adapt,omitempty"`

	Types map[string]CohortTypeStats `json:"types"`
}

// latencyWindow is how many of the most recent samples each of the three
// latency windows (request, formation wait, launch) holds: 512 KB apiece,
// so the percentiles follow the traffic at a fixed cost.
const latencyWindow = 1 << 16

func (s *cohortServer) record(w *stats.LatencyWindow, v float64) {
	if v < 0 {
		v = 0
	}
	w.Record(v)
}

// Stats snapshots the live counters. Safe to call at any time; while
// the loop runs the snapshot is taken on the loop goroutine, holding
// execMu for the counters the host route shares, and only copies the two
// latency windows that need percentiles — the sorts run here, on the
// caller's.
func (s *cohortServer) Stats() CohortServerStats {
	// The copies land in buffers made and touched here: fresh pages are
	// mapped on first write, and with full windows a snapshot holds the
	// loop 0.5ms when that write is its copy, 0.05ms when it is this clear.
	bufs := make([]float64, 2*latencyWindow)
	clear(bufs)
	var st CohortServerStats
	var reqLat, formWait *stats.LatencyRecorder
	snap := func() { st, reqLat, formWait = s.snapshot(bufs[:latencyWindow], bufs[latencyWindow:]) }
	done := make(chan struct{})
	select {
	case s.doCh <- func() { snap(); close(done) }:
		select {
		case <-done:
		case <-s.doneCh:
			snap() // loop exited, its state is quiescent (a second read is harmless)
		}
	case <-s.doneCh:
		snap() // loop gone: safe to read from here
	}
	st.FormWaitMsP99 = formWait.Percentile(99) / 1e6
	st.LatencyMsP50 = reqLat.Percentile(50) / 1e6
	st.LatencyMsP99 = reqLat.Percentile(99) / 1e6
	return st
}

// snapshot reads the loop-owned state and, under execMu, the state the
// host route shares: every counter and mean, and a copy of the request
// and formation-wait windows (into reqBuf and formBuf) for the
// percentiles.
func (s *cohortServer) snapshot(reqBuf, formBuf []float64) (st CohortServerStats, reqLat, formWait *stats.LatencyRecorder) {
	ps := s.pool.Stats()
	// One pass over the fabric: per-node counters under the fabric
	// lock, then each node's cluster snapshot (an RPC for remote
	// workers, stale-cached when one is unreachable). The flattened
	// device view keeps the single-cluster stats sections meaningful
	// at any node count.
	fs := s.fab.Snapshot()
	cs := s.cacheStats()
	snap := s.ctrl.Snapshot()
	s.execMu.Lock()
	defer s.execMu.Unlock()
	st = CohortServerStats{
		SchemaVersion:      StatsSchemaVersion,
		Mode:               s.mode(),
		Workloads:          workloadNames(s.reg),
		Served:             s.served.Load(),
		KernelErrors:       s.kernelErrors,
		ParseErrors:        s.parseErrors.Load(),
		NotFound:           s.notFound.Load(),
		Images:             s.images.Load(),
		RejectedQueue:      s.rejectedQueue.Load(),
		RejectedPool:       s.rejectedPool,
		DeadlineMisses:     s.deadlineMisses.Load(),
		CohortsFormed:      ps.Formed,
		CohortsFilled:      ps.Filled,
		CohortsTimedOut:    ps.TimedOut,
		CohortsEarly:       ps.Early,
		HostFallbacks:      s.hostFallbacks,
		RequestsBatched:    ps.Requests,
		AdmissionStalls:    ps.Stalls,
		SumOccupancy:       ps.SumOccup,
		MeanOccupancy:      ps.MeanOccupancy(),
		MaxOccupancy:       s.maxOccup,
		MaxContexts:        ps.MaxInUse,
		FormWaitMsMean:     s.formWait.Mean() / 1e6,
		LaunchDevUsMean:    s.launchLat.Mean() / 1e3,
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
		FlightRequests:     s.flight.Total(),
		FlightAnomalies:    s.flight.Promoted(),
		Types:              make(map[string]CohortTypeStats),
	}
	for i, w := range s.reg.Workloads() {
		st.WorkloadSheds[w.Name()] = s.wlSheds[i].Load()
	}
	st.Adapt = &snap
	for t := range s.perType {
		tc := &s.perType[t]
		if tc.cohorts == 0 && tc.hostReqs == 0 {
			continue // a type appears once it has executed
		}
		ts := CohortTypeStats{
			Workload:     s.reg.Spec(service.TypeID(t)).Workload,
			Cohorts:      tc.cohorts,
			Filled:       tc.filled,
			TimedOut:     tc.timedOut,
			Early:        tc.early,
			Requests:     tc.requests,
			HostRequests: tc.hostReqs,
			MaxOccupancy: tc.maxOccup,
			Stages:       append([]perStage(nil), tc.stages...),
		}
		if tc.cohorts > 0 {
			ts.MeanOccupancy = float64(tc.sumOccup) / float64(tc.cohorts)
		}
		st.Types[s.names[t]] = ts
	}
	return st, s.reqLat.Recorder(reqBuf), s.formWait.Recorder(formBuf)
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
