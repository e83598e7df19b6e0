package rhythm

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"rhythm/internal/adapt"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
	"rhythm/internal/workloads"
)

// StatsSchemaVersion is the "schema_version" the stats document and
// /v1/health carry. Version 6: every per-type stats key, Prometheus
// `type` label and flight-record type is workload-qualified
// ("banking/login" — banking's were bare through version 5), each
// document has exactly one path, and /v1/stats takes no parameters.
// Version 7: cohort-mode types[*].requests counts both routes
// (host_requests is the host-routed part), the adapt section is always
// present and gains pinned, crossover_req_s and the route-flip counts.
// Version 8: both stats documents gain cache_bytes, the live bytes the
// render-cache entries hold. Version 9: one document for every server —
// a server pinned to the host route (WithHostExecution) serves it with
// mode "host" instead of the host-mode document — and adapt gains
// host_pinned.
// Any change of shape or meaning, additive included, bumps it.
const StatsSchemaVersion = 9

// DefaultRegistry builds the process-default workload registry: banking,
// then e-commerce, then streaming telemetry. Servers built without an
// explicit registry use this one.
func DefaultRegistry() *service.Registry { return workloads.Default() }

// The control-plane paths, one per document (DESIGN.md §12).
const (
	StatsPathV1 = "/v1/stats"
	// MetricsPathV1 is the Prometheus text-format endpoint (DESIGN.md §10).
	MetricsPathV1 = "/v1/metrics"
	// TracePathV1 is the Chrome trace-event capture endpoint. A bare GET
	// returns the buffered request traces; ?secs=N (1-60) records for N
	// seconds and returns only that window. The document loads directly
	// in Perfetto / chrome://tracing.
	TracePathV1 = "/v1/trace"
	// FlightPathV1 exports the flight recorder's anomaly ring
	// (DESIGN.md §15): JSON by default, ?format=chrome for a
	// Perfetto-loadable trace of the anomalies, ?n=K for the last K.
	FlightPathV1 = "/v1/debug/flight"
	// HealthPathV1 reports the SLO burn-rate health verdict.
	HealthPathV1 = "/v1/health"
	// TopologyPathV1 reports the device fabric's node-level view:
	// transport kind, per-node health and routed groups, dispatch
	// counters, link budgets and saturation sheds (DESIGN.md §17).
	// Cohort mode only.
	TopologyPathV1 = "/v1/topology"
)

// maxTraceCaptureSecs bounds the blocking capture window.
const maxTraceCaptureSecs = 60

// defaultHealthSLO classifies "good" requests for /v1/health when the
// server runs without an explicit SLO target.
const defaultHealthSLO = 250 * time.Millisecond

// tooManyCapturesResponse answers a ?secs=N capture that raced another
// in-flight capture window: 429, keep-alive, so the client can retry
// once the running capture drains (DESIGN.md §15).
func tooManyCapturesResponse() []byte {
	body := "429 a capture window is already running\n"
	return []byte("HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/plain\r\nRetry-After: 1\r\nConnection: keep-alive\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
}

// spliceTraceHeader rebuilds resp with an "X-Rhythm-Trace: <id>" header
// inserted after the status line, assembling into buf (reused across a
// connection's requests, so the steady state allocates nothing). The
// header is added at write time, never into rendered or cached bytes,
// keeping the host and cohort response bodies byte-identical.
func spliceTraceHeader(buf, resp []byte, id uint64) []byte {
	i := bytes.IndexByte(resp, '\n')
	if i < 0 {
		return append(buf[:0], resp...)
	}
	buf = append(buf[:0], resp[:i+1]...)
	buf = append(buf, "X-Rhythm-Trace: "...)
	buf = strconv.AppendUint(buf, id, 10)
	buf = append(buf, '\r', '\n')
	return append(buf, resp[i+1:]...)
}

// flightResponse renders the /v1/debug/flight document. The endpoint is
// snapshot-only — it never blocks or resets the ring, so concurrent
// reads need no capture guard.
func flightResponse(req *httpx.Request, rec *flight.Recorder) []byte {
	n := 0
	if v := req.Param("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			return errorResponse(400, "Bad Request")
		}
		n = parsed
	}
	snap := rec.Snapshot(n)
	switch req.Param("format") {
	case "", "json":
		return bodyResponse("application/json", snap.JSON())
	case "chrome":
		return bodyResponse("application/json", snap.Chrome())
	}
	return errorResponse(400, "Bad Request")
}

// healthExemplar is one anomaly pointer in the /v1/health document —
// enough to jump straight to the flight record.
type healthExemplar struct {
	TraceID   uint64  `json:"trace_id"`
	Type      string  `json:"type"`
	Reason    string  `json:"reason"`
	LatencyUs float64 `json:"latency_us"`
	Device    int     `json:"device"`
}

// healthDocument is the /v1/health payload: the burn-rate report plus
// the most recent flight anomalies as jump-off exemplars.
type healthDocument struct {
	health.Report
	SchemaVersion   int              `json:"schema_version"`
	FlightAnomalies uint64           `json:"flight_anomalies"`
	Exemplars       []healthExemplar `json:"exemplars"`
}

// healthResponse evaluates the burn-rate engine and joins in the top
// flight exemplars (newest first).
func healthResponse(eng *health.Engine, rec *flight.Recorder) []byte {
	doc := healthDocument{
		Report:        eng.Evaluate(),
		SchemaVersion: StatsSchemaVersion,
	}
	snap := rec.Snapshot(5)
	doc.FlightAnomalies = snap.Promoted
	doc.Exemplars = make([]healthExemplar, 0, len(snap.Records))
	for i := len(snap.Records) - 1; i >= 0; i-- {
		r := snap.Records[i]
		doc.Exemplars = append(doc.Exemplars, healthExemplar{
			TraceID:   r.TraceID,
			Type:      r.Type,
			Reason:    r.Reason.String(),
			LatencyUs: float64(r.Latency) / 1e3,
			Device:    r.Device,
		})
	}
	return jsonResponse(doc)
}

// sloCounts builds the health engine's cumulative per-type good/total
// counts: good = latency observations at or under the SLO (whole-bucket
// resolution, conservative), total = all observations plus the bad
// events that never reach the latency histograms (sheds, deadline
// misses, kernel errors).
func sloCounts(names []string, hists []*stats.Histogram, sloNs float64, extraBad []atomic.Uint64) map[string]health.Counts {
	out := make(map[string]health.Counts, len(hists))
	for i, h := range hists {
		c := health.Counts{Good: h.CountAtOrBelow(sloNs), Total: h.Count() + extraBad[i].Load()}
		if c.Total > 0 {
			out[names[i]] = c
		}
	}
	return out
}

// bodyResponse wraps a prebuilt body in a 200 keep-alive response.
func bodyResponse(contentType string, body []byte) []byte {
	buf := make([]byte, len(body)+256)
	w := httpx.NewResponseWriter(buf)
	w.StartOK(contentType, "")
	w.Write(body)
	return w.Finish()
}

// jsonResponse renders v as a keep-alive application/json response.
func jsonResponse(v any) []byte {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return errorResponse(500, "Internal Server Error")
	}
	return bodyResponse("application/json", append(body, '\n'))
}

// promContentType is the Prometheus text exposition format version both
// endpoints speak.
const promContentType = "text/plain; version=0.0.4"

// captureSecs parses the optional ?secs=N capture parameter. secs 0
// means "no window — dump the buffered traces"; ok=false means a
// malformed or out-of-range value (the caller answers 400).
func captureSecs(req *httpx.Request) (secs int, ok bool) {
	v := req.Param("secs")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > maxTraceCaptureSecs {
		return 0, false
	}
	return n, true
}

// stageArgs is the launch-record linkage a stage span carries: enough to
// find the kernel in the device profile (launch_seq) and to explain its
// cost without leaving the trace viewer.
func stageArgs(st simt.LaunchStats) map[string]any {
	return map[string]any{
		"kernel":             st.Kernel,
		"launch_seq":         st.Seq,
		"cohort":             st.Threads,
		"device_us":          float64(st.Duration) / 1e3,
		"issue_cycles":       st.IssueCycles,
		"divergent_execs":    st.DivergentExec,
		"transactions":       st.Transactions,
		"ideal_transactions": st.IdealTxns,
		"occupancy":          st.Occupancy,
		"energy_j":           st.EnergyJ,
	}
}

// typeLabelSets precomputes the per-type Prometheus label set
// (`workload="w",type="display"`) indexed by TypeID.
func typeLabelSets(reg *service.Registry) []string {
	specs := reg.Specs()
	out := make([]string, len(specs))
	for i := range specs {
		out[i] = obs.Label("workload", specs[i].Workload) + "," + obs.Label("type", specs[i].Display)
	}
	return out
}

// workloadNames lists the registered workload names in registration
// order (the stats documents' "workloads" section).
func workloadNames(reg *service.Registry) []string {
	ws := reg.Workloads()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name()
	}
	return out
}

// newLatencyHistograms builds one request-latency histogram per request
// type (atomic: recorded on serving paths, scraped from any goroutine).
func newLatencyHistograms(n int) []*stats.Histogram {
	out := make([]*stats.Histogram, n)
	for i := range out {
		out[i] = stats.NewHistogram(stats.LatencyBucketsNs())
	}
	return out
}

// writeLatencyFamilies emits the per-type request latency histograms
// (seconds) for every type that has observations, then the exemplar
// family linking each populated bucket to its latest trace ID — the
// metric→trace join /v1/debug/flight resolves (DESIGN.md §15). labels
// carries each type's full label set (workload + type). The exemplars
// are a separate plain family (not OpenMetrics `# {...}` suffixes) so
// every line stays `name{labels} value` parseable.
func writeLatencyFamilies(w *obs.PromWriter, labels []string, hists []*stats.Histogram) {
	snaps := make([]stats.HistogramSnapshot, len(hists))
	for i, h := range hists {
		snaps[i] = h.Snapshot()
	}
	w.Family("rhythm_request_latency_seconds", "histogram",
		"End-to-end request latency by workload and request type.")
	for i := range snaps {
		if snaps[i].Count == 0 {
			continue
		}
		w.Histogram("rhythm_request_latency_seconds", labels[i], snaps[i], 1e-9)
	}
	w.Family("rhythm_request_latency_exemplar_trace_id", "gauge",
		"Trace ID of the latest observation per latency bucket (0 = none yet); join against /v1/debug/flight.")
	for i := range snaps {
		s := &snaps[i]
		if s.Count == 0 {
			continue
		}
		// Every bucket of an active type is emitted, zero or not, so the
		// scrape's row count depends only on which types saw traffic (the
		// alloc gate needs a deterministic document shape).
		for j, id := range s.Exemplars {
			le := "+Inf"
			if j < len(s.Bounds) {
				le = strconv.FormatFloat(s.Bounds[j]*1e-9, 'g', -1, 64)
			}
			w.Value("rhythm_request_latency_exemplar_trace_id",
				labels[i]+`,le="`+le+`"`, float64(id))
		}
	}
}

// writeFlightFamilies emits the flight recorder's promotion accounting.
func writeFlightFamilies(w *obs.PromWriter, rec *flight.Recorder) {
	snap := rec.Snapshot(0)
	w.Family("rhythm_flight_requests_total", "counter", "Requests finished through the flight recorder.")
	w.Value("rhythm_flight_requests_total", "", float64(snap.Total))
	w.Family("rhythm_flight_anomalies_total", "counter", "Requests promoted into the flight anomaly ring.")
	w.Value("rhythm_flight_anomalies_total", "", float64(snap.Promoted))
	w.Family("rhythm_flight_anomalies_by_reason_total", "counter", "Promoted flight records by promotion reason.")
	reasons := make([]string, 0, len(snap.ByReason))
	for reason := range snap.ByReason {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		w.Value("rhythm_flight_anomalies_by_reason_total", obs.Label("reason", reason), float64(snap.ByReason[reason]))
	}
	w.Family("rhythm_flight_slow_threshold_seconds", "gauge", "Current slow-promotion threshold (adaptive p99 bucket edge unless pinned).")
	w.Value("rhythm_flight_slow_threshold_seconds", "", float64(snap.ThreshNs)/1e9)
}

// writeClusterFamilies emits the device-pool view: per-device gauges
// labeled device="N" plus the cluster-level failover counters
// (DESIGN.md §11).
func writeClusterFamilies(w *obs.PromWriter, st CohortServerStats) {
	if len(st.Devices) == 0 {
		return
	}
	label := func(d int) string { return obs.Label("device", strconv.Itoa(d)) }
	w.Family("rhythm_cluster_device_up", "gauge", "1 when the device is healthy or stalled, 0 once dead.")
	for _, d := range st.Devices {
		up := 1.0
		if d.Health == "dead" {
			up = 0
		}
		w.Value("rhythm_cluster_device_up", label(d.ID), up)
	}
	w.Family("rhythm_cluster_device_queue_len", "gauge", "Dispatched units waiting in the device's bounded queue.")
	for _, d := range st.Devices {
		w.Value("rhythm_cluster_device_queue_len", label(d.ID), float64(d.QueueLen))
	}
	w.Family("rhythm_cluster_device_outstanding", "gauge", "Units dispatched to the device and not yet completed.")
	for _, d := range st.Devices {
		w.Value("rhythm_cluster_device_outstanding", label(d.ID), float64(d.Outstanding))
	}
	w.Family("rhythm_cluster_device_units_total", "counter", "Cohort units the device completed.")
	for _, d := range st.Devices {
		w.Value("rhythm_cluster_device_units_total", label(d.ID), float64(d.UnitsDone))
	}
	w.Family("rhythm_cluster_device_launch_errors_total", "counter", "Injected kernel-launch errors observed on the device.")
	for _, d := range st.Devices {
		w.Value("rhythm_cluster_device_launch_errors_total", label(d.ID), float64(d.LaunchErrors))
	}
	w.Family("rhythm_cluster_device_groups", "gauge", "Shard groups the device currently owns.")
	for _, d := range st.Devices {
		w.Value("rhythm_cluster_device_groups", label(d.ID), float64(len(d.Groups)))
	}
	w.Family("rhythm_cluster_device_virtual_time_seconds", "gauge", "The device engine's virtual clock.")
	for _, d := range st.Devices {
		w.Value("rhythm_cluster_device_virtual_time_seconds", label(d.ID), float64(d.VirtualTimeUs)/1e6)
	}
	w.Family("rhythm_cluster_failovers_total", "counter", "Group ownership moves off dead devices.")
	w.Value("rhythm_cluster_failovers_total", "", float64(st.Failovers))
	w.Family("rhythm_cluster_retries_total", "counter", "Unit re-dispatches after device faults.")
	w.Value("rhythm_cluster_retries_total", "", float64(st.DeviceRetries))
	w.Family("rhythm_cluster_shed_cohorts_total", "counter", "Cohorts shed with 503s (queues full or no healthy device).")
	w.Value("rhythm_cluster_shed_cohorts_total", "", float64(st.ShedCohorts))
}

// writeFabricFamilies emits the device-fabric node tier (DESIGN.md
// §17): per-workload shed counters and per-node health, dispatch, and
// link-budget gauges. Nothing node-level is written without node rows
// (a pre-fabric stats document).
func writeFabricFamilies(w *obs.PromWriter, st CohortServerStats) {
	if len(st.WorkloadSheds) > 0 {
		names := make([]string, 0, len(st.WorkloadSheds))
		for name := range st.WorkloadSheds {
			names = append(names, name)
		}
		sort.Strings(names)
		w.Family("rhythm_shed_total", "counter", "Requests shed with 503, by workload (admission quota, queue, pool, link, or node loss).")
		for _, name := range names {
			w.Value("rhythm_shed_total", obs.Label("workload", name), float64(st.WorkloadSheds[name]))
		}
	}
	if len(st.Nodes) == 0 {
		return
	}
	label := func(n int) string { return obs.Label("node", strconv.Itoa(n)) }
	w.Family("rhythm_fabric_node_up", "gauge", "1 while the fabric node is routable, 0 once down.")
	for _, n := range st.Nodes {
		up := 1.0
		if n.Health != "up" {
			up = 0
		}
		w.Value("rhythm_fabric_node_up", label(n.ID), up)
	}
	w.Family("rhythm_fabric_node_groups", "gauge", "Shard groups currently routed to the node.")
	for _, n := range st.Nodes {
		w.Value("rhythm_fabric_node_groups", label(n.ID), float64(len(n.Groups)))
	}
	w.Family("rhythm_fabric_node_dispatched_total", "counter", "Units the node accepted.")
	for _, n := range st.Nodes {
		w.Value("rhythm_fabric_node_dispatched_total", label(n.ID), float64(n.Dispatched))
	}
	w.Family("rhythm_fabric_node_outstanding", "gauge", "Units in flight on the node.")
	for _, n := range st.Nodes {
		w.Value("rhythm_fabric_node_outstanding", label(n.ID), float64(n.Outstanding))
	}
	w.Family("rhythm_fabric_link_sent_bytes_total", "counter", "Bytes charged against the node's link budget.")
	for _, n := range st.Nodes {
		w.Value("rhythm_fabric_link_sent_bytes_total", label(n.ID), float64(n.Link.SentBytes))
	}
	w.Family("rhythm_fabric_link_utilization", "gauge", "Fraction of the node's link budget consumed (0 when unmetered).")
	for _, n := range st.Nodes {
		w.Value("rhythm_fabric_link_utilization", label(n.ID), n.Link.Utilization)
	}
	w.Family("rhythm_fabric_link_sheds_total", "counter", "Units refused by the node's saturated link.")
	for _, n := range st.Nodes {
		w.Value("rhythm_fabric_link_sheds_total", label(n.ID), float64(n.Link.Sheds))
	}
	w.Family("rhythm_fabric_node_failovers_total", "counter", "Nodes marked down and re-routed around.")
	w.Value("rhythm_fabric_node_failovers_total", "", float64(st.NodeFailovers))
	w.Family("rhythm_fabric_node_retries_total", "counter", "Unit re-dispatches after node loss (recorded as hops).")
	w.Value("rhythm_fabric_node_retries_total", "", float64(st.NodeRetries))
	w.Family("rhythm_fabric_lost_units_total", "counter", "Units whose fate a dead connection left unknown (shed, never retried).")
	w.Value("rhythm_fabric_lost_units_total", "", float64(st.LostUnits))
}

// writeAdaptFamilies emits the formation controller's state (DESIGN.md
// §12): whether it is pinned, then per type the window, rate, threshold,
// route, crossover and route flips, plus the pool-wide host-route
// counter and the Retry-After hint.
func writeAdaptFamilies(w *obs.PromWriter, st CohortServerStats) {
	ad := st.Adapt
	w.Family("rhythm_adapt_pinned", "gauge", "1 while the controller is pinned to a fixed formation timeout (no retuning, no host route).")
	w.Value("rhythm_adapt_pinned", "", boolGauge(ad.Pinned))
	perType := func(name, kind, help string, value func(adapt.TypeSnapshot) float64) {
		w.Family(name, kind, help)
		for _, ts := range ad.Types {
			w.Value(name, obs.Label("type", ts.Type), value(ts))
		}
	}
	perType("rhythm_adapt_window_seconds", "gauge", "Current formation window, by request type.",
		func(ts adapt.TypeSnapshot) float64 { return ts.WindowUs / 1e6 })
	perType("rhythm_adapt_arrival_rate", "gauge", "Smoothed arrival rate in req/s, by request type.",
		func(ts adapt.TypeSnapshot) float64 { return ts.RateReqS })
	perType("rhythm_adapt_early_threshold", "gauge", "Early-launch cohort threshold, by request type.",
		func(ts adapt.TypeSnapshot) float64 { return float64(ts.EarlyThreshold) })
	perType("rhythm_adapt_host_route", "gauge", "1 while the type routes to the scalar host path (below crossover).",
		func(ts adapt.TypeSnapshot) float64 { return boolGauge(ts.HostRoute) })
	perType("rhythm_adapt_crossover_rate", "gauge", "Arrival rate in req/s below which the type routes to the host (0 = host route off).",
		func(ts adapt.TypeSnapshot) float64 { return ts.CrossoverReqS })
	w.Family("rhythm_adapt_route_flips_total", "counter", "Route changes, by request type and the route moved to.")
	for _, ts := range ad.Types {
		w.Value("rhythm_adapt_route_flips_total", obs.Label("type", ts.Type)+`,to="device"`, float64(ts.FlipsToDevice))
		w.Value("rhythm_adapt_route_flips_total", obs.Label("type", ts.Type)+`,to="host"`, float64(ts.FlipsToHost))
	}
	w.Family("rhythm_adapt_host_fallback_total", "counter", "Requests served through the scalar host fallback path.")
	w.Value("rhythm_adapt_host_fallback_total", "", float64(st.HostFallbacks))
	w.Family("rhythm_adapt_retry_after_seconds", "gauge", "Backlog-derived Retry-After hint on 503 responses.")
	w.Value("rhythm_adapt_retry_after_seconds", "", ad.RetryAfterMs/1e3)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeDeviceFamilies emits the SIMT device counters the paper's
// figures are built from.
func writeDeviceFamilies(w *obs.PromWriter, ds simt.DeviceStats, profiled uint64) {
	w.Family("rhythm_device_launches_total", "counter", "Kernel launches (including transposes).")
	w.Value("rhythm_device_launches_total", "", float64(ds.Launches))
	w.Family("rhythm_device_issue_cycles_total", "counter", "Warp-instruction issue slots consumed.")
	w.Value("rhythm_device_issue_cycles_total", "", float64(ds.IssueCycles))
	w.Family("rhythm_device_divergent_execs_total", "counter", "Basic-block executions under a partial active mask (divergence serializations).")
	w.Value("rhythm_device_divergent_execs_total", "", float64(ds.DivergentExec))
	w.Family("rhythm_device_block_execs_total", "counter", "Basic-block executions.")
	w.Value("rhythm_device_block_execs_total", "", float64(ds.BlockExecs))
	w.Family("rhythm_device_mem_transactions_total", "counter", "Coalesced global-memory transactions.")
	w.Value("rhythm_device_mem_transactions_total", "", float64(ds.Transactions))
	w.Family("rhythm_device_ideal_mem_transactions_total", "counter", "Perfectly-coalesced transaction floor for the same requested bytes.")
	w.Value("rhythm_device_ideal_mem_transactions_total", "", float64(ds.IdealTxns))
	w.Family("rhythm_device_mem_bytes_total", "counter", "Global-memory traffic in bytes.")
	w.Value("rhythm_device_mem_bytes_total", "", float64(ds.MemBytes))
	w.Family("rhythm_device_energy_joules_total", "counter", "Modeled dynamic energy of all launches.")
	w.Value("rhythm_device_energy_joules_total", "", ds.EnergyJ)
	w.Family("rhythm_device_busy_seconds_total", "counter", "Virtual device time spent executing.")
	w.Value("rhythm_device_busy_seconds_total", "", float64(ds.BusyTime)/1e9)
	w.Family("rhythm_device_profiled_launches_total", "counter", "Launches recorded by the profiler ring (0 when profiling is off).")
	w.Value("rhythm_device_profiled_launches_total", "", float64(profiled))
}

// writeRenderCacheFamilies emits the whole-page render-cache counters
// (only when the cache is enabled).
func writeRenderCacheFamilies(w *obs.PromWriter, cs rcache.Stats) {
	w.Family("rhythm_render_cache_hits_total", "counter", "Requests answered from the render cache (no execution or kernel launch).")
	w.Value("rhythm_render_cache_hits_total", "", float64(cs.Hits))
	w.Family("rhythm_render_cache_misses_total", "counter", "Cacheable requests that had to execute.")
	w.Value("rhythm_render_cache_misses_total", "", float64(cs.Misses))
	w.Family("rhythm_render_cache_inserts_total", "counter", "Pages inserted into the render cache.")
	w.Value("rhythm_render_cache_inserts_total", "", float64(cs.Inserts))
	w.Family("rhythm_render_cache_invalidations_total", "counter", "User state-version bumps from committed backend writes.")
	w.Value("rhythm_render_cache_invalidations_total", "", float64(cs.Invalidations))
	w.Family("rhythm_render_cache_evictions_total", "counter", "Entries dropped (stale after invalidation, or capacity).")
	w.Value("rhythm_render_cache_evictions_total", "", float64(cs.Evictions))
	w.Family("rhythm_render_cache_entries", "gauge", "Live render-cache entries.")
	w.Value("rhythm_render_cache_entries", "", float64(cs.Entries))
	w.Family("rhythm_render_cache_bytes", "gauge", "Live bytes the render-cache entries hold (each page less its trailing pad).")
	w.Value("rhythm_render_cache_bytes", "", float64(cs.Bytes))
}
