package obs

import (
	"encoding/json"
	"time"

	"rhythm/internal/simt"
)

// traceEvent is one Chrome trace-event object. Only the fields the
// "X" (complete) and "M" (metadata) phases need are present; ts and dur
// are microseconds, per the trace-event spec.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Process ids in the exported trace. Requests are timestamped with the
// serving host's wall clock; the device track replays the SIMT
// simulator's virtual timeline. The two share a document (one Perfetto
// load shows both) but not a time base, which the process names state.
const (
	pidRequests = 1
	pidDevice   = 2
)

// ChromeTrace renders request traces and device launch records as a
// Chrome trace-event JSON document. Each request gets its own thread row
// (tid = trace seq) under the "requests" process, so formation-wait gaps
// and per-stage kernel spans read left-to-right per request; device
// launches get one row per stream under the "device" process. Wall-clock
// timestamps are rebased to the earliest span so the document is
// position-independent (and goldens are stable).
func ChromeTrace(traces []RequestTrace, launches []simt.LaunchRecord) []byte {
	var epoch time.Time
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if epoch.IsZero() || sp.Start.Before(epoch) {
				epoch = sp.Start
			}
		}
	}
	events := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: pidRequests,
			Args: map[string]any{"name": "rhythm requests (wall clock)"}},
	}
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			events = append(events, traceEvent{
				Name: sp.Name,
				Cat:  tr.Type,
				Ph:   "X",
				Ts:   float64(sp.Start.Sub(epoch)) / 1e3,
				Dur:  float64(sp.Dur) / 1e3,
				Pid:  pidRequests,
				Tid:  int64(tr.Seq),
				Args: sp.Args(),
			})
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pidRequests, Tid: int64(tr.Seq),
			Args: map[string]any{"name": "req " + tr.Type},
		})
	}
	if len(launches) > 0 {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pidDevice,
			Args: map[string]any{"name": "simt device (virtual time)"}})
		streams := map[int]bool{}
		for _, lr := range launches {
			if !streams[lr.Stream] {
				streams[lr.Stream] = true
				events = append(events, traceEvent{
					Name: "thread_name", Ph: "M", Pid: pidDevice, Tid: int64(lr.Stream),
					Args: map[string]any{"name": "stream"},
				})
			}
			events = append(events, traceEvent{
				Name: lr.Kernel,
				Cat:  "kernel",
				Ph:   "X",
				Ts:   float64(lr.Start) / 1e3,
				Dur:  float64(lr.End-lr.Start) / 1e3,
				Pid:  pidDevice,
				Tid:  int64(lr.Stream),
				Args: LaunchArgs(lr),
			})
		}
	}
	out, err := json.MarshalIndent(traceDoc{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
	if err != nil {
		// The document is built from plain values; marshaling cannot fail.
		panic("obs: trace marshal: " + err.Error())
	}
	return append(out, '\n')
}

// LaunchArgs renders a launch record as the device track's event args,
// the counterpart of a stage span's Args: both carry launch_seq and the
// kernel's cost breakdown, so a Perfetto click on either side shows it.
func LaunchArgs(lr simt.LaunchRecord) map[string]any {
	return map[string]any{
		"launch_seq":         lr.Seq,
		"threads":            lr.Threads,
		"warps":              lr.Warps,
		"device_us":          float64(lr.End-lr.Start) / 1e3,
		"issue_cycles":       lr.IssueCycles,
		"divergent_execs":    lr.DivergentExec,
		"block_execs":        lr.BlockExecs,
		"transactions":       lr.Transactions,
		"ideal_transactions": lr.IdealTransactions,
		"occupancy":          lr.Occupancy,
		"energy_j":           lr.EnergyJ,
	}
}
