package harness

import (
	"runtime"
	"strconv"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// FlightStudy measures the flight recorder's always-on per-request cost
// (DESIGN.md §15): the pooled frontend serving loop — the live servers'
// hot path — runs bare and with the recorder armed, where every request
// additionally pays NextID, the scratch-record fill, Finish
// (promote-or-recycle), and the X-Rhythm-Trace response-header splice
// into a reused write buffer. The headline recorder/slowdown_x ratio is
// gated lower-better in CI: the recorder must stay within a few percent
// of the bare loop, or tail debugging is no longer free enough to leave
// on.
//
// Measurement is PAIRED: the two modes serve the identical corpus in
// per-request alternation (off, on, off, on, ...), each request timed
// individually and accumulated into its mode's total. A CI runner
// stall or CPU-steal episode therefore lands on both modes in equal
// measure instead of charging whichever mode owned the wall clock,
// which is what makes a small tolerance on the ratio workable on
// shared runners. Each mode owns its sessions/DB/scratch so the
// replayed state trajectories stay identical. Allocations per request
// come from the runtime Mallocs counter and are host-independent; the
// recorder's delta must be ~0 (the ring is preallocated).

// FlightMode is one loop's measurement.
type FlightMode struct {
	Name           string
	ThroughputReqS float64 // requests/sec over the mode's summed serve time
	AllocsPerReq   float64 // heap allocations per request (Mallocs delta)
	WallSecs       float64 // summed per-request serve time across all passes
	Errors         uint64
}

// FlightResult is the study outcome.
type FlightResult struct {
	Requests  int // requests served per mode per pass
	Passes    int // alternating passes summed into the totals
	Off       FlightMode
	On        FlightMode
	SlowdownX float64 // On serve time / Off serve time (1.0 = free)
	Promoted  uint64  // anomaly records promoted by the armed mode
}

// flightServe is the pooled serving loop both modes share.
type flightServe struct {
	sessions *session.Array
	db       *backend.DB
	bank     *service.PageWorkload
	scratch  *service.Scratch
	out      []byte
	req      httpx.Request
}

func (f *flightServe) serve(raw []byte) (banking.ReqType, bool) {
	if err := httpx.ParseInto(raw, &f.req); err != nil {
		return 0, false
	}
	t, ok := banking.ByPath(f.req.Path)
	if !ok {
		return 0, false
	}
	failed := f.bank.ExecuteHost(f.scratch, int(t), &f.req, f.sessions, f.db)
	f.scratch.Render(f.out)
	return t, !failed
}

// FlightStudy runs the recorder-overhead comparison.
func FlightStudy(cfg Config) FlightResult {
	cfg.validate()
	n := 25 * cfg.CPURequestsPerType
	const passes = 3
	res := FlightResult{Requests: n, Passes: passes,
		Off: FlightMode{Name: "recorder-off"}, On: FlightMode{Name: "recorder-on"}}

	// Each mode owns its state so DB mutation order stays identical
	// across modes and passes; both replay the same corpus bytes.
	newServe := func() (*flightServe, [][]byte) {
		sessions, corpus := frontendCorpus(cfg, n)
		return &flightServe{
			sessions: sessions,
			db:       backend.New(),
			bank:     banking.NewWorkload(),
			scratch:  service.NewScratch(),
			out:      make([]byte, banking.MaxBufferBytes()),
		}, corpus
	}
	offServe, corpus := newServe()
	onServe, _ := newServe()
	rec := flight.New(flight.Config{})
	wbuf := make([]byte, 0, 64)
	var frec flight.Record
	var offTime, onTime time.Duration

	// Allocation accounting wants each mode's loop contiguous, so the
	// paired passes are bracketed by one MemStats read per boundary and
	// the recorder path's (identical) serve allocations subtracted out.
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mallocs0 := m0.Mallocs

	serveOff := func(raw []byte) {
		t0 := time.Now()
		if _, ok := offServe.serve(raw); !ok {
			res.Off.Errors++
		}
		offTime += time.Since(t0)
	}
	serveOn := func(raw []byte) {
		t0 := time.Now()
		id := rec.NextID()
		frec.Reset()
		frec.TraceID = id
		frec.Start = t0
		ty, ok := onServe.serve(raw)
		if !ok {
			res.On.Errors++
			frec.Status = flight.StatusError
		}
		frec.Type = ty.String()
		frec.HostExec = true
		frec.Attempts = 1
		frec.Latency = time.Since(frec.Start)
		rec.Finish(&frec)
		// The header splice the TCP handlers pay: one trace-ID line
		// copied into a reused write buffer.
		wbuf = append(wbuf[:0], "X-Rhythm-Trace: "...)
		wbuf = strconv.AppendUint(wbuf, id, 10)
		onTime += time.Since(t0)
	}
	for pass := 0; pass < passes; pass++ {
		for i, raw := range corpus {
			// Swap pair order each request so anything periodic on the
			// allocation clock (GC cycles especially) cannot correlate
			// with one mode's timed region.
			if i%2 == 0 {
				serveOff(raw)
				serveOn(raw)
			} else {
				serveOn(raw)
				serveOff(raw)
			}
		}
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	served := float64(passes * n)
	// The paired loop interleaves both modes, so per-mode Mallocs can't
	// be split exactly; the serve body is identical, so each mode gets
	// half, and the recorder's own delta shows up as On - Off ≈ 0 in
	// the gated flight_append budget (alloc_test.go) instead.
	perMode := float64(m1.Mallocs-mallocs0) / 2 / served
	res.Off.AllocsPerReq = perMode
	res.On.AllocsPerReq = perMode

	res.Off.WallSecs = offTime.Seconds()
	res.On.WallSecs = onTime.Seconds()
	if res.Off.WallSecs > 0 {
		res.Off.ThroughputReqS = served / res.Off.WallSecs
		res.SlowdownX = res.On.WallSecs / res.Off.WallSecs
	}
	if res.On.WallSecs > 0 {
		res.On.ThroughputReqS = served / res.On.WallSecs
	}
	res.Promoted = rec.Promoted()
	return res
}

// RenderFlight formats the study.
func RenderFlight(r FlightResult) *Table {
	t := &Table{
		Title:   "Flight recorder overhead: bare hot path vs always-on recording",
		Caption: "per-request paired alternation over " + strconv.Itoa(r.Passes) + " passes; slowdown_x is the gated always-on cost of tail debugging",
		Headers: []string{"Mode", "Reqs", "KReq/s (wall)", "Allocs/req", "Slowdown", "Promoted", "Errors"},
	}
	t.AddRow(r.Off.Name, kilo(float64(r.Passes*r.Requests)), kilo(r.Off.ThroughputReqS), f2(r.Off.AllocsPerReq),
		f2(1), "-", kilo(float64(r.Off.Errors)))
	t.AddRow(r.On.Name, kilo(float64(r.Passes*r.Requests)), kilo(r.On.ThroughputReqS), f2(r.On.AllocsPerReq),
		f2(r.SlowdownX), kilo(float64(r.Promoted)), kilo(float64(r.On.Errors)))
	return t
}
