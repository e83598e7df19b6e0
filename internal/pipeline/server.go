// Package pipeline implements the Rhythm server: the single-threaded,
// event-driven cohort pipeline of §3/§4 — Reader (double-buffered),
// Parser, Dispatch, n backend + n+1 process stages, and Response —
// running the Banking workload on the modeled SIMT device. The process
// stages are the registered workload's own kernels (internal/service's
// page kit, the ones live serving launches), bound per cohort context
// through its Slot. The pipeline stalls only on structural hazards (no
// free cohort context, a busy bus), exactly as the paper's design
// intends.
//
// Formation policy is the cohort.Pool the live server also uses, keyed by
// banking.ReqType with deadlines on the simulation engine; the pipeline
// only bounds what parks there and flushes what can no longer fill.
package pipeline

import (
	"cmp"
	"math/rand"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/cohort"
	"rhythm/internal/httpx"
	"rhythm/internal/netmodel"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// Options selects the platform and tuning knobs.
type Options struct {
	// Variant is the Titan A/B/C platform (default Titan B) and the
	// §6.4 ablations: padding and the cohort buffer transpose.
	service.Variant
	// CohortSize is the number of requests per cohort (paper default
	// 4096).
	CohortSize int
	// MaxCohorts is the number of cohort contexts in flight (paper: 8 on
	// the GTX Titan, memory-limited).
	MaxCohorts int
	// FormationTimeout bounds how long a request waits for its cohort to
	// fill (0 disables; the paper leaves the value a policy decision).
	FormationTimeout sim.Time
	// BackendWorkers is the host backend thread count (Titan A; 0
	// means the paper's 8).
	BackendWorkers int
	// BackendServiceTime is the host backend's per-request service time
	// (0 means 2 µs).
	BackendServiceTime sim.Time
	// ValidateEvery validates one response in every N (0 disables).
	ValidateEvery int

	// Straggler handling (§3.1), Titan A only (New panics on any of the
	// three elsewhere): "A similar timeout mechanism could be used to
	// ensure that stragglers (e.g., long backend accesses) do not delay
	// other requests in a cohort during execution. Straggler responses
	// from the backend can either be executed on the host CPU or added
	// to a subsequent cohort." This implementation re-executes
	// stragglers on the host.
	//
	// BackendTailProb is the probability a (remote) backend lookup takes
	// BackendTailFactor × BackendServiceTime instead.
	BackendTailProb   float64
	BackendTailFactor float64
	// StragglerTimeout bounds how long a cohort waits for its backend
	// round trip; 0 waits forever (no straggler handling).
	StragglerTimeout sim.Time
	// Seed drives the backend tail sampler.
	Seed int64
}

// hostIPS is the host core's instruction rate that prices straggler
// re-execution: one Core i7 worker, platform.CoreI7().WorkerIPS.
const hostIPS = 2.74e10

// Source supplies raw requests to the Reader. Next reports false when the
// stream is exhausted.
type Source interface {
	Next() ([]byte, bool)
}

// SliceSource serves a pre-generated request list (the paper pre-generates
// requests into a buffer and reads them "on the fly to emulate high
// arrival rates", §5.3.2).
type SliceSource struct {
	Reqs [][]byte
	pos  int
}

// Next implements Source.
func (s *SliceSource) Next() ([]byte, bool) {
	if s.pos >= len(s.Reqs) {
		return nil, false
	}
	r := s.Reqs[s.pos]
	s.pos++
	return r, true
}

// FuncSource adapts a generator function to a Source.
type FuncSource func() ([]byte, bool)

// Next implements Source.
func (f FuncSource) Next() ([]byte, bool) { return f() }

// Stats aggregates one run's outcomes.
type Stats struct {
	Completed          uint64 // responses sent (including error pages)
	Errors             uint64 // error-page responses
	ParseErrors        uint64 // requests rejected at the parser
	Images             uint64 // static assets served from the bypassing image path (§5.1)
	Stragglers         uint64 // requests whose backend lookup timed out and were re-executed on the host (§3.1)
	Validated          uint64
	ValidationFailures uint64
	Latency            *stats.LatencyRecorder
	Cohort             cohort.Stats
	Device             simt.DeviceStats
	Start, End         sim.Time
}

// Throughput reports completed requests per second of virtual time.
func (s Stats) Throughput() float64 {
	dt := (s.End - s.Start).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(s.Completed) / dt
}

// preq is one parsed request moving through dispatch.
type preq struct {
	req     httpx.Request
	t       banking.ReqType
	arrived sim.Time
}

// engineClock runs the cohort pool's formation deadlines as events of
// the simulation engine, in virtual time.
type engineClock struct{ eng *sim.Engine }

func (c engineClock) Now() time.Duration { return time.Duration(c.eng.Now()) }

func (c engineClock) After(d time.Duration, fn func()) func() {
	ev := c.eng.After(sim.Time(d), fn)
	return func() { c.eng.Cancel(ev) }
}

// Server is the Rhythm pipeline bound to a device.
type Server struct {
	eng      *sim.Engine
	dev      *simt.Device
	bus      *sim.Pipe // Titan A's host↔device bus; nil elsewhere
	opts     Options
	db       service.Backend
	sessions *session.Array
	gen      *banking.Generator

	bank       *service.PageWorkload
	pool       *cohort.Pool[banking.ReqType, preq]
	streams    []*simt.Stream    // one per cohort context
	slots      []*service.Slot   // one per cohort context
	reqs       [][]httpx.Request // per context: the bound cohort's requests
	trips      []roundTrip       // per context: Titan A's backend round trip
	batches    []*readerBatch
	backendSrv *sim.Server
	hostSrv    *sim.Server // straggler re-execution workers
	rng        *rand.Rand  // backend tail sampler

	src       Source
	srcDone   bool
	paced     bool
	queued    [][]byte // paced-mode arrival queue
	pacedLeft int      // paced-mode arrivals not yet queued
	inflight  int      // reader batches + busy cohorts
	stats     Stats
	onDrained func()
	firstPull bool
}

// Arrival is one request arriving at a fixed virtual time (paced mode).
type Arrival struct {
	Raw []byte
	At  sim.Time
}

type readerBatch struct {
	pb     *banking.ParseBatch
	stream *simt.Stream
	busy   bool
	arrive []sim.Time
	raws   [][]byte
	// image is the batch's host staging image, packed anew each time
	// the batch fills. The H2D copy reads it when the copy starts, and
	// the batch stays busy until its parse completes, so no refill can
	// overwrite bytes a copy has yet to read.
	image []byte
}

// deviceMemory reports the backed device memory a server with opts
// needs: the reader's two batches in both layouts, whose bytes the
// parser reads, and alignment slack. The cohort contexts back nothing:
// their column images and response buffers are priced address space,
// and their backend slots' bytes are host buffers (service.Slot).
// banking.CohortDeviceBytes is the modelled footprint behind §6.3 and
// sizes nothing here.
func deviceMemory(opts Options) int {
	return 4*opts.CohortSize*banking.RequestSlot + 1<<20
}

// NewPopulation builds a session array and a Banking generator seeded
// with seed that has pre-created population sessions in it, a bucket
// per four (at four per cohort lane, the paper's cohort-sized buckets,
// §6.3). A run of requests > 0 gets room, by session.NodesPerBucket,
// for population+requests sessions, so no bucket fills even if every
// request logs in, and fresh users. An open-ended run (requests == 0)
// gets room for population sessions, reclaims the longest-idle node of
// a full bucket and draws users from 2×population, so a server kept for
// any number of runs holds a bounded heap and never fails a login.
func NewPopulation(seed int64, population, requests int) (*session.Array, *banking.Generator) {
	buckets := max(population/4, 1)
	sessions := session.NewArray(buckets, session.NodesPerBucket(population+requests, buckets))
	gen := banking.NewGenerator(seed, sessions)
	if requests == 0 {
		gen.LimitUsers(2 * population)
	}
	gen.Populate(population)
	return sessions, gen
}

// New builds one simulated Titan and the Banking workload it serves: a
// virtual-time engine, the device devCfg (nil: the GTX Titan) backing
// what opts needs, on Titan A a bus of busBps bytes a second (0: PCIe
// 3.0), a Besim backend, and NewPopulation's session array, stamped
// with the engine's time, and generator.
func New(opts Options, devCfg *simt.Config, busBps float64, seed int64, population, requests int) *Server {
	if opts.CohortSize <= 0 || opts.MaxCohorts <= 0 {
		panic("pipeline: CohortSize and MaxCohorts must be positive")
	}
	if opts.Platform != service.TitanA && (opts.StragglerTimeout != 0 || opts.BackendTailProb != 0 || opts.BackendTailFactor != 0) {
		panic("pipeline: straggler settings need a remote backend (Titan A)")
	}
	opts.BackendWorkers = cmp.Or(opts.BackendWorkers, 8)
	opts.BackendServiceTime = cmp.Or(opts.BackendServiceTime, 2_000)
	cfg := simt.GTXTitan()
	if devCfg != nil {
		cfg = *devCfg
	}
	eng := sim.NewEngine()
	var bus *sim.Pipe
	if opts.Platform == service.TitanA {
		bus = sim.NewPipe(eng, cmp.Or(busBps, netmodel.PCIe3Bps), 1000)
	}
	dev := simt.NewDevice(eng, cfg, deviceMemory(opts), bus)
	sessions, gen := NewPopulation(seed, population, requests)
	sessions.SetClock(func() int64 { return int64(eng.Now()) })
	s := &Server{
		eng:      eng,
		dev:      dev,
		bus:      bus,
		opts:     opts,
		db:       backend.New(),
		sessions: sessions,
		gen:      gen,
		bank:     banking.NewWorkload(),
		stats:    Stats{Latency: stats.NewLatencyRecorder()},
	}
	window := func(banking.ReqType) time.Duration { return time.Duration(opts.FormationTimeout) }
	s.pool = cohort.NewPool(engineClock{eng}, opts.MaxCohorts, opts.CohortSize, window, nil,
		func(c *cohort.Context[banking.ReqType, preq], _ cohort.Reason) {
			c.MarkBusy()
			s.inflight++
			s.runCohort(c)
		})
	for i := 0; i < opts.MaxCohorts; i++ {
		s.streams = append(s.streams, dev.NewStream())
		s.slots = append(s.slots, s.bank.NewSlot(dev, opts.CohortSize, opts.Variant))
		s.reqs = append(s.reqs, make([]httpx.Request, 0, opts.CohortSize))
		s.trips = append(s.trips, roundTrip{finished: make([]bool, opts.CohortSize), stragglers: make([]bool, opts.CohortSize)})
	}
	// Double-buffered reader (§4.2).
	for i := 0; i < 2; i++ {
		s.batches = append(s.batches, &readerBatch{
			pb:     banking.NewParseBatch(dev, opts.CohortSize),
			stream: dev.NewStream(),
			arrive: make([]sim.Time, opts.CohortSize),
			raws:   make([][]byte, 0, opts.CohortSize),
		})
	}
	if opts.Platform == service.TitanA {
		s.backendSrv = sim.NewServer(eng, opts.BackendWorkers)
	}
	if opts.StragglerTimeout > 0 {
		s.hostSrv = sim.NewServer(eng, 2)
	}
	s.rng = rand.New(rand.NewSource(opts.Seed + 0x5bd1))
	return s
}

// Generator returns the generator of the server's Banking workload,
// bound to its session array.
func (s *Server) Generator() *banking.Generator { return s.gen }

// Now reports the engine's virtual time.
func (s *Server) Now() sim.Time { return s.eng.Now() }

// DeviceUtilization reports the device's slot-weighted busy fraction
// since it was built.
func (s *Server) DeviceUtilization() float64 { return s.dev.Utilization() }

// BusUtilization reports the busy fraction of Titan A's bus since it
// was built (0 on a platform without one).
func (s *Server) BusUtilization() float64 {
	if s.bus == nil {
		return 0
	}
	return s.bus.Utilization()
}

// Stats returns a snapshot of run statistics.
func (s *Server) Stats() Stats {
	st := s.stats
	st.Cohort = s.pool.Stats()
	st.Device = s.dev.Stats()
	return st
}

// Run serves the entire source at saturation (the reader pulls as fast
// as buffers free up — the paper's §5.3.2 methodology) and returns the
// final statistics.
func (s *Server) Run(src Source) Stats {
	s.src = src
	s.paced = false
	return s.drive()
}

// RunPaced serves a timed arrival stream: each request becomes available
// to the Reader at its arrival time. Use this to study cohort formation
// under non-saturating load (formation timeouts, partial cohorts).
func (s *Server) RunPaced(arrivals []Arrival) Stats {
	s.paced = true
	s.pacedLeft = len(arrivals)
	for _, a := range arrivals {
		raw := a.Raw
		s.eng.At(a.At, func() {
			s.queued = append(s.queued, raw)
			s.pacedLeft--
			s.feedReader()
		})
	}
	return s.drive()
}

func (s *Server) drive() Stats {
	// Stats are per run; sessions, database, and the virtual clock
	// persist across runs.
	s.stats = Stats{Latency: stats.NewLatencyRecorder()}
	s.srcDone = false
	s.firstPull = true
	drained := false
	s.onDrained = func() { drained = true }
	s.feedReader()
	for !drained {
		if !s.eng.Step() {
			if s.checkDrained() {
				break
			}
			panic("pipeline: simulation stalled with work outstanding")
		}
	}
	s.stats.End = s.eng.Now()
	return s.Stats()
}

// pull fetches the next available request. have reports whether one was
// returned; finished reports that no request will ever arrive again.
func (s *Server) pull() (raw []byte, have, finished bool) {
	if s.paced {
		if len(s.queued) > 0 {
			raw = s.queued[0]
			s.queued = s.queued[1:]
			return raw, true, false
		}
		return nil, false, s.pacedLeft == 0
	}
	raw, ok := s.src.Next()
	return raw, ok, !ok
}

// feedReader pulls requests into a free reader batch and launches the
// H2D copy + parse chain. The reader stalls (does nothing) while both
// batches are busy or the requests parked in the pool have grown past
// their bound —
// requests may be delayed for cohort formation, but memory is finite.
func (s *Server) feedReader() {
	if s.srcDone || s.pool.Parked() > 4*s.opts.CohortSize {
		return
	}
	var rb *readerBatch
	for _, b := range s.batches {
		if !b.busy {
			rb = b
			break
		}
	}
	if rb == nil {
		return
	}
	rb.raws = rb.raws[:0]
	for len(rb.raws) < s.opts.CohortSize {
		raw, have, finished := s.pull()
		if !have {
			if finished {
				s.srcDone = true
			}
			break
		}
		if s.firstPull {
			s.firstPull = false
			s.stats.Start = s.eng.Now()
		}
		rb.arrive[len(rb.raws)] = s.eng.Now()
		rb.raws = append(rb.raws, raw)
	}
	if len(rb.raws) == 0 {
		s.maybeFlush()
		return
	}
	rb.busy = true
	s.inflight++
	count := len(rb.raws)
	rb.pb.Reset(count)
	rb.image = banking.PackRequests(rb.image, rb.raws)
	// H2D of the raw request image (over the bus on discrete platforms).
	rb.stream.MemcpyH2D(rb.pb.Buf, rb.image, nil)
	if s.opts.ColMajor {
		// In-device transpose of the arrival image to the
		// word-interleaved layout the parser reads (§4.3.2 "request
		// buffer transpose"). Only the first `count` slots hold data.
		rb.stream.TransposeLive(rb.pb.ColBuf, rb.pb.Buf, rb.pb.Size, banking.RequestSlot/4, 4,
			count, banking.RequestSlot/4, nil)
	}
	args := banking.ParserArgs{Batch: rb.pb, ColMajor: s.opts.ColMajor}
	rb.stream.Launch(banking.NewParserProgram(args), count, func(simt.LaunchStats) {
		s.dispatchBatch(rb, count)
	})
	// Keep the other buffer filling while this one parses.
	s.feedReader()
}

// dispatchBatch routes parsed requests into typed cohorts (§3.2
// Dispatch). Parse failures are answered immediately from the host — the
// "requests that do not conform" path that runs on the general purpose
// core.
func (s *Server) dispatchBatch(rb *readerBatch, count int) {
	for i := 0; i < count; i++ {
		if rb.pb.Errs[i] != nil {
			s.stats.ParseErrors++
			s.stats.Completed++
			s.stats.Latency.Record(float64(s.eng.Now() - rb.arrive[i]))
			continue
		}
		if rb.pb.IsImage[i] {
			// Image cohorts bypass the process stage entirely (§5.1):
			// the cached asset goes straight to the response stage.
			s.stats.Images++
			s.stats.Completed++
			s.stats.Latency.Record(float64(s.eng.Now() - rb.arrive[i]))
			continue
		}
		// A request with no context to join parks in the pool until a
		// Release frees one.
		pr := preq{req: rb.pb.Reqs[i], t: rb.pb.Types[i], arrived: rb.arrive[i]}
		if !s.pool.Add(pr.t, pr) {
			s.pool.Park(pr.t, pr)
		}
	}
	rb.busy = false
	s.inflight--
	s.feedReader()
	s.maybeFlush()
}

// runCohort executes the process phase for one Full cohort: n backend
// stages and n+1 process stages (§3.1), then the response stage.
func (s *Server) runCohort(c *cohort.Context[banking.ReqType, preq]) {
	prs := c.Requests()
	reqs := s.reqs[c.ID][:0]
	for _, pr := range prs {
		reqs = append(reqs, pr.req)
	}
	unit := s.slots[c.ID].Bind(int(prs[0].t), reqs, s.sessions, s.db)
	trip := &s.trips[c.ID]
	clear(trip.stragglers)
	unit.Run(s.streams[c.ID], func(reply func()) {
		s.hostBackend(c, unit, trip, reply)
	}, nil, func() { s.respond(c, unit, trip.stragglers) })
}

// roundTrip is what one cohort context keeps for Titan A's backend
// round trips, set aside once and reused by every cohort the context
// runs: which requests finished this round trip, and which of the
// cohort's requests the host re-executes. A context runs one cohort,
// and that cohort one round trip, at a time.
type roundTrip struct {
	finished   []bool
	stragglers []bool // the cohort's, across its round trips
}

// hostBackend serves one remote-backend round trip for a cohort on the
// host's worker threads (§5.3.2, Titan A), each request's answer into
// its lane's buffer, and then calls reply. With a straggler timeout
// configured, the cohort proceeds when the deadline passes and any
// unfinished requests are re-executed entirely on the host (§3.1). A
// request's backend work that finishes after its round trip proceeded
// finds proceeded set and writes nothing: the lane may already be in
// the next stage.
func (s *Server) hostBackend(c *cohort.Context[banking.ReqType, preq], unit *service.PageUnit, trip *roundTrip, reply func()) {
	count := len(c.Requests())
	proceeded := false
	remaining := count
	clear(trip.finished)
	finished, stragglers := trip.finished, trip.stragglers
	proceed := func() { // every caller checks proceeded first
		proceeded = true
		reply()
	}
	for r := 0; r < count; r++ {
		if stragglers[r] || !unit.Active(r) {
			// Shed earlier, finished early (variable stages), or
			// failed: no backend work this round trip.
			remaining--
			continue
		}
		r := r
		svc := s.opts.BackendServiceTime
		if s.opts.BackendTailProb > 0 && s.rng.Float64() < s.opts.BackendTailProb {
			svc = sim.Time(float64(svc) * s.opts.BackendTailFactor)
		}
		s.backendSrv.Submit(svc, func() {
			if proceeded {
				return // the cohort moved on; the host path owns this request
			}
			unit.ServeBackend(r)
			finished[r] = true
			remaining--
			if remaining == 0 {
				proceed()
			}
		})
	}
	if remaining == 0 {
		proceed()
		return
	}
	if s.opts.StragglerTimeout > 0 {
		s.eng.After(s.opts.StragglerTimeout, func() {
			if proceeded {
				return
			}
			for r := 0; r < count; r++ {
				if !finished[r] && !stragglers[r] {
					s.shedStraggler(c, unit, r)
					stragglers[r] = true
				}
			}
			proceed()
		})
	}
}

// shedStraggler hands one timed-out request to the host CPU: the device
// slot is marked failed (its error page is discarded), and the full
// request re-executes on a host worker, producing the real response.
func (s *Server) shedStraggler(c *cohort.Context[banking.ReqType, preq], unit *service.PageUnit, r int) {
	unit.Fail(r, "backend straggler: reissued on host")
	pr := c.Requests()[r]
	arrived := pr.arrived
	req := pr.req
	s.inflight++
	// Functional execution now; completion priced by instruction count
	// on a host worker. (Re-running from stage 0 can repeat an earlier
	// stage's side effect — e.g. a login that stalled on its *second*
	// round trip leaves an extra session — the idempotency cost the
	// paper's "execute on the host CPU" option inherently carries.)
	hctx := s.bank.Execute(int(pr.t), &req, s.sessions, s.db, s.opts.Padding)
	service := sim.Time(float64(hctx.Instr()) / hostIPS * 1e9)
	s.hostSrv.Submit(service, func() {
		s.stats.Stragglers++
		s.stats.Completed++
		if hctx.Err != "" {
			s.stats.Errors++
		}
		s.stats.Latency.Record(float64(s.eng.Now() - arrived))
		s.inflight--
		s.checkDrained()
	})
}

// respond completes a cohort whose responses are back: record latencies
// and validate a sample, then free the cohort context.
func (s *Server) respond(c *cohort.Context[banking.ReqType, preq], unit *service.PageUnit, stragglers []bool) {
	now := s.eng.Now()
	prs := c.Requests()
	for i, pr := range prs {
		if stragglers[i] {
			continue // accounted by the host path
		}
		failed := unit.Failed(i)
		if failed {
			s.stats.Errors++
		}
		s.stats.Latency.Record(float64(now - pr.arrived))
		s.stats.Completed++
		if v := s.opts.ValidateEvery; v > 0 && (s.stats.Completed%uint64(v)) == 0 && !failed {
			s.stats.Validated++
			if err := banking.Validate(pr.t, unit.Response(i)); err != nil {
				s.stats.ValidationFailures++
			}
		}
	}
	s.inflight--
	s.pool.Release(c)
	s.feedReader()
	s.maybeFlush()
}

// maybeFlush force-launches partial cohorts when they can no longer
// fill. At end of stream everything forming is flushed. When dispatch
// back-pressure has wedged — requests parked in the pool because every
// context is forming for other types and nothing is executing that could
// free one — only the oldest forming cohort launches, freeing one
// context at a time; a live deployment's formation timeout plays this
// role (§3.1).
func (s *Server) maybeFlush() {
	if s.pool.Parked() > 0 && s.inflight == 0 {
		s.pool.FlushOldest()
	} else if s.srcDone && s.pool.Parked() == 0 && !s.readerBusy() {
		s.pool.FlushAll()
	}
	s.checkDrained()
}

func (s *Server) readerBusy() bool {
	for _, b := range s.batches {
		if b.busy {
			return true
		}
	}
	return false
}

// checkDrained reports (and signals) completion of the whole run.
func (s *Server) checkDrained() bool {
	if s.srcDone && s.inflight == 0 && s.pool.Parked() == 0 &&
		s.pool.FreeContexts() == s.opts.MaxCohorts && !s.readerBusy() {
		if s.onDrained != nil {
			f := s.onDrained
			s.onDrained = nil
			f()
		}
		return true
	}
	return false
}
