package platform

import (
	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/httpx"
	"rhythm/internal/pipeline"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/stats"
)

// CPUServer is the standalone event-based server the paper's CPU
// baselines run (§5.1: "for general purpose processors we implement a
// standalone event-based C version"). Requests are parsed and executed
// one at a time on worker threads; the real response bytes are produced
// by the same banking code the device kernels run, and each request's
// measured instruction count becomes its service time on the modeled
// core.
type CPUServer struct {
	eng      *sim.Engine
	cpu      CPU
	workers  int
	pool     *sim.Server
	db       *backend.DB
	sessions *session.Array
	bank     *service.PageWorkload

	completed uint64
	errors    uint64
	instr     int64
	latency   *stats.LatencyRecorder
	validated uint64
	valFails  uint64
	valEvery  int
}

// CPUResult is one baseline run's outcome.
type CPUResult struct {
	Platform           string
	Workers            int
	Completed          uint64
	Errors             uint64
	Throughput         float64 // reqs/sec
	MeanLatencyMs      float64
	P99LatencyMs       float64
	AvgInstr           float64 // per request
	WallWatts          float64
	DynWatts           float64
	Validated          uint64
	ValidationFailures uint64
}

// NewCPUServer builds a baseline server for cpu with the given worker
// count. validateEvery samples responses through the SPECWeb validator
// (0 disables). It stamps the session array with eng's virtual time.
func NewCPUServer(eng *sim.Engine, cpu CPU, workers int, db *backend.DB, sessions *session.Array, validateEvery int) *CPUServer {
	if workers <= 0 || workers > cpu.MaxWorkers {
		panic("platform: bad worker count")
	}
	sessions.SetClock(func() int64 { return int64(eng.Now()) })
	return &CPUServer{
		eng:      eng,
		cpu:      cpu,
		workers:  workers,
		pool:     sim.NewServer(eng, workers),
		db:       db,
		sessions: sessions,
		bank:     banking.NewWorkload(),
		latency:  stats.NewLatencyRecorder(),
		valEvery: validateEvery,
	}
}

// parseInstr is the host-side parse cost (same 3 ops/byte the device
// parser charges).
const parseInstr = 3

// Run serves the source to exhaustion and reports the result. The
// event-based server admits requests as fast as workers free up — the
// paper's saturation methodology.
func (s *CPUServer) Run(src pipeline.Source) CPUResult {
	ipsPerWorker := s.cpu.WorkerIPSAt(s.workers)
	// Keep exactly `workers` requests in service plus a small admission
	// queue, pulling from the source as completions free capacity.
	var pump func()
	outstanding := 0
	pump = func() {
		for outstanding < s.workers*2 {
			raw, ok := src.Next()
			if !ok {
				return
			}
			outstanding++
			arrived := s.eng.Now()
			instr, errPage := s.serve(raw)
			s.instr += instr
			service := sim.Time(float64(instr) / ipsPerWorker * 1e9)
			s.pool.Submit(service, func() {
				s.completed++
				if errPage {
					s.errors++
				}
				s.latency.Record(float64(s.eng.Now() - arrived))
				outstanding--
				pump()
			})
		}
	}
	start := s.eng.Now()
	pump()
	s.eng.Run()
	elapsed := (s.eng.Now() - start).Seconds()

	res := CPUResult{
		Platform:           s.cpu.Name,
		Workers:            s.workers,
		Completed:          s.completed,
		Errors:             s.errors,
		MeanLatencyMs:      s.latency.Mean() / 1e6,
		P99LatencyMs:       s.latency.Percentile(99) / 1e6,
		WallWatts:          s.cpu.Wall(s.workers),
		DynWatts:           s.cpu.Dynamic(s.workers),
		Validated:          s.validated,
		ValidationFailures: s.valFails,
	}
	if s.completed > 0 {
		res.AvgInstr = float64(s.instr) / float64(s.completed)
	}
	if elapsed > 0 {
		res.Throughput = float64(s.completed) / elapsed
	}
	return res
}

// serve executes one request on the host path, returning its instruction
// count and whether it produced an error page.
func (s *CPUServer) serve(raw []byte) (int64, bool) {
	req, err := httpx.Parse(raw)
	if err != nil {
		return int64(len(raw)) * parseInstr, true
	}
	instr := int64(req.ScanCost) * parseInstr
	t, ok := banking.ByPath(req.Path)
	if !ok {
		return instr, true
	}
	ctx := s.bank.Execute(int(t), &req, s.sessions, s.db, true)
	instr += ctx.Instr()
	errPage := ctx.Err != ""
	if v := s.valEvery; v > 0 && (s.completed%uint64(v)) == 0 && !errPage {
		s.validated++
		if err := banking.Validate(t, ctx.RenderAlloc()); err != nil {
			s.valFails++
		}
	}
	return instr, errPage
}
