package rhythm

import (
	"fmt"
	"time"

	"rhythm/internal/banking"
	"rhythm/internal/pipeline"
	"rhythm/internal/service"
	"rhythm/internal/sim"
)

// Platform selects the emulated system of §5.3.2. The zero value is
// TitanB.
type Platform = service.Platform

// The three Rhythm platforms.
const (
	// TitanA is a discrete GPU behind PCIe 3.0 with a host backend and
	// responses shipped over the bus.
	TitanA = service.TitanA
	// TitanB emulates an SoC-style integrated NIC with the Besim backend
	// running on the device.
	TitanB = service.TitanB
	// TitanC is TitanB plus a specialized unit that performs the
	// response transpose off the device's critical path.
	TitanC = service.TitanC
)

// Options configures a Server.
type Options struct {
	// Platform picks the Titan A/B/C emulation (default TitanB, the
	// zero value).
	Platform Platform
	// CohortSize is the number of requests batched per cohort (default
	// 4096, the paper's choice).
	CohortSize int
	// MaxCohorts is the number of cohort contexts in flight (default 8).
	MaxCohorts int
	// FormationTimeout bounds how long a request may wait for its cohort
	// to fill (default 0: saturation workloads never need it).
	FormationTimeout time.Duration
	// DisablePadding turns off §4.3.2 whitespace alignment (ablation).
	DisablePadding bool
	// DisableTranspose keeps cohort buffers row-major (ablation).
	DisableTranspose bool
	// ValidateEvery samples one response in every N through the SPECWeb
	// validator (default 1024; 0 disables).
	ValidateEvery int
	// Sessions pre-populates this many live sessions (default 4 ×
	// CohortSize); the session table (a bucket per four) and the
	// generator's user population (twice as many) are sized from it.
	Sessions int
	// Seed drives the deterministic workload generator (default 1).
	Seed int64

	// Straggler handling (§3.1), TitanA only (remote backend):
	// BackendTailProb of lookups take BackendTailFactor × the base
	// service time; with a StragglerTimeout, cohorts stop waiting at the
	// deadline and stragglers re-execute on the host CPU. NewSimServer
	// panics on any of the three on TitanB or TitanC, whose backend runs
	// inside the stage kernel.
	BackendTailProb   float64
	BackendTailFactor float64
	StragglerTimeout  time.Duration
}

func (o *Options) fill() {
	if o.CohortSize == 0 {
		o.CohortSize = 4096
	}
	if o.MaxCohorts == 0 {
		o.MaxCohorts = 8
	}
	if o.ValidateEvery == 0 {
		o.ValidateEvery = 1024
	}
	if o.Sessions == 0 {
		o.Sessions = 4 * o.CohortSize
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Stats reports one run's outcome.
type Stats struct {
	Completed          uint64
	Errors             uint64
	ParseErrors        uint64
	Images             uint64 // static assets served via the bypass path
	Stragglers         uint64 // backend stragglers re-executed on the host
	Validated          uint64
	ValidationFailures uint64
	// Throughput is requests/sec of virtual time.
	Throughput float64
	// MeanLatency / P99Latency are end-to-end request latencies.
	MeanLatency time.Duration
	P99Latency  time.Duration
	// Elapsed is the virtual time the run took.
	Elapsed time.Duration
	// DeviceUtilization is the slot-weighted busy fraction of the device.
	DeviceUtilization float64
	// CohortsFormed / CohortsTimedOut describe cohort formation.
	CohortsFormed   uint64
	CohortsTimedOut uint64
	// MeanOccupancy is the average cohort fill at launch.
	MeanOccupancy float64
}

// SimServer is a Rhythm banking server on a simulated SIMT device,
// driven offline under virtual time (no listener). It is
// single-goroutine: construct, serve, read stats. For a live TCP server
// use New, which returns the Server interface.
type SimServer struct{ srv *pipeline.Server }

// NewSimServer builds an offline simulation server and its workload
// generator. The session table is sized for Options.Sessions and
// reclaims the longest-idle session of a full bucket, and logins draw
// from twice that many users, so a server kept for any number of Serve
// calls holds a bounded heap and never fails a login.
func NewSimServer(opts Options) *SimServer {
	opts.fill()
	return &SimServer{pipeline.New(pipelineOptions(opts), nil, 0, opts.Seed, opts.Sessions, 0)}
}

func pipelineOptions(o Options) pipeline.Options {
	return pipeline.Options{
		Variant:           service.Variant{Platform: o.Platform, Padding: !o.DisablePadding, ColMajor: !o.DisableTranspose},
		CohortSize:        o.CohortSize,
		MaxCohorts:        o.MaxCohorts,
		FormationTimeout:  sim.Duration(o.FormationTimeout),
		ValidateEvery:     o.ValidateEvery,
		BackendTailProb:   o.BackendTailProb,
		BackendTailFactor: o.BackendTailFactor,
		StragglerTimeout:  sim.Duration(o.StragglerTimeout),
		Seed:              o.Seed,
	}
}

// GenerateMixed produces n requests drawn from the Table 2 mix.
func (s *SimServer) GenerateMixed(n int) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i], _ = s.srv.Generator().Mixed()
	}
	return reqs
}

// GenerateIsolated produces n requests of one type by its Table 2 name
// (e.g., "account_summary").
func (s *SimServer) GenerateIsolated(typeName string, n int) ([][]byte, error) {
	rt, err := typeByName(typeName)
	if err != nil {
		return nil, err
	}
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = s.srv.Generator().Request(rt)
	}
	return reqs, nil
}

// typeByName resolves a Table 2 request-type name.
func typeByName(name string) (banking.ReqType, error) {
	for rt := banking.ReqType(0); rt < banking.NumTypes; rt++ {
		if rt.String() == name {
			return rt, nil
		}
	}
	return 0, fmt.Errorf("rhythm: unknown request type %q (see Table 2 names)", name)
}

// RequestTypes lists the 14 implemented request-type names.
func RequestTypes() []string {
	names := make([]string, banking.NumTypes)
	for rt := banking.ReqType(0); rt < banking.NumTypes; rt++ {
		names[rt] = rt.String()
	}
	return names
}

// Serve runs the given raw requests through the pipeline at saturation
// and returns the run's statistics. Each call continues the same virtual
// timeline and session state.
func (s *SimServer) Serve(reqs [][]byte) Stats {
	return s.stats(s.srv.Run(&pipeline.SliceSource{Reqs: reqs}))
}

// ServePaced runs requests arriving at a fixed rate (requests/sec),
// exercising cohort formation timeouts and partial cohorts.
func (s *SimServer) ServePaced(reqs [][]byte, arrivalRate float64) Stats {
	if arrivalRate <= 0 {
		panic("rhythm: arrival rate must be positive")
	}
	interval := sim.Time(1e9 / arrivalRate)
	arrivals := make([]pipeline.Arrival, len(reqs))
	base := s.srv.Now()
	for i, r := range reqs {
		arrivals[i] = pipeline.Arrival{Raw: r, At: base + sim.Time(i)*interval}
	}
	return s.stats(s.srv.RunPaced(arrivals))
}

func (s *SimServer) stats(st pipeline.Stats) Stats {
	return Stats{
		Completed:          st.Completed,
		Errors:             st.Errors,
		ParseErrors:        st.ParseErrors,
		Images:             st.Images,
		Stragglers:         st.Stragglers,
		Validated:          st.Validated,
		ValidationFailures: st.ValidationFailures,
		Throughput:         st.Throughput(),
		MeanLatency:        time.Duration(st.Latency.Mean()),
		P99Latency:         time.Duration(st.Latency.Percentile(99)),
		Elapsed:            time.Duration(st.End - st.Start),
		DeviceUtilization:  s.srv.DeviceUtilization(),
		CohortsFormed:      st.Cohort.Formed,
		CohortsTimedOut:    st.Cohort.TimedOut,
		MeanOccupancy:      st.Cohort.MeanOccupancy(),
	}
}
