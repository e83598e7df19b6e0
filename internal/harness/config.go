// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (see DESIGN.md's experiment index):
// the CPU baselines and the three Titan emulations over the isolated
// per-type workloads, the trace-similarity study, the analytic bandwidth
// bounds, scaling arithmetic, and the sensitivity studies.
package harness

import (
	"cmp"
	"fmt"
	"os"
	"strconv"

	"rhythm/internal/simt"
)

// Config scales the experiments. Defaults are laptop-sized; the paper
// processed 48M requests per type on real hardware, which a simulator
// does not need — throughput estimates converge after tens of cohorts.
type Config struct {
	// Seed makes runs reproducible.
	Seed int64
	// CPURequestsPerType is the isolation run length for CPU baselines.
	CPURequestsPerType int
	// GPUCohortsPerType sets the GPU isolation run length in cohorts.
	GPUCohortsPerType int
	// CohortSize is the Rhythm cohort size (paper default 4096).
	CohortSize int
	// MaxCohorts is the number of cohort contexts in flight (paper: 8).
	MaxCohorts int
	// ValidateEvery samples responses through the validator (0 = off).
	ValidateEvery int
	// TraceRequests is the per-type request count for the Fig 2 study.
	TraceRequests int
	// HostParallelism bounds the host threads used to run independent
	// experiments concurrently AND is plumbed into each simulated
	// device's warp-level parallelism (simt.Config.HostParallelism).
	// 0 = runtime.GOMAXPROCS(0), 1 = fully serial. Results are
	// identical at every setting; only wall-clock changes. DefaultConfig
	// honors the RHYTHM_HOST_PARALLELISM environment variable.
	HostParallelism int
	// SimParallelism bounds the host threads each simulated device uses
	// to execute independent kernel launches of one epoch batch
	// concurrently (simt.Config.SimParallelism; DESIGN.md §13). It
	// composes with warp-level HostParallelism — both draw from the same
	// host pool. 0 = runtime.GOMAXPROCS(0), 1 = serial. Results are
	// bit-identical at every setting; only wall-clock changes.
	// DefaultConfig honors the RHYTHM_SIM_PARALLELISM environment
	// variable.
	SimParallelism int
}

// DefaultConfig returns the quick-run configuration. The
// RHYTHM_HOST_PARALLELISM environment variable, when set to a
// non-negative integer, seeds HostParallelism (1 forces fully serial
// runs — useful for timing comparisons and determinism checks).
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		CPURequestsPerType: 800,
		GPUCohortsPerType:  6,
		CohortSize:         1024,
		MaxCohorts:         4,
		ValidateEvery:      512,
		TraceRequests:      61, // the paper traced 61 requests (§2.3)
		HostParallelism:    envHostParallelism(),
		SimParallelism:     envSimParallelism(),
	}
}

// envHostParallelism reads the RHYTHM_HOST_PARALLELISM override.
func envHostParallelism() int { return envParallelism("RHYTHM_HOST_PARALLELISM") }

// envSimParallelism reads the RHYTHM_SIM_PARALLELISM override.
func envSimParallelism() int { return envParallelism("RHYTHM_SIM_PARALLELISM") }

func envParallelism(env string) int {
	v := os.Getenv(env)
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// PaperScaleConfig returns settings matching the paper's geometry
// (cohort 4096, 8 contexts). Runs take correspondingly longer.
func PaperScaleConfig() Config {
	c := DefaultConfig()
	c.CohortSize = 4096
	c.MaxCohorts = 8
	c.GPUCohortsPerType = 10
	c.CPURequestsPerType = 3000
	return c
}

// ReducedConfig returns the reduced geometry the committed golden output
// and the reduced claim verdicts are taken at: cohorts of 256, two per
// run, 120 requests per CPU run.
func ReducedConfig() Config {
	c := DefaultConfig()
	c.CPURequestsPerType = 120
	c.GPUCohortsPerType = 2
	c.CohortSize = 256
	return c
}

func (c Config) gpuRequestsPerType() int { return c.GPUCohortsPerType * c.CohortSize }

// population is the sessions a harness run pre-creates: four per cohort
// lane and at least 1024, so pipeline.NewPopulation's table has the
// cohort's buckets, at least 256.
func (c Config) population() int { return 4 * max(c.CohortSize, 256) }

// device returns the device of a simulated run: d, or the GTX Titan when
// d is nil, with the harness's warp- and launch-level host parallelism
// wherever d sets none of its own.
func (c Config) device(d *simt.Config) *simt.Config {
	dc := simt.GTXTitan()
	if d != nil {
		dc = *d
	}
	dc.HostParallelism = cmp.Or(dc.HostParallelism, c.HostParallelism)
	dc.SimParallelism = cmp.Or(dc.SimParallelism, c.SimParallelism)
	return &dc
}

func (c Config) validate() {
	if c.CohortSize <= 0 || c.MaxCohorts <= 0 || c.GPUCohortsPerType <= 0 || c.HostParallelism < 0 || c.SimParallelism < 0 {
		panic(fmt.Sprintf("harness: bad config %+v", c))
	}
}
