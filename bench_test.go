package rhythm

// BenchmarkExperiments regenerates the paper's evaluation under `go test
// -bench`: one sub-benchmark per entry of harness.Experiments, at a
// reduced scale (a pinned entry runs at its pin), reporting every metric
// the entry returns. cmd/rhythm-bench runs the same experiments with
// formatted tables.

import (
	"io"
	"strings"
	"testing"

	"rhythm/internal/harness"
)

func BenchmarkExperiments(b *testing.B) {
	cfg := harness.DefaultConfig()
	cfg.CPURequestsPerType = 300
	cfg.GPUCohortsPerType = 3
	cfg.CohortSize = 512
	cfg.ValidateEvery = 0
	cfg.TraceRequests = 30
	for _, e := range harness.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			var ms []harness.Metric
			for i := 0; i < b.N; i++ {
				ms = (&harness.Session{Cfg: cfg, Out: io.Discard}).Run(e)
			}
			for _, m := range ms {
				// A unit may hold no whitespace: "Titan B/..." reports
				// as "Titan_B/...".
				b.ReportMetric(m.Value, strings.ReplaceAll(m.Name, " ", "_"))
			}
		})
	}
}

// BenchmarkEndToEndMixed pushes the Table 2 mix through the public API
// (the quickstart scenario) and reports simulated throughput.
func BenchmarkEndToEndMixed(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		srv := NewSimServer(Options{
			Platform:         TitanB,
			CohortSize:       512,
			MaxCohorts:       6,
			FormationTimeout: 2_000_000, // 2 ms
			ValidateEvery:    0,
		})
		st := srv.Serve(srv.GenerateMixed(4 * 512))
		tput = st.Throughput
	}
	b.ReportMetric(tput, "reqs/s")
}
