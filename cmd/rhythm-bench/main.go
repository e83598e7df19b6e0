// Command rhythm-bench regenerates the paper's tables and figures. Each
// experiment of harness.Experiments is one subcommand; "all" runs the
// full evaluation, "gated" the experiments whose numbers are committed
// in BENCH_baseline.json, and "claims" the full evaluation judged
// against harness.Claims: it prints paper | measured | verdict per
// statement and fails when a verdict differs from the one recorded for
// the default or the reduced geometry. rhythm-bench -h lists them.
//
// Usage:
//
//	rhythm-bench [flags] <experiment>
//
// Flags scale the runs; -paper uses the paper's cohort geometry
// (4096-request cohorts, 8 contexts), which takes several minutes.
// -json suppresses the tables and instead emits one JSON record per
// line on stdout (experiment, metric, value) so results can be tracked
// across revisions. The stream opens with an env/host_cores record and
// every experiment leads with a wall_clock_secs record; those two are
// the only host-dependent values. Every other one is simulated
// (virtual-time) and bit-identical on any host at any -sim-parallelism
// setting, which is what rhythm-benchgate checks against the baseline:
//
//	rhythm-bench -json gated > BENCH_baseline.json   # re-baseline
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"rhythm/internal/harness"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "rhythm-bench:", err)
		os.Exit(1)
	}
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprint(w, "rhythm-bench regenerates the Rhythm paper's evaluation.\n\nUsage: rhythm-bench [flags] <experiment>\n\nExperiments:\n")
	var gated []string
	for _, e := range harness.Experiments {
		fmt.Fprintf(w, "  %-16s %s (%s)\n", e.Name, e.Desc, e.Ref)
		if e.Gated {
			gated = append(gated, e.Name)
		}
	}
	fmt.Fprintf(w, "  %-16s everything above\n", harness.SelectAll)
	fmt.Fprintf(w, "  %-16s the experiments BENCH_baseline.json holds, at its geometry: %s\n", harness.SelectGated, strings.Join(gated, " "))
	fmt.Fprintf(w, "  %-16s everything above, printed as the paper's claims with their verdicts\n\nFlags:\n", harness.SelectClaims)
	fs.SetOutput(w)
	fs.PrintDefaults()
}

// record is the -json line format.
type record struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

// run is the whole command: parse args, pick the experiments, run them
// in registry order. Nothing is written to stdout before the arguments
// are known to be valid.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rhythm-bench", flag.ContinueOnError)
	var (
		paper    = fs.Bool("paper", false, "use the paper's cohort geometry (slower)")
		cohort   = fs.Int("cohort", 0, "override cohort size")
		contexts = fs.Int("contexts", 0, "override in-flight cohort contexts")
		gpuCoh   = fs.Int("gpu-cohorts", 0, "override cohorts per GPU isolation run")
		cpuReqs  = fs.Int("cpu-requests", 0, "override requests per CPU isolation run")
		seed     = fs.Int64("seed", 0, "override workload seed")
		jsonOut  = fs.Bool("json", false, "emit JSON records instead of tables")
		simPar   = fs.Int("sim-parallelism", 0, "host workers per device for independent kernel launches (0 = all cores, 1 = serial; virtual-time results identical)")
	)
	fs.SetOutput(io.Discard) // errors are returned; usage is printed on -h only
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(fs, stderr)
		}
		return err
	}

	cfg := harness.DefaultConfig()
	if *paper {
		cfg = harness.PaperScaleConfig()
	}
	if *cohort > 0 {
		cfg.CohortSize = *cohort
	}
	if *contexts > 0 {
		cfg.MaxCohorts = *contexts
	}
	if *gpuCoh > 0 {
		cfg.GPUCohortsPerType = *gpuCoh
	}
	if *cpuReqs > 0 {
		cfg.CPURequestsPerType = *cpuReqs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one experiment name, got %d %q (run with -h for the list)", fs.NArg(), fs.Args())
	}
	what := fs.Arg(0)
	picked := harness.Select(what)
	if picked == nil {
		return fmt.Errorf("unknown experiment %q (run with -h for the list)", what)
	}
	if what == harness.SelectGated && cfg != harness.DefaultConfig() {
		return errors.New(what + " runs at the geometry BENCH_baseline.json was taken at, which is fixed: drop -paper/-cohort/-contexts/-gpu-cohorts/-cpu-requests/-seed")
	}

	if *simPar != 0 {
		cfg.SimParallelism = *simPar
	}
	if runtime.NumCPU() == 1 && cfg.SimParallelism != 1 {
		fmt.Fprintln(stderr, "rhythm-bench: single-core host: simulator parallelism cannot speed anything up; wall_clock_secs reflects serial execution")
	}

	s := &harness.Session{Cfg: cfg, Out: stdout}
	tables := s.Out
	if what == harness.SelectClaims {
		s.Out = io.Discard // the claims table replaces the experiments' own
	}
	var encErr error
	emit := func(string, string, float64) {}
	if *jsonOut {
		s.Out, tables = io.Discard, io.Discard
		enc := json.NewEncoder(stdout)
		emit = func(experiment, metric string, value float64) {
			if encErr == nil {
				encErr = enc.Encode(record{experiment, metric, value})
			}
		}
	}
	// Lead with the host's core count so a reader of the wall-clock
	// records can tell a single-core run apart from a slow one.
	emit("env", "host_cores", float64(runtime.NumCPU()))
	if len(picked) > 1 {
		fmt.Fprintf(s.Out, "Rhythm reproduction: %s, %d experiments (cohort=%d contexts=%d)\n\n", what, len(picked), cfg.CohortSize, cfg.MaxCohorts)
	}
	results := map[string][]harness.Metric{}
	for _, e := range picked {
		start := time.Now()
		metrics := s.Run(e)
		emit(e.Name, "wall_clock_secs", time.Since(start).Seconds())
		for _, m := range metrics {
			emit(e.Name, m.Name, m.Value)
		}
		results[e.Name] = metrics
	}
	if encErr == nil && what == harness.SelectClaims {
		return harness.CheckClaims(cfg, results, tables)
	}
	return encErr
}
