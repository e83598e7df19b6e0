// Command benchmark is the repository's wall-clock benchmark: seven
// workloads that each stress a different path (host, render cache,
// cohort formation, saturated device, tcp fabric, offline simulator),
// measured end to end and layer by layer from outside the program under
// test. Everything runs in this one process: servers, fabrics and
// workers are hosted on 127.0.0.1:0 and the load comes from nproc
// closed-loop callers. See README.md for the catalogue.
//
//	go run ./benchmark                                  every workload, both passes
//	go run ./benchmark -workload host_mixed -trace 0    one workload, end-to-end pass
//	go run ./benchmark -workload host_mixed -trace 1    one workload, traced pass
//	go run ./benchmark -sets 2                          repeatability self-check
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; -trace 0 reports every
// end-to-end metric and -trace 1 every per-layer metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"rhythm/internal/service"
	"rhythm/internal/workloads"
)

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	clients int
	trace   bool // the traced pass (per-layer metrics) instead of the end-to-end pass
	outDir  string
}

func (c runConfig) tracePath(workload string) string {
	return filepath.Join(c.outDir, workload+".trace.json")
}

func defaultRegistry() *service.Registry { return workloads.Default() }

// runWorkload runs one workload's correctness gate, set-up and measured
// pass.
func runWorkload(name string, cfg runConfig) (*outcome, error) {
	var (
		o   *outcome
		err error
	)
	switch name {
	case "device_saturated":
		o, err = runSaturated(cfg)
	case "fabric_tcp_hostunits":
		o, err = runHostUnits(cfg)
	case "sim_offline":
		o, err = runSim(cfg)
	default:
		for _, s := range socketSpecs {
			if s.name == name {
				o, err = runSocket(s, cfg)
			}
		}
		if o == nil && err == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	o.m["bench.host_cores"] = float64(runtime.NumCPU())
	return o, nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver's contract: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line selects the catalogue's metrics for the pass that ran. A metric
// the workload does not exercise reports 0.
func (o *outcome) line(defs []metricDef) resultLine {
	l := resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := o.m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		l.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return l
}

func passDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printMetrics writes a pass's metrics as a table, one per line.
func printMetrics(workload string, trace bool, o *outcome) {
	pass := "end-to-end"
	if trace {
		pass = "traced"
	}
	fmt.Printf("%s: %s pass: attempted %d, failed %d, correct %v\n", workload, pass, o.attempted, o.failed, o.correct)
	fmt.Printf("  per-slice rates, 1/s: %.0f\n", o.slices)
	for _, d := range passDefs(trace) {
		fmt.Printf("  %-34s %16.6g %s\n", d.name, o.m[d.name], d.unit)
	}
}

// environment is recorded with every multi-workload report.
type environment struct {
	HostCores  int     `json:"host_cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Seed       int64   `json:"seed"`
}

// commit reports the VCS revision the binary was built from, or the
// checkout's HEAD, or "unknown" (the driver's checkout is not a git
// repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return ref
}

// worse reports by what share of a the value b is worse, given the
// metric's direction (negative: better; 0 within the metric's slack).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 || math.Abs(a-b) < d.slack {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all); see README.md for the names")
		seed     = flag.Int64("seed", 1, "seed of every generator: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", -1, "0: end-to-end pass, 1: traced per-layer pass, -1: both (only without -workload)")
		sets     = flag.Int("sets", 1, "run the selected workloads this many times and compare the end-to-end metrics with their bounds")
		clients  = flag.Int("clients", runtime.NumCPU(), "closed-loop callers; at most the core count")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory of the Chrome trace files")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *sets, *clients, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, sets, clients int, outDir string) error {
	if clients < 1 || clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d: want 1..%d (more callers than cores measures the scheduler, not the server)", clients, runtime.NumCPU())
	}
	if seconds <= 0 || sets < 1 || flag.NArg() != 0 {
		return fmt.Errorf("bad arguments: -seconds %v -sets %d %v", seconds, sets, flag.Args())
	}
	if seed < 0 {
		seed = -seed
	}
	names := make([]string, 0, len(workloadDefs))
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	if workload != "" {
		if !slices.Contains(names, workload) {
			return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(names, ", "))
		}
		names = []string{workload}
	}
	cfg := runConfig{seed: seed, seconds: seconds, clients: clients, outDir: outDir}
	env := environment{HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Clients: clients, Seconds: seconds, Seed: seed}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("environment: %s\n", envJSON)

	switch {
	case sets > 1:
		return runSets(names, cfg, sets, env)
	case workload != "" && trace >= 0:
		// The driver's form: one workload, one pass, the result line last.
		watchdog(170 * time.Second)
		cfg.trace = trace == 1
		o, err := runWorkload(workload, cfg)
		if err != nil {
			return err
		}
		printMetrics(workload, cfg.trace, o)
		line, _ := json.Marshal(o.line(passDefs(cfg.trace)))
		fmt.Printf("%s\n", line)
		return nil
	}
	return runAll(names, cfg, trace, env)
}

// watchdog ends the process if a run outlives d: a hung server must
// fail the run, not hang the driver.
func watchdog(d time.Duration) {
	time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "benchmark: watchdog: the run exceeded %v\n", d)
		os.Exit(3)
	})
}

// runAll runs the named workloads' passes and prints every metric by
// name with its unit, then one JSON document with the environment.
func runAll(names []string, cfg runConfig, trace int, env environment) error {
	type report struct {
		Environment environment                      `json:"environment"`
		Workloads   map[string]map[string]resultLine `json:"workloads"`
	}
	rep := report{Environment: env, Workloads: make(map[string]map[string]resultLine)}
	ok := true
	for _, name := range names {
		rep.Workloads[name] = make(map[string]resultLine)
		for _, traced := range []bool{false, true} {
			if (trace == 0 && traced) || (trace == 1 && !traced) {
				continue
			}
			cfg.trace = traced
			o, err := runWorkload(name, cfg)
			if err != nil {
				return err
			}
			printMetrics(name, traced, o)
			ok = ok && o.correct
			key := "end_to_end"
			if traced {
				key = "per_layer"
			}
			rep.Workloads[name][key] = o.line(passDefs(traced))
		}
	}
	doc, _ := json.Marshal(rep)
	fmt.Printf("%s\n", doc)
	if !ok {
		return fmt.Errorf("some operations failed")
	}
	return nil
}

// runSets is the repeatability self-check: the end-to-end pass of every
// named workload, sets times over, and for every end-to-end metric and
// workload the worst relative difference between two sets beside the
// metric's bound. Any breach is an error.
func runSets(names []string, cfg runConfig, sets int, env environment) error {
	vals := make(map[string][][]float64) // workload -> metric index -> per-set values
	for s := 0; s < sets; s++ {
		for _, name := range names {
			o, err := runWorkload(name, cfg)
			if err != nil {
				return err
			}
			if !o.correct {
				return fmt.Errorf("%s: set %d: %d of %d operations failed", name, s+1, o.failed, o.attempted)
			}
			if vals[name] == nil {
				vals[name] = make([][]float64, len(endToEnd))
			}
			for i, d := range endToEnd {
				vals[name][i] = append(vals[name][i], o.m[d.name])
			}
			fmt.Printf("set %d: ", s+1)
			printMetrics(name, false, o)
		}
	}
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Values   []float64 `json:"values"`
		Diff     float64   `json:"relative_difference"`
		Bound    float64   `json:"bound"`
		Breach   bool      `json:"breach"`
	}
	var rows []row
	breaches := 0
	fmt.Printf("\n%-22s %-16s %12s %8s  %s\n", "workload", "metric", "difference", "bound", "values")
	for _, name := range names {
		for i, d := range endToEnd {
			vs := vals[name][i]
			var diff float64
			for a := range vs {
				for b := range vs {
					diff = math.Max(diff, worse(d, vs[a], vs[b]))
				}
			}
			r := row{name, d.name, vs, diff, d.bound, diff > d.bound}
			mark := ""
			if r.Breach {
				breaches++
				mark = "  BREACH"
			}
			fmt.Printf("%-22s %-16s %11.2f%% %7.0f%%  %v%s\n", name, d.name, 100*diff, 100*d.bound, vs, mark)
			rows = append(rows, r)
		}
	}
	doc, _ := json.Marshal(struct {
		Environment environment `json:"environment"`
		Sets        int         `json:"sets"`
		Rows        []row       `json:"rows"`
	}{env, sets, rows})
	fmt.Printf("%s\n", doc)
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metric/workload pairs differ between sets by more than their bound", breaches)
	}
	return nil
}
