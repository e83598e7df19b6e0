package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Verdict is how a measured value stands against what the paper says.
type Verdict string

const (
	Holds    Verdict = "holds"    // the relation holds
	Shape    Verdict = "shape"    // it holds only once its tolerance is doubled
	Deviates Verdict = "deviates" // it does not hold, but the row's sanity bound does
	Broken   Verdict = "broken"   // not even the sanity bound holds; no row records it
)

// tolerance is how closely a paper's number is read: within 15 %.
const tolerance = 0.15

// Relation is what the paper's statement asks of a measured value: that
// it lies in [Lo, Hi], or, with Ascend, that the values named strictly
// ascend in the order named. Slack is the tolerance Shape adds: the
// bounds move out by Slack (within 15 % becomes within 30 %, a bound or
// a range moves out by 15 % of the paper's value), and an ordering lets
// each term fall short of the one before it by the fraction Slack.
type Relation struct {
	Lo, Hi, Slack float64
	Ascend        bool
}

// bound is [lo, hi], its slack the tolerance of the paper's value v.
func bound(lo, hi, v float64) Relation {
	return Relation{Lo: lo, Hi: hi, Slack: tolerance * math.Abs(v)}
}
func within(v float64) Relation       { return bound(v-tolerance*math.Abs(v), v+tolerance*math.Abs(v), v) }
func between(lo, hi float64) Relation { return bound(lo, hi, math.Max(math.Abs(lo), math.Abs(hi))) }
func atLeast(v float64) Relation      { return bound(v, math.Inf(1), v) }
func atMost(v float64) Relation       { return bound(math.Inf(-1), v, v) }

var ascending = Relation{Ascend: true, Slack: tolerance}

// tenfold is the sanity bound of a row whose value no replaced test
// bounded: the paper's value, or range, within an order of magnitude.
// A model that far off is broken, not deviating.
func tenfold(lo, hi float64) Relation { return Relation{Lo: lo / 10, Hi: hi * 10} }

// holds reports whether vals, the values of the metrics a claim names
// (one value, a ratio's numerator and denominator, or an ordering's
// terms), meet r with k times its slack added.
func (r Relation) holds(vals []float64, k float64) bool {
	if r.Ascend {
		for i := 1; i < len(vals); i++ {
			if !(vals[i-1]*(1-k*r.Slack) < vals[i]) {
				return false
			}
		}
		return true
	}
	v := vals[0]
	if len(vals) == 2 {
		v /= vals[1]
	}
	return v >= r.Lo-k*r.Slack && v <= r.Hi+k*r.Slack
}

// Claim is one statement the paper makes, checked against the metrics
// one experiment returns.
type Claim struct {
	Ref        string   // where the paper says it
	Says       string   // the statement
	Experiment string   // the registry entry that measures it
	Of         []string // the metric; a ratio's numerator and denominator; or an ordering's terms
	Paper      string   // the paper's value, as the paper gives it
	Rel        Relation
	// Verdict is what the default configuration measures. Reduced is
	// what the reduced configuration measures, where that differs:
	// there, cohorts of 256 leave the device underfilled.
	Verdict, Reduced Verdict
	Why              string // why a verdict is not holds
	// Sane is the bound a row recorded deviates must still meet, so a
	// gross regression fails: the replaced shape test's bound, or tenfold.
	Sane Relation
}

// Eval judges the claim against ms, its experiment's metrics, and
// renders the measured value, ratio or ordering. A metric the experiment
// did not return is an error.
func (c Claim) Eval(ms []Metric) (string, Verdict, error) {
	vals := make([]float64, len(c.Of))
	for i, name := range c.Of {
		j := slices.IndexFunc(ms, func(m Metric) bool { return m.Name == name })
		if j < 0 {
			return "", "", fmt.Errorf("%s returns no metric %q", c.Experiment, name)
		}
		vals[i] = ms[j].Value
	}
	var shown string
	switch {
	case c.Rel.Ascend:
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = show(v)
		}
		shown = strings.Join(parts, " < ")
	case len(vals) == 2:
		shown = show(vals[0]/vals[1]) + "x"
	default:
		shown = show(vals[0])
	}
	return shown, c.judge(vals), nil
}

func (c Claim) judge(vals []float64) Verdict {
	switch {
	case c.Sane != (Relation{}) && !c.Sane.holds(vals, 0):
		return Broken
	case c.Rel.holds(vals, 0):
		return Holds
	case c.Rel.holds(vals, 1):
		return Shape
	}
	return Deviates
}

// Expect is the verdict c records for cfg's geometry, or "" for a
// geometry it records none for.
func (c Claim) Expect(cfg Config) Verdict {
	switch geometry(cfg) {
	case geometry(ReducedConfig()):
		if c.Reduced != "" {
			return c.Reduced
		}
		fallthrough
	case geometry(DefaultConfig()):
		return c.Verdict
	}
	return ""
}

// geometry is cfg without the host parallelism, which moves no number.
func geometry(cfg Config) Config {
	cfg.HostParallelism, cfg.SimParallelism = 0, 0
	return cfg
}

func show(v float64) string {
	switch a := math.Abs(v); {
	case a >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case a >= 1e4:
		return kilo(v)
	case a >= 100 || v == math.Trunc(v):
		return f0(v)
	case a >= 10:
		return f1(v)
	}
	return f2(v)
}

// CheckClaims judges every claim against ms, the metrics each experiment
// returned at cfg, prints paper | measured | verdict to w, and fails
// naming every claim whose verdict differs from the one recorded for
// cfg's geometry.
func CheckClaims(cfg Config, ms map[string][]Metric, w io.Writer) error {
	t := &Table{
		Title:   "Claims: the paper's statements against this run",
		Caption: fmt.Sprintf("cohort=%d contexts=%d gpu-cohorts=%d cpu-requests=%d; shape = holds once its tolerance is doubled", cfg.CohortSize, cfg.MaxCohorts, cfg.GPUCohortsPerType, cfg.CPURequestsPerType),
		Headers: []string{"#", "Ref", "The paper says", "Paper", "Measured", "Verdict"},
	}
	var notes, changed []string
	for i, c := range Claims {
		shown, got, err := c.Eval(ms[c.Experiment])
		if err != nil {
			return err
		}
		cell := string(got)
		if want := c.Expect(cfg); want != "" && want != got {
			cell += " (recorded: " + string(want) + ")"
			changed = append(changed, fmt.Sprintf("#%d %s", i+1, c.Says))
		}
		t.AddRow(fmt.Sprint(i+1), c.Ref, c.Says, c.Paper, shown, cell)
		if got != Holds && c.Why != "" {
			notes = append(notes, fmt.Sprintf("#%d: %s", i+1, c.Why))
		}
	}
	t.Print(w)
	fmt.Fprint(w, strings.Join(append(notes, ""), "\n"))
	if len(changed) > 0 {
		return fmt.Errorf("%d verdicts differ from the recorded ones: %s", len(changed), strings.Join(changed, "; "))
	}
	return nil
}

// Reasons shared by several claims.
const (
	whyLatency = "the model does not price the prototype's CUDA driver queueing and host polling, so Titan latencies run about 10x low; their order holds"
	whyTitanW  = "the Titan power curve is fit at cohort 4096, where Titan B draws 237 W against the paper's 232 W; smaller cohorts keep the device less busy"
	whyTitanC  = "cohorts of 1024 underfill Titan C; at the paper's 4096 the model overshoots instead (4184K, C/B = 2.0)"
	whyEff     = "the paper's eff(dyn) column is not its throughput over its dynamic watts (377K / 111 W = 3396 for the i7 8w, 1535K / 232 W = 6616 for Titan B); ours is"
	whySmall   = "cohorts of 256 underfill the device; the default's 1024 fill it"
	whyPerType = "per-type counts are structural, only the mix average is calibrated (DESIGN.md §6)"
)

// Claims is the paper's evaluation as checkable statements, one row per
// statement, in registry order. EXPERIMENTS.md's comparison tables are
// `rhythm-bench claims`'s rendering of it.
var Claims = []Claim{
	{Ref: "Table 1", Says: "the GTX Titan has 14 SMs", Experiment: "table1", Of: []string{"Titan/sms"},
		Paper: "14", Rel: between(14, 14), Verdict: Holds},
	{Ref: "Table 2", Says: "mix-weighted instructions per request", Experiment: "table2", Of: []string{"mix/instr_per_req"},
		Paper: "331509", Rel: within(331509), Verdict: Holds},
	{Ref: "Table 2", Says: "each type's instructions per request (lowest ratio to the paper's)", Experiment: "table2", Of: []string{"per_type/instr_ratio_min"},
		Paper: "1.00x", Rel: within(1), Verdict: Shape, Sane: between(0.5, 2), Why: whyPerType + ": bill_pay runs 0.84x"},
	{Ref: "Table 2", Says: "each type's instructions per request (highest ratio to the paper's)", Experiment: "table2", Of: []string{"per_type/instr_ratio_max"},
		Paper: "1.00x", Rel: within(1), Verdict: Deviates, Sane: between(0.5, 2), Why: whyPerType + ": login runs 1.42x, inside the 0.5-2x calibration contract"},
	{Ref: "Table 2", Says: "response content sizes of 4-46 KB per type (largest error, KB)", Experiment: "table2", Of: []string{"per_type/content_kb_error_max"},
		Paper: "0", Rel: between(0, 0.1), Verdict: Holds},
	{Ref: "Figure 2", Says: "2-6 unique traces per request type (fewest)", Experiment: "fig2", Of: []string{"per_type/unique_traces_min"},
		Paper: "2", Rel: between(2, 6), Verdict: Holds},
	{Ref: "Figure 2", Says: "2-6 unique traces per request type (most)", Experiment: "fig2", Of: []string{"per_type/unique_traces_max"},
		Paper: "6", Rel: between(2, 6), Verdict: Holds},
	{Ref: "Figure 2", Says: "merged traces speed up nearly linearly (worst type, normalized)", Experiment: "fig2", Of: []string{"per_type/normalized_speedup_min"},
		Paper: "~1.0", Rel: within(1), Verdict: Holds},
	{Ref: "Figure 2", Says: "no type speeds up better than linearly (best type, normalized)", Experiment: "fig2", Of: []string{"per_type/normalized_speedup_max"},
		Paper: "<=1", Rel: atMost(1), Verdict: Holds},
	{Ref: "Table 3", Says: "Core i5 1w throughput", Experiment: "table3", Of: []string{"Core i5 1w/throughput_req_s"},
		Paper: "75K", Rel: within(75e3), Verdict: Holds},
	{Ref: "Table 3", Says: "Core i5 4w throughput", Experiment: "table3", Of: []string{"Core i5 4w/throughput_req_s"},
		Paper: "282K", Rel: within(282e3), Verdict: Holds},
	{Ref: "Table 3", Says: "Core i7 4w throughput", Experiment: "table3", Of: []string{"Core i7 4w/throughput_req_s"},
		Paper: "331K", Rel: within(331e3), Verdict: Holds},
	{Ref: "Table 3", Says: "Core i7 8w throughput", Experiment: "table3", Of: []string{"Core i7 8w/throughput_req_s"},
		Paper: "377K", Rel: within(377e3), Verdict: Holds},
	{Ref: "Table 3", Says: "ARM A9 1w throughput", Experiment: "table3", Of: []string{"ARM A9 1w/throughput_req_s"},
		Paper: "8K", Rel: within(8e3), Verdict: Holds},
	{Ref: "Table 3", Says: "ARM A9 2w throughput", Experiment: "table3", Of: []string{"ARM A9 2w/throughput_req_s"},
		Paper: "16K", Rel: within(16e3), Verdict: Holds},
	{Ref: "Table 3", Says: "Titan A throughput", Experiment: "table3", Of: []string{"Titan A/throughput_req_s"},
		Paper: "398K", Rel: within(398e3), Verdict: Holds, Reduced: Deviates, Sane: tenfold(398e3, 398e3), Why: whySmall},
	{Ref: "Table 3", Says: "Titan B throughput", Experiment: "table3", Of: []string{"Titan B/throughput_req_s"},
		Paper: "1535K", Rel: within(1535e3), Verdict: Holds, Reduced: Deviates, Sane: between(0.7e6, 3e6), Why: whySmall},
	{Ref: "Table 3", Says: "Titan C throughput", Experiment: "table3", Of: []string{"Titan C/throughput_req_s"},
		Paper: "3082K", Rel: within(3082e3), Verdict: Shape, Reduced: Deviates, Sane: tenfold(3082e3, 3082e3), Why: whyTitanC},
	{Ref: "Table 3", Says: "Titan A < Titan B < Titan C in throughput", Experiment: "table3", Of: []string{"Titan A/throughput_req_s", "Titan B/throughput_req_s", "Titan C/throughput_req_s"},
		Paper: "398K < 1535K < 3082K", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 6.1", Says: "Titan B serves more than 4x the Core i7 8w", Experiment: "table3", Of: []string{"Titan B/throughput_req_s", "Core i7 8w/throughput_req_s"},
		Paper: ">4x", Rel: atLeast(4), Verdict: Holds, Reduced: Deviates, Sane: tenfold(4, 4), Why: whySmall},
	{Ref: "Sec 6.1", Says: "Titan C serves about 8x the Core i7 8w", Experiment: "table3", Of: []string{"Titan C/throughput_req_s", "Core i7 8w/throughput_req_s"},
		Paper: "~8x", Rel: within(8), Verdict: Shape, Reduced: Deviates, Sane: tenfold(8, 8), Why: whyTitanC},
	{Ref: "Table 3", Says: "Titan C doubles Titan B", Experiment: "table3", Of: []string{"Titan C/throughput_req_s", "Titan B/throughput_req_s"},
		Paper: "2.0x", Rel: within(2), Verdict: Shape, Reduced: Deviates, Sane: tenfold(2, 2), Why: whyTitanC},
	{Ref: "Table 3", Says: "Core i7 8w dynamic efficiency (req/J)", Experiment: "table3", Of: []string{"Core i7 8w/dyn_eff_req_j"},
		Paper: "2873", Rel: within(2873), Verdict: Shape, Why: whyEff},
	{Ref: "Table 3", Says: "ARM A9 2w dynamic efficiency (req/J)", Experiment: "table3", Of: []string{"ARM A9 2w/dyn_eff_req_j"},
		Paper: "4830", Rel: within(4830), Verdict: Deviates, Sane: between(3500, 6500), Why: whyEff},
	{Ref: "Table 3", Says: "Titan B dynamic efficiency (req/J)", Experiment: "table3", Of: []string{"Titan B/dyn_eff_req_j"},
		Paper: "4410", Rel: within(4410), Verdict: Deviates, Sane: tenfold(4410, 4410), Why: whyEff + "; Titan B also draws less (" + whyTitanW + ")"},
	{Ref: "Figure 8a", Says: "only Titan B and C reach the desired region (wall power)", Experiment: "fig8", Of: []string{"desired_region/platforms_wall"},
		Paper: "2", Rel: between(2, 2), Verdict: Holds},
	{Ref: "Figure 8b", Says: "only Titan B and C reach the desired region (dynamic power)", Experiment: "fig8", Of: []string{"desired_region/platforms_dyn"},
		Paper: "2", Rel: between(2, 2), Verdict: Holds},
	{Ref: "Figure 8", Says: "Titan A has the i7's throughput (normalized to the i7 8w)", Experiment: "fig8", Of: []string{"Titan A/norm_throughput"},
		Paper: "1.06", Rel: within(1.06), Verdict: Holds, Reduced: Deviates, Sane: tenfold(1.06, 1.06), Why: whySmall},
	{Ref: "Figure 8", Says: "Titan A has poor efficiency (dynamic, normalized to the A9 2w)", Experiment: "fig8", Of: []string{"Titan A/norm_eff_dyn"},
		Paper: "<1", Rel: atMost(1), Verdict: Holds},
	{Ref: "Figure 8b", Says: "Titan C has 2.5x the A9's dynamic efficiency", Experiment: "fig8", Of: []string{"Titan C/norm_eff_dyn"},
		Paper: "2.5x", Rel: within(2.5), Verdict: Holds, Reduced: Deviates, Sane: tenfold(2.5, 2.5), Why: whySmall},
	// The model leaves out costs the prototype paid and adds none, so a
	// Titan latency above the paper's is broken.
	{Ref: "Table 3", Says: "Titan A mean latency (ms)", Experiment: "fig8", Of: []string{"Titan A/latency_ms"},
		Paper: "86", Rel: within(86), Verdict: Deviates, Sane: between(0.86, 86), Why: whyLatency},
	{Ref: "Table 3", Says: "Titan B mean latency (ms)", Experiment: "fig8", Of: []string{"Titan B/latency_ms"},
		Paper: "24", Rel: within(24), Verdict: Deviates, Sane: between(0.24, 24), Why: whyLatency},
	{Ref: "Table 3", Says: "Titan C mean latency (ms)", Experiment: "fig8", Of: []string{"Titan C/latency_ms"},
		Paper: "10", Rel: within(10), Verdict: Deviates, Sane: between(0.1, 10), Why: whyLatency},
	{Ref: "Table 3", Says: "latency falls from Titan A to B to C", Experiment: "fig8", Of: []string{"Titan C/latency_ms", "Titan B/latency_ms", "Titan A/latency_ms"},
		Paper: "10 < 24 < 86", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 3.1", Says: "cohorts trade latency for throughput: the slowest CPU answers before the fastest Titan", Experiment: "fig8", Of: []string{"ARM A9 1w/latency_ms", "Titan C/latency_ms"},
		Paper: "0.176 < 10", Rel: ascending, Verdict: Holds},
	{Ref: "Figure 9", Says: "every type reaches 83-95% of its PCIe 3.0 bound (lowest)", Experiment: "fig9", Of: []string{"per_type/bound_fraction_min"},
		Paper: "0.83", Rel: between(0.83, 0.95), Verdict: Shape, Why: "the event-driven bus has no per-chunk overhead, so it tracks the bound more closely; cohorts of 256 fall short of it"},
	{Ref: "Figure 9", Says: "every type reaches 83-95% of its PCIe 3.0 bound (highest)", Experiment: "fig9", Of: []string{"per_type/bound_fraction_max"},
		Paper: "0.95", Rel: between(0.83, 0.95), Verdict: Shape, Why: "the event-driven bus has no per-chunk overhead, so it tracks the bound more closely; cohorts of 256 fall short of it"},
	{Ref: "Figure 9", Says: "PCIe 3.0 bounds Titan A on every type (highest fraction)", Experiment: "fig9", Of: []string{"per_type/bound_fraction_max"},
		Paper: "<=1", Rel: atMost(1), Verdict: Holds},
	{Ref: "Figure 10", Says: "Titan B serves 3.5-5x the i7 on each type (lowest)", Experiment: "fig10", Of: []string{"per_type/norm_throughput_min"},
		Paper: "3.5x", Rel: between(3.5, 5), Verdict: Shape, Reduced: Deviates, Sane: tenfold(3.5, 5), Why: "profile runs 3.48x, just under the range; " + whySmall},
	{Ref: "Figure 10", Says: "Titan B serves 3.5-5x the i7 on each type (highest)", Experiment: "fig10", Of: []string{"per_type/norm_throughput_max"},
		Paper: "5x", Rel: between(3.5, 5), Verdict: Holds, Reduced: Deviates, Sane: tenfold(3.5, 5), Why: whySmall},
	{Ref: "Figure 10", Says: "Titan B has 105-120% of the A9's dynamic efficiency on each type (lowest)", Experiment: "fig10", Of: []string{"per_type/norm_eff_dyn_min"},
		Paper: "1.05", Rel: between(1.05, 1.2), Verdict: Holds, Reduced: Shape, Why: whySmall},
	{Ref: "Figure 10", Says: "Titan B has 105-120% of the A9's dynamic efficiency on each type (highest)", Experiment: "fig10", Of: []string{"per_type/norm_eff_dyn_max"},
		Paper: "1.2", Rel: between(1.05, 1.2), Verdict: Deviates, Reduced: Holds, Sane: tenfold(1.05, 1.2), Why: "login, the smallest page, reaches 1.47x: its fixed costs amortize best"},
	{Ref: "Figure 10", Says: "types whose buffer is close to the content size do best (pad ratio vs throughput, correlation)", Experiment: "fig10", Of: []string{"per_type/pad_throughput_correlation"},
		Paper: "<0", Rel: between(-1, 0), Verdict: Holds},
	{Ref: "Sec 6.2", Says: "ARM A9 cores to match Titan B", Experiment: "scaling", Of: []string{"Titan B/ARM A9/cores"},
		Paper: "192", Rel: within(192), Verdict: Holds, Reduced: Deviates, Sane: tenfold(192, 192), Why: whySmall},
	{Ref: "Sec 6.2", Says: "Core i5 cores to match Titan B", Experiment: "scaling", Of: []string{"Titan B/Core i5/cores"},
		Paper: "21", Rel: within(21), Verdict: Holds, Reduced: Deviates, Sane: tenfold(21, 21), Why: whySmall},
	{Ref: "Sec 6.2", Says: "ARM A9 cores to match Titan C", Experiment: "scaling", Of: []string{"Titan C/ARM A9/cores"},
		Paper: "385", Rel: within(385), Verdict: Shape, Reduced: Deviates, Sane: tenfold(385, 385), Why: whyTitanC},
	// A power budget is off by at most the Titan's own dynamic watts.
	{Ref: "Sec 6.2", Says: "Titan B leaves the ARM system 40 W for its uncore (W)", Experiment: "scaling", Of: []string{"Titan B/ARM A9/headroom_w"},
		Paper: "40", Rel: within(40), Verdict: Deviates, Sane: between(40-232, 40+232), Why: whyTitanW},
	{Ref: "Sec 6.2", Says: "Titan B leaves the i5 system 22 W for its uncore (W)", Experiment: "scaling", Of: []string{"Titan B/Core i5/headroom_w"},
		Paper: "22", Rel: within(22), Verdict: Deviates, Sane: between(22-232, 22+232), Why: whyTitanW},
	{Ref: "Sec 6.2", Says: "Titan C keeps a >170 W margin over the ARM system for a transpose unit (W)", Experiment: "scaling", Of: []string{"Titan C/ARM A9/headroom_w"},
		Paper: "<-170", Rel: atMost(-170), Verdict: Deviates, Sane: between(-170-211, -170+211), Why: whyTitanC},
	{Ref: "Table 3", Says: "Titan B dynamic power (W)", Experiment: "scaling", Of: []string{"Titan B/dyn_w"},
		Paper: "232", Rel: within(232), Verdict: Shape, Reduced: Deviates, Sane: between(90, 260), Why: whyTitanW},
	{Ref: "Table 3", Says: "Titan C dynamic power (W)", Experiment: "scaling", Of: []string{"Titan C/dyn_w"},
		Paper: "211", Rel: within(211), Verdict: Shape, Reduced: Deviates, Sane: tenfold(211, 211), Why: whyTitanW},
	{Ref: "Sec 6.3", Says: "Titan A network bandwidth (Gbps)", Experiment: "resources", Of: []string{"Titan A/network_gbps"},
		Paper: "67", Rel: within(67), Verdict: Holds, Reduced: Shape, Why: whySmall},
	{Ref: "Sec 6.3", Says: "Titan B network bandwidth (Gbps)", Experiment: "resources", Of: []string{"Titan B/network_gbps"},
		Paper: "258", Rel: within(258), Verdict: Holds, Reduced: Deviates, Sane: tenfold(258, 258), Why: whySmall},
	{Ref: "Sec 6.3", Says: "Titan C network bandwidth (Gbps)", Experiment: "resources", Of: []string{"Titan C/network_gbps"},
		Paper: "517", Rel: within(517), Verdict: Shape, Reduced: Deviates, Sane: tenfold(517, 517), Why: whyTitanC},
	{Ref: "Sec 6.3", Says: "with 80% compression Titan C fits a 100 Gbps link (Gbps)", Experiment: "resources", Of: []string{"Titan C/compressed_gbps"},
		Paper: "<=100", Rel: atMost(100), Verdict: Holds},
	{Ref: "Sec 3.2, 6.3", Says: "uncompressed, one device saturates a 100 Gbps front end, so scale-out is link-bound (Gbps)", Experiment: "resources", Of: []string{"Titan B/network_gbps"},
		Paper: ">100", Rel: atLeast(100), Verdict: Holds},
	{Ref: "Sec 6.3", Says: "16M live sessions take 640 MB", Experiment: "resources", Of: []string{"sessions_16M/mb"},
		Paper: "640", Rel: within(640), Verdict: Holds},
	{Ref: "Sec 6.3", Says: "a 64M-slot session array takes 2.5 GB", Experiment: "resources", Of: []string{"session_array_64M/gb"},
		Paper: "2.5", Rel: within(2.5), Verdict: Holds},
	{Ref: "Sec 6.3", Says: "8 cohorts of 4096 fit a 6 GB Titan", Experiment: "resources", Of: []string{"cohorts_4096_in_6GB/count"},
		Paper: "8", Rel: within(8), Verdict: Deviates, Sane: tenfold(8, 8), Why: "our per-cohort buffers differ from the prototype's (backend rows are staged), so 12 fit"},
	{Ref: "Sec 6.4", Says: "larger cohorts raise throughput, 256 to 8192", Experiment: "cohort-sweep", Of: []string{"cohort256/throughput_req_s", "cohort512/throughput_req_s", "cohort1024/throughput_req_s", "cohort2048/throughput_req_s", "cohort4096/throughput_req_s", "cohort8192/throughput_req_s"},
		Paper: "rising", Rel: ascending, Verdict: Shape, Reduced: Holds, Why: "cohort 1024 runs at 1225K, 1% below 512's 1239K, at any run length (also with 4x the cohorts); the curve still rises 2.2x from 256 to 8192, and the shorter reduced runs slow 512 to 1211K"},
	{Ref: "Sec 6.4", Says: "larger cohorts need more device memory", Experiment: "cohort-sweep", Of: []string{"cohort256/memory_mb", "cohort512/memory_mb", "cohort1024/memory_mb", "cohort2048/memory_mb", "cohort4096/memory_mb", "cohort8192/memory_mb"},
		Paper: "rising", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 6.4", Says: "4096 is the sweet spot: doubling past it buys little throughput", Experiment: "cohort-sweep", Of: []string{"cohort8192/throughput_req_s", "cohort4096/throughput_req_s"},
		Paper: "~1x", Rel: within(1), Verdict: Holds},
	{Ref: "Table 3, Sec 6.4", Says: "at the paper's cohort of 4096, Titan B serves its Table 3 rate (account_summary)", Experiment: "cohort-sweep", Of: []string{"cohort4096/throughput_req_s"},
		Paper: "1535K", Rel: within(1535e3), Verdict: Holds},
	{Ref: "Table 3, Sec 6.4", Says: "at the paper's cohort of 4096, Titan B draws its Table 3 dynamic power (W)", Experiment: "cohort-sweep", Of: []string{"cohort4096/dyn_w"},
		Paper: "232", Rel: within(232), Verdict: Holds},
	{Ref: "Sec 6.4", Says: "the parser handles a mixed cohort at 7.4M req/s (556 us per 4096)", Experiment: "parser", Of: []string{"mixed/throughput_req_s"},
		Paper: "7.4M", Rel: within(7.4e6), Verdict: Deviates, Sane: tenfold(7.4e6, 7.4e6), Why: "our parser model is about 8x cheaper per byte than the paper's measured kernel"},
	{Ref: "Sec 6.4", Says: "the parser is fast enough to feed the pipeline (vs Titan C's 3082K)", Experiment: "parser", Of: []string{"mixed/throughput_req_s"},
		Paper: ">3082K", Rel: atLeast(3082e3), Verdict: Holds},
	{Ref: "Sec 6.4", Says: "mixed-type cohorts diverge in the parser (divergent block executions)", Experiment: "parser", Of: []string{"mixed/divergent_execs"},
		Paper: ">0", Rel: atLeast(1), Verdict: Holds},
	{Ref: "Sec 6.4", Says: "divergence never makes a mixed cohort parse faster than a single-type one (mixed / single)", Experiment: "parser", Of: []string{"mixed/throughput_req_s", "single/throughput_req_s"},
		Paper: "<=1x", Rel: atMost(1), Verdict: Holds},
	{Ref: "Sec 6.4", Says: "a single hardware work queue limits throughput (1 queue < HyperQ)", Experiment: "hyperq", Of: []string{"GTX Titan (1 queue)/throughput_req_s", "Titan A/throughput_req_s"},
		Paper: "limited", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 6.1.1", Says: "PCIe 3.0 bounds Titan A (bus utilization)", Experiment: "pcie4", Of: []string{"pcie3/bus_util"},
		Paper: "bus-bound", Rel: atLeast(0.8), Verdict: Holds, Reduced: Shape, Why: whySmall},
	{Ref: "Sec 6.1.1", Says: "PCIe 4.0 could lift Titan A to 864K req/s", Experiment: "pcie4", Of: []string{"pcie4/throughput_req_s"},
		Paper: "864K", Rel: within(864e3), Verdict: Shape, Reduced: Deviates, Sane: tenfold(864e3, 864e3), Why: "the model's Titan A starts at 347K, not 398K, and the doubled bus lifts it 1.82x"},
	{Ref: "Sec 6.1.1", Says: "PCIe 4.0 lifts Titan A 2.17x (864K / 398K)", Experiment: "pcie4", Of: []string{"pcie4/throughput_req_s", "pcie3/throughput_req_s"},
		Paper: "2.17x", Rel: within(864.0 / 398), Verdict: Shape, Reduced: Deviates, Sane: between(1, 2.3), Why: "the doubled bus lifts the model's Titan A 1.82x: past the bus, the device itself binds sooner; " + whySmall},
	{Ref: "Sec 6.1.1", Says: "even on PCIe 4.0 the bus is still a bottleneck (bus utilization)", Experiment: "pcie4", Of: []string{"pcie4/bus_util"},
		Paper: "bottleneck", Rel: atLeast(0.8), Verdict: Holds, Reduced: Deviates, Sane: tenfold(0.8, 0.8), Why: whySmall},
	{Ref: "Sec 6.4 future work", Says: "a CPU SIMD version is a useful data point: AVX cohorts stay under the DRAM roofline, which binds before compute", Experiment: "cpu-simd", Of: []string{"simd/throughput_req_s", "memory_roofline/throughput_req_s", "compute_roofline/throughput_req_s"},
		Paper: "DRAM-bound", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 3.1", Says: "stragglers finished on the host keep a stalled backend from holding up the cohort (p99 ms)", Experiment: "stragglers", Of: []string{"deadline/p99_ms", "wait/p99_ms"},
		Paper: "shorter tail", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 5.1", Says: "check_detail_images is disk bound and needs GPUfs (host filesystem < GPUfs)", Experiment: "gpufs", Of: []string{"hostfs/throughput_req_s", "gpufs/throughput_req_s"},
		Paper: "disk bound", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 5.1", Says: "without GPUfs, check_detail_images goes to disk (host page faults)", Experiment: "gpufs", Of: []string{"hostfs/faults"},
		Paper: "disk bound", Rel: atLeast(1), Verdict: Holds},
	{Ref: "Sec 5.1", Says: "quick_pay's variable number of kernel launches costs throughput (quick_pay < bill_pay)", Experiment: "quick-pay", Of: []string{"quick_pay/throughput_req_s", "bill_pay/throughput_req_s"},
		Paper: "skipped", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 3.2", Says: "the pipeline can be distributed over machines (per-node efficiency at 32 nodes)", Experiment: "scaleout", Of: []string{"nodes32/efficiency"},
		Paper: "future work", Rel: within(1), Verdict: Holds},
	{Ref: "Sec 3.2", Says: "distributed over 32 machines, the pipeline serves 32x one (throughput ratio)", Experiment: "scaleout", Of: []string{"nodes32/throughput_req_s", "nodes1/throughput_req_s"},
		Paper: "future work", Rel: within(32), Verdict: Holds},
	{Ref: "Sec 3.2", Says: "distributed over 32 machines, no kernel fails", Experiment: "scaleout", Of: []string{"nodes32/kernel_errs"},
		Paper: "future work", Rel: atMost(0), Verdict: Holds},
	{Ref: "Sec 3.2", Says: "distributed over 32 machines, no write is lost", Experiment: "scaleout", Of: []string{"nodes32/lost_writes"},
		Paper: "future work", Rel: atMost(0), Verdict: Holds},
	{Ref: "Sec 4.3.2", Says: "whitespace padding aligns pages so stores coalesce (off < on)", Experiment: "ablations", Of: []string{"padding_off/throughput_req_s", "padding_on/throughput_req_s"},
		Paper: "faster", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 4.3.2", Says: "transposed buffers coalesce (row-major < column-major)", Experiment: "ablations", Of: []string{"transpose_off/throughput_req_s", "transpose_on/throughput_req_s"},
		Paper: "faster", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 4.3.2", Says: "intra-request parallelism performs poorly (intra < inter)", Experiment: "ablations", Of: []string{"intra_request/throughput_req_s", "inter_request/throughput_req_s"},
		Paper: "poorly", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 4.3.2", Says: "intra-request parallelism performs poorly: inter-request wins by a large factor (inter / intra)", Experiment: "ablations", Of: []string{"inter_request/throughput_req_s", "intra_request/throughput_req_s"},
		Paper: "poorly", Rel: atLeast(8), Verdict: Holds},
	{Ref: "Sec 3.1", Says: "waiting longer to form cohorts raises throughput (50 us < 10 ms timeout)", Experiment: "timeout", Of: []string{"timeout50us/throughput_req_s", "timeout10000us/throughput_req_s"},
		Paper: "trade-off", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 3.1", Says: "the formation timeout bounds the latency batching adds: an SLO-aware window beats a fixed 2 ms at low load (p99 ms)", Experiment: "adaptive", Of: []string{"adaptive_low/p99_ms", "fixed_low/p99_ms"},
		Paper: "bounded", Rel: ascending, Verdict: Holds},
	{Ref: "Sec 3", Says: "the architecture is not banking-specific: three workloads share devices (telemetry frames lost)", Experiment: "workloads", Of: []string{"telemetry/frames_lost"},
		Paper: "general", Rel: atMost(0), Verdict: Holds},
}
