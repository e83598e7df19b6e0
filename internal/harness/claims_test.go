package harness

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// reduced runs each experiment once per test binary at the reduced
// geometry, in one session that shares the Table 3 runs, and keeps what
// each printed.
var reduced struct {
	sync.Mutex
	s   *Session
	ms  map[string][]Metric
	out map[string]string
}

func reducedRun(name string) ([]Metric, string) {
	reduced.Lock()
	defer reduced.Unlock()
	if reduced.s == nil {
		reduced.s = &Session{Cfg: ReducedConfig()}
		reduced.ms, reduced.out = map[string][]Metric{}, map[string]string{}
	}
	ms, ok := reduced.ms[name]
	if !ok {
		var out strings.Builder
		reduced.s.Out = &out
		ms = reduced.s.Run(Select(name)[0])
		reduced.ms[name], reduced.out[name] = ms, out.String()
	}
	return ms, reduced.out[name]
}

// checkClaims judges claims at the reduced geometry and fails naming
// every one whose verdict differs from the recorded one. Each selector
// "experiment:prefix" picks the experiment's claims that read a metric
// starting with prefix; no selector picks every claim.
func checkClaims(t *testing.T, sel ...string) {
	t.Helper()
	n := 0
	for i, c := range Claims {
		if len(sel) > 0 && !selects(sel, c) {
			continue
		}
		n++
		ms, _ := reducedRun(c.Experiment)
		shown, got, err := c.Eval(ms)
		if err != nil {
			t.Errorf("claim #%d: %v", i+1, err)
		} else if want := c.Expect(ReducedConfig()); got != want {
			t.Errorf("claim #%d (%s %q): measured %s, %s; recorded %s", i+1, c.Ref, c.Says, shown, got, want)
		}
	}
	if n == 0 {
		t.Fatal("no claim matched")
	}
}

func selects(sel []string, c Claim) bool {
	for _, s := range sel {
		experiment, prefix, _ := strings.Cut(s, ":")
		if c.Experiment == experiment && slices.ContainsFunc(c.Of, func(m string) bool { return strings.HasPrefix(m, prefix) }) {
			return true
		}
	}
	return false
}

// TestClaims judges every claim at the reduced geometry: a verdict that
// changes, a claim reading a metric its experiment does not return, an
// experiment that returns no metric or backs no claim, and a deviating
// row without a sanity bound all fail.
func TestClaims(t *testing.T) {
	backed := map[string]bool{}
	for _, c := range Claims {
		backed[c.Experiment] = true
		if len(c.Of) == 0 || (!c.Rel.Ascend && len(c.Of) > 2) || (c.Rel.Ascend && len(c.Of) < 2) {
			t.Errorf("claim %q names %d metrics for its relation", c.Says, len(c.Of))
		}
		if c.Verdict == "" || c.Why == "" && (c.Verdict != Holds || c.Reduced != "" && c.Reduced != Holds) {
			t.Errorf("claim %q: a verdict, and a reason for one that is not holds, are required", c.Says)
		}
		if (c.Verdict == Deviates || c.Reduced == Deviates) && c.Sane == (Relation{}) {
			t.Errorf("claim %q: a row recorded deviates needs a sanity bound", c.Says)
		}
	}
	for _, e := range Experiments {
		if !backed[e.Name] {
			t.Errorf("experiment %s backs no claim", e.Name)
		}
		if ms, _ := reducedRun(e.Name); len(ms) == 0 {
			t.Errorf("experiment %s returns no metric", e.Name)
		}
	}
	checkClaims(t)
}

// TestVerdicts pins what each verdict means on synthesized values:
// shape doubles the tolerance, and a value outside the sanity bound is
// broken whatever the relation says.
func TestVerdicts(t *testing.T) {
	for _, tc := range []struct {
		rel, sane Relation
		vals      []float64
		want      Verdict
	}{
		{rel: within(100), vals: []float64{114}, want: Holds},
		{rel: within(100), vals: []float64{129}, want: Shape},
		{rel: within(100), vals: []float64{131}, want: Deviates},
		{rel: within(100), sane: tenfold(100, 100), vals: []float64{1001}, want: Broken},
		{rel: within(100), sane: tenfold(100, 100), vals: []float64{0}, want: Broken},
		{rel: within(2), vals: []float64{4.4, 2}, want: Holds}, // a ratio
		{rel: atLeast(4), vals: []float64{3.5}, want: Shape},
		{rel: atLeast(4), vals: []float64{3.3}, want: Deviates},
		{rel: between(0.83, 0.95), vals: []float64{1.09}, want: Shape},
		{rel: atMost(0), vals: []float64{1}, want: Deviates},
		{rel: ascending, vals: []float64{1, 2, 3}, want: Holds},
		{rel: ascending, vals: []float64{1, 0.9, 3}, want: Shape},
		{rel: ascending, vals: []float64{1, 0.8, 3}, want: Deviates},
	} {
		if got := (Claim{Rel: tc.rel, Sane: tc.sane}).judge(tc.vals); got != tc.want {
			t.Errorf("%+v on %v: %s, want %s", tc.rel, tc.vals, got, tc.want)
		}
	}
}
