package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// TestReducedScaleGolden pins the paper's numbers: the eleven
// pipeline-driven experiments, at a scale that takes ten seconds, must
// print exactly what testdata/reduced_scale.golden holds. Their output
// is a pure function of the configuration (no wall-clock columns), so
// this guards the padding, transpose, Titan A host-backend, straggler
// and variable-stage paths of the stage kernels against any drift in
// simulated results. The golden was captured at commit eeb71d6, before
// banking moved onto the service page kit; regenerate it, deliberately,
// by running each experiment below in order with
//
//	rhythm-bench -cpu-requests 120 -gpu-cohorts 2 -cohort 256 <experiment>
func TestReducedScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven experiments (~10 s)")
	}
	want, err := os.ReadFile("testdata/reduced_scale.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range []string{"table2", "fig2", "fig9", "ablations", "stragglers", "quick-pay",
		"gpufs", "cohort-sweep", "timeout", "hyperq", "parser"} {
		if err := run([]string{"-cpu-requests", "120", "-gpu-cohorts", "2", "-cohort", "256", e}, &got, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from the golden:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, the golden %d", len(gl), len(wl))
}

// TestRunRejectsBadArguments: every argument error is reported before a
// byte reaches stdout, so a failed `-json ... > file` leaves no
// half-written stream behind.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no experiment", []string{"-json"}, "exactly one experiment"},
		{"two experiments", []string{"table3", "fig9"}, "exactly one experiment"},
		{"flag after the name", []string{"table1", "-json"}, "exactly one experiment"},
		{"unknown experiment", []string{"-json", "nosuch"}, `unknown experiment "nosuch"`},
		{"deleted subcommand", []string{"frontend"}, `unknown experiment "frontend"`},
		{"unknown flag", []string{"-tolerance", "0.1", "table1"}, "flag provided but not defined"},
		{"gated with -paper", []string{"-json", "-paper", "gated"}, "geometry"},
		{"gated with -cohort", []string{"-cohort", "256", "gated"}, "geometry"},
		{"gated with -seed", []string{"-seed", "7", "gated"}, "geometry"},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run(%q) = %v, want an error containing %q", tc.name, tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout before failing", tc.name, stdout.String())
		}
	}
}

// TestRunJSONStream: the -json stream of one experiment is the
// host_cores record, the experiment's wall clock, then its metrics,
// with no duplicated wall-clock field; -sim-parallelism is not a scale
// flag.
func TestRunJSONStream(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-json", "-sim-parallelism", "1", "-cpu-requests", "40", "parser"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	wantPrefix := []string{
		`{"experiment":"env","metric":"host_cores","value":`,
		`{"experiment":"parser","metric":"wall_clock_secs","value":`,
		`{"experiment":"parser","metric":"single/throughput_req_s","value":`,
		`{"experiment":"parser","metric":"mixed/throughput_req_s","value":`,
		`{"experiment":"parser","metric":"mixed/latency_us","value":`,
		`{"experiment":"parser","metric":"mixed/divergent_execs","value":`,
	}
	if len(lines) != len(wantPrefix) {
		t.Fatalf("got %d records, want %d:\n%s", len(lines), len(wantPrefix), stdout.String())
	}
	for i, l := range lines {
		var fields map[string]interface{}
		if err := json.Unmarshal([]byte(l), &fields); err != nil {
			t.Fatalf("record %d = %s: %v", i, l, err)
		}
		if !strings.HasPrefix(l, wantPrefix[i]) || len(fields) != 3 {
			t.Errorf("record %d = %s, want prefix %s and three fields", i, l, wantPrefix[i])
		}
	}
}
