package rhythm

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// startNew boots a server through the rhythm.New construction path on
// an ephemeral port and registers a drain on test cleanup.
func startNew(t *testing.T, opts ...Option) Server {
	t.Helper()
	srv, err := New("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv
}

// get issues one GET over a fresh connection and returns the raw
// response bytes.
func get(t *testing.T, srv Server, path string) []byte {
	t.Helper()
	conn := dialT(t, srv.Addr())
	if _, err := io.WriteString(conn, fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)); err != nil {
		t.Fatal(err)
	}
	return readRawResponse(t, bufio.NewReader(conn))
}

// retiredPaths are the control-plane aliases schema version 6 dropped;
// each document now has exactly one path.
var retiredPaths = []string{"/rhythm-stats", "/metrics", "/rhythm-trace"}

// checkRetiredPaths asserts the retired aliases answer 404, that the
// responses count as served but not as workload requests, and that
// /v1/stats ignores the retired ?schema=4 parameter.
func checkRetiredPaths(t *testing.T, srv Server) {
	t.Helper()
	flightBefore := srv.Snapshot().Cohort.FlightRequests
	servedBefore := srv.Snapshot().Served()
	for _, path := range retiredPaths {
		if resp := string(get(t, srv, path)); !strings.HasPrefix(resp, "HTTP/1.1 404 ") {
			t.Fatalf("retired path %s answered %.60q, want 404", path, resp)
		}
	}
	snap := srv.Snapshot()
	if got := snap.Served() - servedBefore; got != uint64(len(retiredPaths)) {
		t.Fatalf("retired paths counted %d served responses, want %d", got, len(retiredPaths))
	}
	if got := snap.Cohort.FlightRequests; got != flightBefore {
		t.Fatalf("retired paths entered the flight recorder as workload requests (%d -> %d)", flightBefore, got)
	}
	if body := string(get(t, srv, StatsPathV1+"?schema=4")); !strings.Contains(body, `"schema_version": 9`) {
		t.Fatalf("?schema=4 still re-renders the stats document:\n%.300s", body)
	}
}

// TestNewHostServer covers the WithHostExecution pin: Snapshot, the
// control plane at its /v1 paths only, and the pin itself — every
// request on the host route, no cohort, no device memory backed.
func TestNewHostServer(t *testing.T) {
	srv := startNew(t, WithHostExecution())
	if snap := srv.Snapshot(); snap.Host != nil || snap.Cohort == nil || snap.Cohort.Mode != "host" || !snap.Cohort.Adapt.HostPinned {
		t.Fatalf("host snapshot wrong: %+v", snap)
	}
	body := string(get(t, srv, StatsPathV1))
	if !strings.Contains(body, `"schema_version": 9`) {
		t.Fatalf("%s missing schema_version 9:\n%s", StatsPathV1, body)
	}
	if !strings.Contains(body, `"mode": "host"`) {
		t.Fatalf("%s missing host mode:\n%s", StatsPathV1, body)
	}
	if body := string(get(t, srv, MetricsPathV1)); !strings.Contains(body, "rhythm_build_info") {
		t.Fatalf("%s not a metrics document:\n%.300s", MetricsPathV1, body)
	}
	if body := string(get(t, srv, TracePathV1)); !strings.Contains(body, "traceEvents") {
		t.Fatalf("%s not a trace document:\n%.300s", TracePathV1, body)
	}
	// The fabric is there, as on every server.
	if resp := string(get(t, srv, TopologyPathV1)); !strings.Contains(resp, `"transport": "loopback"`) {
		t.Fatalf("host %s answered %.60q, want the loopback topology", TopologyPathV1, resp)
	}
	checkRetiredPaths(t, srv)
	uid, pw := srv.Seed(4343)
	loginAndBrowse(t, srv.Addr(), uid, pw)
	st := srv.Snapshot().Cohort
	if st.Served == 0 || st.HostFallbacks == 0 || st.CohortsFormed != 0 || st.Device.Launches != 0 {
		t.Fatalf("host-pinned server: served=%d host_fallbacks=%d cohorts=%d launches=%d, want >0/>0/0/0",
			st.Served, st.HostFallbacks, st.CohortsFormed, st.Device.Launches)
	}
}

// TestNewCohortServerRejectsBadInput: a geometry or quota share fill
// cannot default is an error naming the field and the value, never a
// panic or a silently misread cap; the valid edges still build.
func TestNewCohortServerRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		name string
		opts cohortOptions
		want string // error substring; "" = builds
	}{
		{"zero share", cohortOptions{WorkloadQuotas: map[string]float64{"banking": 0}}, `WorkloadQuotas["banking"] share 0 `},
		{"negative share", cohortOptions{WorkloadQuotas: map[string]float64{"banking": -1}}, `WorkloadQuotas["banking"] share -1 `},
		{"NaN share", cohortOptions{WorkloadQuotas: map[string]float64{"banking": math.NaN()}}, `WorkloadQuotas["banking"] share NaN `},
		{"share above one", cohortOptions{WorkloadQuotas: map[string]float64{"banking": 5}}, `WorkloadQuotas["banking"] share 5 `},
		{"negative cohort size", cohortOptions{CohortSize: -1}, "CohortSize -1 "},
		{"negative contexts", cohortOptions{MaxCohorts: -3}, "MaxCohorts -3 "},
		{"whole share", cohortOptions{WorkloadQuotas: map[string]float64{"banking": 1}}, ""},
		{"one-request cohorts", cohortOptions{CohortSize: 1}, ""},
	} {
		srv, err := newCohortServer(c.opts)
		if srv != nil {
			srv.Drain(context.Background())
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestNewCohortServer covers the default (cohort) path with the
// adaptive controller enabled: options plumb through to cohortOptions,
// Snapshot carries the cohort stats with the adapt section, and the
// stats path answers with the versioned schema.
func TestNewCohortServer(t *testing.T) {
	srv := startNew(t,
		WithDevices(1),
		WithFormation(8, 4, 2*time.Millisecond),
		WithRequestDeadline(30*time.Second),
		WithSLO(50*time.Millisecond),
		WithCrossoverRate(-1),
	)
	snap := srv.Snapshot()
	if snap.Cohort == nil || snap.Host != nil || snap.Cohort.Mode != "cohort" {
		t.Fatalf("cohort snapshot wrong: %+v", snap)
	}
	if snap.Cohort.SchemaVersion != StatsSchemaVersion {
		t.Fatalf("schema version = %d, want %d", snap.Cohort.SchemaVersion, StatsSchemaVersion)
	}
	if snap.Cohort.Adapt == nil {
		t.Fatal("WithSLO did not enable the adaptive controller")
	}
	body := string(get(t, srv, StatsPathV1))
	if !strings.Contains(body, `"schema_version": 9`) || !strings.Contains(body, `"mode": "cohort"`) {
		t.Fatalf("%s wrong stats document:\n%.300s", StatsPathV1, body)
	}
	if !strings.Contains(body, `"adapt"`) {
		t.Fatalf("%s missing adapt section:\n%.300s", StatsPathV1, body)
	}
	if !strings.Contains(body, `"transport": "loopback"`) || !strings.Contains(body, `"nodes"`) {
		t.Fatalf("%s missing fabric topology section:\n%.300s", StatsPathV1, body)
	}
	checkRetiredPaths(t, srv)
	// /v1/topology is the node-level view.
	topo := string(get(t, srv, TopologyPathV1))
	if !strings.Contains(topo, `"transport": "loopback"`) || !strings.Contains(topo, `"health": "up"`) {
		t.Fatalf("topology document wrong:\n%.300s", topo)
	}
}

// TestDeprecatedShims pins the construction surface: NewSimServer builds
// the offline simulator and serves a saturation run, and New returns
// one server type whatever it is pinned to.
func TestDeprecatedShims(t *testing.T) {
	s := NewSimServer(Options{CohortSize: 64, MaxCohorts: 2, Sessions: 256})
	st := s.Serve(s.GenerateMixed(256))
	if st.Completed != 256 {
		t.Fatalf("NewSimServer run completed %d of 256: %+v", st.Completed, st)
	}
	host, plain := startNew(t, WithHostExecution()), startNew(t)
	if reflect.TypeOf(host) != reflect.TypeOf(plain) {
		t.Fatalf("New(addr, WithHostExecution()) is a %T, New(addr) a %T", host, plain)
	}
}
