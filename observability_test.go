package rhythm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rhythm/internal/stats"
)

// loginAndBrowse drives one login plus a couple of session'd requests so
// the server has cohorts, launches, and latencies to report.
func loginAndBrowse(t *testing.T, addr net.Addr, uid uint64, pw string) {
	t.Helper()
	conn := dialT(t, addr)
	r := bufio.NewReader(conn)
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp := string(readRawResponse(t, r))
	var cookie string
	for _, line := range strings.Split(resp, "\r\n") {
		if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok {
			cookie = v
		}
	}
	if cookie == "" {
		t.Fatalf("login returned no cookie: %.200q", resp)
	}
	for _, uri := range []string{"/account_summary.php", "/profile.php"} {
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", uri, cookie)
		readRawResponse(t, r)
	}
}

// scrape fetches one endpoint over a fresh connection and returns the
// full response.
func scrape(t *testing.T, addr net.Addr, path string) string {
	t.Helper()
	conn := dialT(t, addr)
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
	return string(readRawResponse(t, bufio.NewReader(conn)))
}

// checkPromDocument asserts resp is a 200 whose body is parseable
// Prometheus text format containing every family in want.
func checkPromDocument(t *testing.T, resp string, want []string) {
	t.Helper()
	if !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
		t.Fatalf("/metrics answered %.100q, want 200", resp)
	}
	_, body, ok := strings.Cut(resp, "\r\n\r\n")
	if !ok {
		t.Fatalf("no body in response %.200q", resp)
	}
	for _, fam := range want {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Fatalf("/metrics missing family %s:\n%s", fam, body)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("unparseable sample line %q", line)
		}
	}
}

// TestCohortServerMetricsEndpoint: after live traffic, /metrics exposes
// the per-type latency histograms and the device's divergence/coalescing
// counters in parseable Prometheus text format.
func TestCohortServerMetricsEndpoint(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})
	uid, pw := srv.Seed(4242)
	loginAndBrowse(t, srv.Addr(), uid, pw)

	resp := scrape(t, srv.Addr(), MetricsPathV1)
	checkPromDocument(t, resp, []string{
		"rhythm_build_info",
		"rhythm_requests_served_total",
		"rhythm_requests_total",
		"rhythm_cohorts_total",
		"rhythm_request_latency_seconds",
		"rhythm_formation_wait_seconds",
		"rhythm_cohort_occupancy",
		"rhythm_device_launches_total",
		"rhythm_device_divergent_execs_total",
		"rhythm_device_mem_transactions_total",
		"rhythm_device_ideal_mem_transactions_total",
		"rhythm_device_energy_joules_total",
	})
	for _, want := range []string{
		`rhythm_build_info{mode="cohort"} 1`,
		`rhythm_requests_total{workload="banking",type="banking/login"} 1`,
		`rhythm_request_latency_seconds_count{workload="banking",type="banking/login"} 1`,
		`rhythm_cohorts_total{workload="banking",type="banking/login",result="timeout"} 1`,
	} {
		if !strings.Contains(resp, want+"\n") {
			t.Fatalf("/metrics missing sample %q:\n%s", want, resp)
		}
	}
	// The device actually ran kernels for this traffic.
	if strings.Contains(resp, "rhythm_device_launches_total 0\n") {
		t.Fatalf("device launch counter still zero after traffic:\n%s", resp)
	}
}

// TestCohortServerTraceEndpoint: /rhythm-trace returns a valid Chrome
// trace-event document whose request track carries the full lifecycle
// (classify → admit-queue → formation-wait → stage → render → write) and
// whose device track carries the linked kernel launches.
func TestCohortServerTraceEndpoint(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})
	uid, pw := srv.Seed(777)
	loginAndBrowse(t, srv.Addr(), uid, pw)

	resp := scrape(t, srv.Addr(), TracePathV1)
	if !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
		t.Fatalf("/rhythm-trace answered %.100q, want 200", resp)
	}
	_, body, _ := strings.Cut(resp, "\r\n\r\n")
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	kernels := 0
	var linked bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Pid == 2 {
			kernels++
			continue
		}
		seen[ev.Name] = true
		if strings.HasPrefix(ev.Name, "stage-") {
			if _, ok := ev.Args["launch_seq"]; ok {
				linked = true
			}
		}
	}
	for _, span := range []string{"classify", "admit-queue", "formation-wait", "stage-0", "render", "write"} {
		if !seen[span] {
			t.Fatalf("trace missing %q span; saw %v", span, seen)
		}
	}
	if kernels == 0 {
		t.Fatal("trace has no device kernel events")
	}
	if !linked {
		t.Fatal("no stage span carries a launch_seq linkage arg")
	}

	// Malformed capture windows answer 400.
	if bad := scrape(t, srv.Addr(), TracePathV1+"?secs=oops"); !strings.HasPrefix(bad, "HTTP/1.1 400 ") {
		t.Fatalf("bad secs answered %.100q, want 400", bad)
	}

	// A ?secs=1 capture window returns only traffic inside the window.
	done := make(chan string, 1)
	go func() {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			done <- ""
			return
		}
		defer conn.Close()
		fmt.Fprintf(conn, "GET %s?secs=1 HTTP/1.1\r\nHost: t\r\n\r\n", TracePathV1)
		done <- string(readRawResponse(t, bufio.NewReader(conn)))
	}()
	time.Sleep(200 * time.Millisecond)
	loginAndBrowse(t, srv.Addr(), uid, pw)
	captured := <-done
	if !strings.HasPrefix(captured, "HTTP/1.1 200 ") {
		t.Fatalf("capture window answered %.100q, want 200", captured)
	}
	if !strings.Contains(captured, `"formation-wait"`) {
		t.Fatal("capture window missed the in-window traffic")
	}
}

// TestHostServerMetricsAndTrace: the server pinned to the host route
// speaks the same /v1/metrics and /v1/trace surface, its requests traced
// through the host route's spans.
func TestHostServerMetricsAndTrace(t *testing.T) {
	host := startNew(t, WithHostExecution())
	uid, pw := host.Seed(31337)
	loginAndBrowse(t, host.Addr(), uid, pw)

	resp := scrape(t, host.Addr(), MetricsPathV1)
	checkPromDocument(t, resp, []string{
		"rhythm_build_info",
		"rhythm_requests_served_total",
		"rhythm_requests_total",
		"rhythm_request_latency_seconds",
	})
	if !strings.Contains(resp, `rhythm_build_info{mode="host"} 1`+"\n") {
		t.Fatalf("host /metrics missing mode label:\n%s", resp)
	}

	tresp := scrape(t, host.Addr(), TracePathV1)
	_, body, _ := strings.Cut(tresp, "\r\n\r\n")
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("host trace invalid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, span := range []string{"classify", "host-execute", "write"} {
		if !seen[span] {
			t.Fatalf("host trace missing %q span; saw %v", span, seen)
		}
	}
}

// TestObservabilityConcurrentScrape hammers every read endpoint while
// live traffic flows, under either pin — the -race CI leg turns any
// snapshot race in /v1/stats, /v1/metrics, or /v1/trace into a
// failure.
func TestObservabilityConcurrentScrape(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{
		FormationTimeout: time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})
	host := startNew(t, WithHostExecution())

	addrs := []net.Addr{srv.Addr(), host.Addr()}
	uids := make([]uint64, len(addrs))
	pws := make([]string, len(addrs))
	uids[0], pws[0] = srv.Seed(6001)
	uids[1], pws[1] = host.Seed(6001)

	const rounds = 5
	var wg sync.WaitGroup
	for i, addr := range addrs {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(addr net.Addr, uid uint64, pw string) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					loginAndBrowse(t, addr, uid, pw)
				}
			}(addr, uids[i], pws[i])
		}
		for _, path := range []string{StatsPathV1, MetricsPathV1, TracePathV1, FlightPathV1, HealthPathV1} {
			wg.Add(1)
			go func(addr net.Addr, path string) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if resp := scrape(t, addr, path); !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
						t.Errorf("%s answered %.100q under load", path, resp)
						return
					}
				}
			}(addr, path)
		}
	}
	wg.Wait()
}

// TestOneLatencyObservationPerAnswer: every route observes an OK answer
// into the latency histograms exactly once, at one site, and observes
// nothing else: a render-cache hit, a host-routed miss and a
// cohort-routed request each add one count, a shed adds none. Every OK
// answer is promoted as slow here (a 1ns threshold), so the flight
// recorder names each one. The histogram and the flight record hold the
// same number, so the last OK answer's trace ID is the exemplar of the
// bucket its record's latency falls in.
func TestOneLatencyObservationPerAnswer(t *testing.T) {
	latencyCount := func(srv *cohortServer) (n uint64) {
		_, body, _ := strings.Cut(scrape(t, srv.Addr(), MetricsPathV1), "\r\n\r\n")
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, "rhythm_request_latency_seconds_count{"); ok {
				var c uint64
				fmt.Sscan(v[strings.LastIndexByte(v, ' ')+1:], &c)
				n += c
			}
		}
		return n
	}
	// The handler observes and finishes a request after its write.
	waitFinished := func(srv *cohortServer, want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); srv.flight.Total() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("flight recorder finished %d requests, want %d", srv.flight.Total(), want)
			}
		}
	}
	checkAnswers := func(name string, srv *cohortServer, ok uint64) {
		t.Helper()
		if got := latencyCount(srv); got != ok {
			t.Fatalf("%s: latency histograms counted %d observations, want one per OK answer (%d)", name, got, ok)
		}
		if doc := fetchFlightDoc(t, srv.Addr()); doc.ByReason["slow"] != ok {
			t.Fatalf("%s: flight recorder promoted %d OK answers, want %d", name, doc.ByReason["slow"], ok)
		}
	}

	// Host route with the render cache: a login and an account summary
	// miss execute; the second summary is a cache hit.
	host := startNew(t, WithHostExecution(), WithRenderCache(1024), WithFlightRecorder(256, time.Nanosecond)).(*cohortServer)
	uid, pw := host.Seed(7301)
	conn := dialT(t, host.Addr())
	r := bufio.NewReader(conn)
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	fmt.Fprint(conn, rawPost("/login.php", "", body))
	login, _ := readResponseKeepTrace(t, r)
	cookie := cookieFrom(t, []byte(login), "MY_ID")
	var trace string
	for range 2 {
		fmt.Fprintf(conn, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", cookie)
		var resp string
		if resp, trace = readResponseKeepTrace(t, r); !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
			t.Fatalf("account summary answered %.100q", resp)
		}
	}
	waitFinished(host, 3)
	if st := host.Stats(); st.CacheHits != 1 || st.HostFallbacks != 2 {
		t.Fatalf("cache_hits=%d host_fallbacks=%d, want 1 hit and 2 host-routed misses", st.CacheHits, st.HostFallbacks)
	}
	checkAnswers("host", host, 3)

	// The cache hit's record: its latency names one bucket, whose
	// exemplar is the hit's trace ID.
	var latNs float64
	for _, rec := range fetchFlightDoc(t, host.Addr()).Records {
		if fmt.Sprint(rec.TraceID) == trace {
			latNs = math.Round(rec.LatencyUs * 1e3)
		}
	}
	if latNs == 0 {
		t.Fatalf("no flight record for the cache hit's trace %s", trace)
	}
	bounds := stats.LatencyBucketsNs()
	le := "+Inf"
	if i := sort.SearchFloat64s(bounds, latNs); i < len(bounds) {
		le = strconv.FormatFloat(bounds[i]*1e-9, 'g', -1, 64)
	}
	want := `rhythm_request_latency_exemplar_trace_id{workload="banking",type="banking/account_summary",le="` + le + `"} ` + trace + "\n"
	if metrics := scrape(t, host.Addr(), MetricsPathV1); !strings.Contains(metrics, want) {
		t.Fatalf("/v1/metrics lacks %q (the hit took %vns):\n%s", want, latNs, metrics)
	}

	// Cohort route: four logins of one user fill the one context's
	// cohort; then a request pins the context forming and a request of
	// another type is shed.
	dev := startCohortServer(t, cohortOptions{
		CohortSize:       4,
		MaxCohorts:       1,
		FormationTimeout: -1, // launch only when full
		OverflowLimit:    -1, // no parking: shed at once
		RenderCache:      1024,
		FlightSlow:       time.Nanosecond,
		RequestDeadline:  30 * time.Second,
	})
	uid, pw = dev.Seed(7302)
	body = fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	var wg sync.WaitGroup
	for range 4 {
		conn := dialT(t, dev.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			fmt.Fprint(conn, rawPost("/login.php", "", body))
			if resp, err := readResponse(bufio.NewReader(conn)); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) {
				t.Errorf("cohort login answered %.100q (%v)", resp, err)
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(dialT(t, dev.Addr()), "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	time.Sleep(100 * time.Millisecond) // let it occupy the context
	shed := dialT(t, dev.Addr())
	fmt.Fprintf(shed, "GET /profile.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	if resp := readRawResponse(t, bufio.NewReader(shed)); !bytes.HasPrefix(resp, []byte("HTTP/1.1 503 ")) {
		t.Fatalf("saturated pool answered %.100q, want 503", resp)
	}
	waitFinished(dev, 5)
	if st := dev.Stats(); st.CohortsFormed != 1 || st.Types["banking/login"].Requests != 4 || st.RejectedPool != 1 {
		t.Fatalf("cohorts_formed=%d login requests=%d rejected_pool=%d, want 1/4/1",
			st.CohortsFormed, st.Types["banking/login"].Requests, st.RejectedPool)
	}
	checkAnswers("cohort", dev, 4)
}
