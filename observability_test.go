package rhythm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
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
	srv := startCohortServer(t, CohortOptions{
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
	srv := startCohortServer(t, CohortOptions{
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

// TestHostServerMetricsAndTrace: the host-mode TCPServer speaks the same
// /metrics and /rhythm-trace surface (minus the device track).
func TestHostServerMetricsAndTrace(t *testing.T) {
	host := NewTCPServer(4096)
	if err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go host.Serve()
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
	for _, span := range []string{"classify", "execute", "render", "write"} {
		if !seen[span] {
			t.Fatalf("host trace missing %q span; saw %v", span, seen)
		}
	}
}

// TestObservabilityConcurrentScrape hammers every read endpoint while
// live traffic flows, in both modes — the -race CI leg turns any
// snapshot race in /v1/stats, /v1/metrics, or /v1/trace into a
// failure.
func TestObservabilityConcurrentScrape(t *testing.T) {
	srv := startCohortServer(t, CohortOptions{
		FormationTimeout: time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})
	host := NewTCPServer(4096)
	if err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go host.Serve()

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
