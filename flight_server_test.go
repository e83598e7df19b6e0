package rhythm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
)

// flightTestDoc mirrors the /v1/debug/flight JSON document for test
// assertions (internal/flight Snapshot.JSON).
type flightTestDoc struct {
	Total    uint64            `json:"total"`
	Promoted uint64            `json:"promoted"`
	ByReason map[string]uint64 `json:"by_reason"`
	RingSize int               `json:"ring_size"`
	Records  []struct {
		TraceID         uint64   `json:"trace_id"`
		Type            string   `json:"type"`
		LatencyUs       float64  `json:"latency_us"`
		Status          string   `json:"status"`
		Reason          string   `json:"reason"`
		Device          int      `json:"device"`
		Attempts        int      `json:"attempts"`
		HostExec        bool     `json:"host_exec"`
		CohortSize      int      `json:"cohort_size"`
		LaunchReason    string   `json:"launch_reason"`
		FormationWaitUs float64  `json:"formation_wait_us"`
		LaunchSeqs      []uint64 `json:"launch_seqs"`
	} `json:"records"`
}

// fetchFlightDoc scrapes /v1/debug/flight and parses the document.
func fetchFlightDoc(t *testing.T, addr net.Addr) flightTestDoc {
	t.Helper()
	resp := scrape(t, addr, FlightPathV1)
	if !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
		t.Fatalf("%s answered %.100q, want 200", FlightPathV1, resp)
	}
	_, body, _ := strings.Cut(resp, "\r\n\r\n")
	var doc flightTestDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("flight document is not valid JSON: %v\n%s", err, body)
	}
	return doc
}

// readResponseKeepTrace reads one full response like readRawResponse but
// keeps the X-Rhythm-Trace header and returns its value separately.
func readResponseKeepTrace(t *testing.T, r *bufio.Reader) (resp, trace string) {
	t.Helper()
	var b strings.Builder
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		b.WriteString(line)
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "" {
			break
		}
		if v, ok := strings.CutPrefix(trimmed, "X-Rhythm-Trace: "); ok {
			trace = v
		}
		if v, ok := strings.CutPrefix(strings.ToLower(trimmed), "content-length:"); ok {
			fmt.Sscanf(strings.TrimSpace(v), "%d", &cl)
		}
	}
	body := make([]byte, cl)
	for read := 0; read < cl; {
		n, err := r.Read(body[read:])
		if err != nil {
			t.Fatalf("reading body: %v", err)
		}
		read += n
	}
	b.Write(body)
	return b.String(), trace
}

// waitForAnomalies polls until the cohort server's flight recorder has
// promoted exactly want records (finishing happens after the response
// write, so a client can observe the response first).
func waitForAnomalies(t *testing.T, srv *cohortServer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := srv.Stats().FlightAnomalies
		if got == want {
			return
		}
		if got > want || time.Now().After(deadline) {
			t.Fatalf("flight anomalies = %d, want exactly %d", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightTraceHeaderEndToEnd: every banking response under either pin
// carries a server-assigned X-Rhythm-Trace header; the debug and
// observability endpoints do not (they are not flight-recorded).
func TestFlightTraceHeaderEndToEnd(t *testing.T) {
	host := startNew(t, WithHostExecution())

	dev := startCohortServer(t, cohortOptions{
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})

	for _, addr := range []net.Addr{host.Addr(), dev.Addr()} {
		conn := dialT(t, addr)
		r := bufio.NewReader(conn)
		// An expired-session error page is still a classified banking
		// request, so it is flight-recorded like any other.
		fmt.Fprintf(conn, "GET /profile.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
		resp, trace := readResponseKeepTrace(t, r)
		if !strings.HasPrefix(resp, "HTTP/1.1 ") {
			t.Fatalf("profile answered %.100q", resp)
		}
		if trace == "" {
			t.Fatalf("banking response has no X-Rhythm-Trace header:\n%.300s", resp)
		}
		var id uint64
		if _, err := fmt.Sscanf(trace, "%d", &id); err != nil || id == 0 {
			t.Fatalf("X-Rhythm-Trace %q is not a positive integer", trace)
		}

		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", HealthPathV1)
		resp, trace = readResponseKeepTrace(t, r)
		if !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
			t.Fatalf("health answered %.100q", resp)
		}
		if trace != "" {
			t.Fatalf("observability endpoint unexpectedly flight-recorded (trace %s)", trace)
		}
	}
}

// TestFlightHealthEndpoints: /v1/health answers the burn-rate document
// under either pin, and /v1/debug/flight answers the anomaly-ring document
// (JSON and Chrome formats, with ?n= bounding).
func TestFlightHealthEndpoints(t *testing.T) {
	host := startNew(t, WithHostExecution())

	dev := startCohortServer(t, cohortOptions{
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})
	uidH, pwH := host.Seed(9301)
	uidD, pwD := dev.Seed(9301)
	loginAndBrowse(t, host.Addr(), uidH, pwH)
	loginAndBrowse(t, dev.Addr(), uidD, pwD)

	for _, addr := range []net.Addr{host.Addr(), dev.Addr()} {
		resp := scrape(t, addr, HealthPathV1)
		if !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
			t.Fatalf("%s answered %.100q, want 200", HealthPathV1, resp)
		}
		_, body, _ := strings.Cut(resp, "\r\n\r\n")
		var health struct {
			Schema    int     `json:"schema_version"`
			State     string  `json:"state"`
			Objective float64 `json:"objective"`
			FastBurn  float64 `json:"fast_burn"`
			Types     []struct {
				Type  string `json:"type"`
				Total uint64 `json:"total_fast_window"`
			} `json:"types"`
		}
		if err := json.Unmarshal([]byte(body), &health); err != nil {
			t.Fatalf("health document is not valid JSON: %v\n%s", err, body)
		}
		if health.Schema != StatsSchemaVersion {
			t.Fatalf("health schema_version = %d, want %d", health.Schema, StatsSchemaVersion)
		}
		switch health.State {
		case "ok", "warn", "critical":
		default:
			t.Fatalf("health state %q not in {ok,warn,critical}", health.State)
		}
		if health.Objective <= 0 || health.Objective >= 1 {
			t.Fatalf("health objective = %v, want (0,1)", health.Objective)
		}
		var total uint64
		for _, ty := range health.Types {
			total += ty.Total
		}
		if total == 0 {
			t.Fatalf("health reports zero requests after traffic:\n%s", body)
		}

		doc := fetchFlightDoc(t, addr)
		if doc.Total == 0 {
			t.Fatal("flight recorder saw no requests after traffic")
		}
		if doc.RingSize <= 0 {
			t.Fatalf("flight ring_size = %d", doc.RingSize)
		}
		if chromeResp := scrape(t, addr, FlightPathV1+"?format=chrome&n=5"); !strings.Contains(chromeResp, "traceEvents") {
			t.Fatalf("flight chrome export missing traceEvents: %.200q", chromeResp)
		}
		if bad := scrape(t, addr, FlightPathV1+"?n=oops"); !strings.HasPrefix(bad, "HTTP/1.1 400 ") {
			t.Fatalf("bad n answered %.100q, want 400", bad)
		}
	}
}

// TestFlightShedPromotesExactlyOne: a request shed by the saturated pool
// promotes exactly one anomaly record with reason "shed" — the pinned
// request still in formation is not finished, and the shed 503 itself
// carries the trace ID that names the record.
func TestFlightShedPromotesExactlyOne(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{
		CohortSize:       4,
		MaxCohorts:       1,
		FormationTimeout: -1, // pin the only context as PartiallyFull
		OverflowLimit:    -1, // no parking: reject immediately
		RequestDeadline:  30 * time.Second,
	})

	conn1 := dialT(t, srv.Addr())
	fmt.Fprintf(conn1, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	time.Sleep(100 * time.Millisecond) // let it occupy the context

	conn2 := dialT(t, srv.Addr())
	r2 := bufio.NewReader(conn2)
	fmt.Fprintf(conn2, "GET /profile.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	resp, trace := readResponseKeepTrace(t, r2)
	if !strings.HasPrefix(resp, "HTTP/1.1 503 ") {
		t.Fatalf("saturated pool answered %.100q, want 503", resp)
	}
	if trace == "" {
		t.Fatal("shed 503 carries no X-Rhythm-Trace header")
	}

	// The handler finishes the flight record after writing the 503, so
	// the count can trail the response by a beat.
	waitForAnomalies(t, srv, 1)
	doc := fetchFlightDoc(t, srv.Addr())
	if len(doc.Records) != 1 {
		t.Fatalf("flight ring holds %d records, want 1: %+v", len(doc.Records), doc.Records)
	}
	rec := doc.Records[0]
	if rec.Reason != "shed" || rec.Status != "shed" {
		t.Fatalf("shed record has reason=%q status=%q, want shed/shed", rec.Reason, rec.Status)
	}
	if fmt.Sprint(rec.TraceID) != trace {
		t.Fatalf("promoted trace_id %d does not match the 503's X-Rhythm-Trace %s", rec.TraceID, trace)
	}
	if rec.Type != "banking/profile" {
		t.Fatalf("shed record type = %q, want banking/profile", rec.Type)
	}
}

// TestFlightDeadlinePromotesExactlyOne: a request that misses its
// deadline in formation promotes exactly one record with reason
// "deadline"; the never-launching pinned cohort contributes nothing.
func TestFlightDeadlinePromotesExactlyOne(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{
		CohortSize:       32,
		FormationTimeout: -1, // never launch: the deadline must fire
		RequestDeadline:  60 * time.Millisecond,
	})
	conn := dialT(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /transfer.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	resp, trace := readResponseKeepTrace(t, r)
	if !strings.HasPrefix(resp, "HTTP/1.1 504 ") {
		t.Fatalf("deadline answered %.100q, want 504", resp)
	}
	if trace == "" {
		t.Fatal("deadline 504 carries no X-Rhythm-Trace header")
	}

	// As with the shed, the record is finished after the 504 is written.
	waitForAnomalies(t, srv, 1)
	doc := fetchFlightDoc(t, srv.Addr())
	if len(doc.Records) != 1 {
		t.Fatalf("flight ring holds %d records, want 1: %+v", len(doc.Records), doc.Records)
	}
	rec := doc.Records[0]
	if rec.Reason != "deadline" || rec.Status != "deadline" {
		t.Fatalf("deadline record has reason=%q status=%q, want deadline/deadline", rec.Reason, rec.Status)
	}
	if rec.LatencyUs < 50e3 {
		t.Fatalf("deadline record latency %.1fus is below the 60ms deadline", rec.LatencyUs)
	}
	if doc.ByReason["deadline"] != 1 {
		t.Fatalf("by_reason = %v, want deadline=1", doc.ByReason)
	}
}

// TestFlightFailoverRecordsHops: with a device-loss fault injected and a
// threshold that promotes everything, the flight records expose the
// failover trail — the affected request shows Attempts > 1 with its
// device, cohort size, formation wait, and linked launch seqs, which is
// the §15 debugging contract: a tail request can be traced to the
// device hop that caused it.
func TestFlightFailoverRecordsHops(t *testing.T) {
	target := faultTargetDevice(differentialUIDs[0], 4)
	plan := &cluster.FaultPlan{Faults: []cluster.Fault{
		{Device: target, Kind: cluster.KindLoss, AfterUnits: 1},
	}}
	opts := multiDeviceOpts(plan)
	opts.FlightSlow = time.Nanosecond // promote every completed request
	dev := startCohortServer(t, opts)
	driveDifferential(t, dev, differentialUIDs)

	if dev.Stats().Failovers == 0 {
		t.Fatal("device loss did not count a failover")
	}
	doc := fetchFlightDoc(t, dev.Addr())
	if doc.ByReason["slow"] == 0 {
		t.Fatalf("tiny FlightSlow promoted nothing: %+v", doc.ByReason)
	}
	var hop bool
	for _, rec := range doc.Records {
		if rec.Status != "ok" || rec.Attempts < 2 {
			continue
		}
		hop = true
		if rec.Device < 0 {
			t.Fatalf("failover record has no device: %+v", rec)
		}
		if rec.CohortSize < 1 || rec.LaunchReason == "" {
			t.Fatalf("failover record missing cohort formation outcome: %+v", rec)
		}
		if len(rec.LaunchSeqs) == 0 {
			t.Fatalf("failover record has no kernel launch linkage: %+v", rec)
		}
		if rec.FormationWaitUs < 0 {
			t.Fatalf("failover record has negative formation wait: %+v", rec)
		}
	}
	if !hop {
		t.Fatalf("no promoted record shows a failover hop (attempts > 1); records: %+v", doc.Records)
	}
}

// TestFlightNodeLossRecordsHops: the §15 trail must survive a WHOLE-NODE
// loss, not just a device loss — with a node fault planted on the node
// owning the first user's login group, the re-routed request's promoted
// record shows attempts > 1 exactly like a device hop, with the same
// causal fields filled in. This is the fabric extension of
// TestFlightFailoverRecordsHops: Result.Hops folds node moves into the
// attempt trail.
func TestFlightNodeLossRecordsHops(t *testing.T) {
	uid := differentialUIDs[0]
	target := loginGroupOwner(t, uid, 2)
	dev := startCohortServer(t, cohortOptions{
		Devices:          1,
		Nodes:            2,
		CohortSize:       8,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
		NodeFaultPlan: &fabric.NodeFaultPlan{Faults: []fabric.NodeFault{
			{Node: target, AfterUnits: 0},
		}},
		FlightSlow: time.Nanosecond, // promote every completed request
	})
	driveDifferential(t, dev, differentialUIDs)

	st := dev.Stats()
	if st.NodeFailovers == 0 {
		t.Fatal("node fault did not count a failover")
	}
	doc := fetchFlightDoc(t, dev.Addr())
	if doc.ByReason["slow"] == 0 {
		t.Fatalf("tiny FlightSlow promoted nothing: %+v", doc.ByReason)
	}
	var hop bool
	for _, rec := range doc.Records {
		if rec.Status != "ok" || rec.Attempts < 2 {
			continue
		}
		hop = true
		if rec.Device < 0 {
			t.Fatalf("node-loss record has no device: %+v", rec)
		}
		if rec.CohortSize < 1 || rec.LaunchReason == "" {
			t.Fatalf("node-loss record missing cohort formation outcome: %+v", rec)
		}
		if len(rec.LaunchSeqs) == 0 {
			t.Fatalf("node-loss record has no kernel launch linkage: %+v", rec)
		}
	}
	if !hop {
		t.Fatalf("no promoted record shows a node hop (attempts > 1); records: %+v", doc.Records)
	}
}

// TestTraceCaptureConcurrent429: a ?secs=N trace capture racing another
// in-flight capture is bounded — the loser answers 429 with Retry-After
// instead of stacking a second blocking window (either pin).
func TestTraceCaptureConcurrent429(t *testing.T) {
	host := startNew(t, WithHostExecution())

	dev := startCohortServer(t, cohortOptions{
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})

	for _, addr := range []net.Addr{host.Addr(), dev.Addr()} {
		done := make(chan string, 1)
		go func() {
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				done <- ""
				return
			}
			defer conn.Close()
			fmt.Fprintf(conn, "GET %s?secs=1 HTTP/1.1\r\nHost: t\r\n\r\n", TracePathV1)
			done <- string(readRawResponse(t, bufio.NewReader(conn)))
		}()
		time.Sleep(200 * time.Millisecond) // the first capture is now blocking

		second := scrape(t, addr, TracePathV1+"?secs=1")
		if !strings.HasPrefix(second, "HTTP/1.1 429 ") {
			t.Fatalf("concurrent capture answered %.100q, want 429", second)
		}
		if !strings.Contains(second, "Retry-After: ") {
			t.Fatalf("429 without Retry-After: %.200q", second)
		}

		first := <-done
		if !strings.HasPrefix(first, "HTTP/1.1 200 ") {
			t.Fatalf("original capture answered %.100q, want 200", first)
		}
		// The guard released: a fresh capture succeeds.
		if again := scrape(t, addr, TracePathV1); !strings.HasPrefix(again, "HTTP/1.1 200 ") {
			t.Fatalf("post-capture request answered %.100q, want 200", again)
		}
	}
}
