package rhythm

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startCohortServer boots a cohortServer on an ephemeral port and
// registers a drain on test cleanup.
func startCohortServer(t *testing.T, opts cohortOptions) *cohortServer {
	t.Helper()
	srv, err := newCohortServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
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

func dialT(t *testing.T, addr net.Addr) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readRawResponse reads one full HTTP response — status line, headers,
// and Content-Length body — returning the exact bytes for differential
// comparison. The X-Rhythm-Trace header is dropped: flight trace IDs
// are server-assigned in arrival order, which legitimately differs
// between the two servers (and across concurrent requests), while
// every other byte must match.
func readRawResponse(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	resp, err := readResponse(r)
	if err != nil {
		t.Fatalf("reading response: %v (got %q so far)", err, resp)
	}
	return resp
}

// readResponse is readRawResponse for goroutines that may not call
// t.Fatal: it returns what it read and the error that stopped it.
func readResponse(r *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return buf.Bytes(), err
		}
		if !strings.HasPrefix(line, "X-Rhythm-Trace:") {
			buf.WriteString(line)
		}
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(trimmed), "content-length:"); ok {
			fmt.Sscanf(strings.TrimSpace(v), "%d", &cl)
		}
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(r, body); err != nil {
		return buf.Bytes(), err
	}
	buf.Write(body)
	return buf.Bytes(), nil
}

// driveAllTypes drives the banking sequence through a fresh scalar
// reference and the given server in lock step and asserts every
// response — headers, cookies, and page bytes — is identical. The server
// must use MaxSessions 4096 (the reference's session geometry) so both
// issue identical session ids. Returns the server's stats after the
// drive.
func driveAllTypes(t *testing.T, dev *cohortServer) CohortServerStats {
	t.Helper()
	driveBanking(newLockstep(t, dev), dev)
	return dev.Stats()
}

// driveBanking covers all 15 implemented banking request types plus the
// expired-session error page: 16 exchanges.
func driveBanking(ls *lockstep, dev *cohortServer) {
	t := ls.t
	t.Helper()
	uid, pw := ls.host.Seed(7777)
	if _, dpw := dev.Seed(7777); dpw != pw {
		t.Fatalf("password mismatch: host %q cohort %q", pw, dpw)
	}
	login := ls.exchange("login", rawPost("/login.php", "", fmt.Sprintf("userid=%d&passwd=%s", uid, pw)))
	// Both servers issued the same session id (identical array geometry
	// + creation order); reuse it for the session'd requests.
	cookie := cookieFrom(t, login, "MY_ID")

	seq := []struct{ label, raw string }{
		{"account_summary", rawGet("/account_summary.php", cookie)},
		{"add_payee", rawGet("/add_payee.php", cookie)},
		{"bill_pay", rawGet("/bill_pay.php", cookie)},
		{"bill_pay_status_output", rawGet("/bill_pay_status_output.php", cookie)},
		{"change_profile", rawGet("/change_profile.php", cookie)},
		{"check_detail_html", rawGet("/check_detail_html.php?check_no=1234", cookie)},
		{"order_check", rawGet("/order_check.php", cookie)},
		{"place_check_order", rawPost("/place_check_order.php", cookie, "style=standard&quantity=100")},
		{"post_payee", rawPost("/post_payee.php", cookie, "name=Vendor0001&account=P-000001")},
		{"post_transfer", rawPost("/post_transfer.php", cookie, "from=0&to=1&amount=0.42")},
		{"profile", rawGet("/profile.php", cookie)},
		{"transfer", rawGet("/transfer.php", cookie)},
		{"quick_pay", rawPost("/quick_pay.php", cookie, "payee1=Vendor0001&amount1=2.00&payee2=Vendor0002&amount2=3.25")},
		{"logout", rawGet("/logout.php", cookie)},
		{"expired session", rawGet("/profile.php", cookie)}, // error page, still identical
	}
	for _, s := range seq {
		ls.exchange(s.label, s.raw)
	}
}

// TestCohortServerDifferentialAllTypes is the fixed-timeout byte
// identity drive: every request forms its own single-request cohort and
// launches by the formation timeout.
func TestCohortServerDifferentialAllTypes(t *testing.T) {
	dev := startCohortServer(t, cohortOptions{
		CohortSize:       8,
		MaxCohorts:       4,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096, // the reference's session geometry
	})
	st := driveAllTypes(t, dev)
	// 16 banking requests, each its own single-request cohort (serial
	// lock-step can never batch), all launched by the formation timeout.
	if st.CohortsFormed != 16 || st.CohortsTimedOut != 16 {
		t.Fatalf("cohorts formed=%d timed_out=%d, want 16/16", st.CohortsFormed, st.CohortsTimedOut)
	}
	if len(st.Types) != 15 {
		t.Fatalf("stats cover %d types, want 15", len(st.Types))
	}
}

// TestAdaptiveDifferentialHostFallback runs the same differential drive
// with the adaptive controller on and the crossover rate pinned so high
// that every type routes to the scalar host fallback. The pages must
// stay byte-identical to the reference host server — the fallback path
// runs the same services against the same sharded state — and every
// request must be accounted as a host fallback.
func TestAdaptiveDifferentialHostFallback(t *testing.T) {
	dev := startCohortServer(t, cohortOptions{
		CohortSize:      8,
		MaxCohorts:      4,
		RequestDeadline: 30 * time.Second,
		MaxSessions:     4096,
		SLO:             50 * time.Millisecond,
		CrossoverRate:   1e12, // no realistic rate exceeds this: always host
	})
	st := driveAllTypes(t, dev)
	if st.Adapt == nil {
		t.Fatal("stats missing adapt section with SLO set")
	}
	if st.HostFallbacks != 16 {
		t.Fatalf("host fallbacks = %d, want 16 (every banking request)", st.HostFallbacks)
	}
	if st.CohortsFormed != 0 {
		t.Fatalf("cohorts formed = %d, want 0 when everything host-routes", st.CohortsFormed)
	}
	var hostReqs uint64
	for _, ts := range st.Types {
		hostReqs += ts.HostRequests
	}
	if hostReqs != 16 {
		t.Fatalf("per-type host requests sum to %d, want 16", hostReqs)
	}
}

// TestAdaptiveDifferentialDeviceOnly runs the drive with the adaptive
// controller on but host fallback disabled (CrossoverRate < 0): every
// request must still batch through the device pipeline under the
// controller's windows, byte-identical to the host reference.
func TestAdaptiveDifferentialDeviceOnly(t *testing.T) {
	dev := startCohortServer(t, cohortOptions{
		CohortSize:      8,
		MaxCohorts:      4,
		RequestDeadline: 30 * time.Second,
		MaxSessions:     4096,
		SLO:             50 * time.Millisecond,
		CrossoverRate:   -1, // never route to host
	})
	st := driveAllTypes(t, dev)
	if st.Adapt == nil {
		t.Fatal("stats missing adapt section with SLO set")
	}
	if st.HostFallbacks != 0 {
		t.Fatalf("host fallbacks = %d, want 0 with fallback disabled", st.HostFallbacks)
	}
	if st.CohortsFormed != 16 {
		t.Fatalf("cohorts formed = %d, want 16", st.CohortsFormed)
	}
	if len(st.Types) != 15 {
		t.Fatalf("stats cover %d types, want 15", len(st.Types))
	}
}

// TestCohortServerBatchesConcurrent proves batching on the wire: N
// concurrent account_summary requests from distinct connections land in
// one cohort (occupancy > 1) and every response still matches the
// scalar reference byte for byte.
func TestCohortServerBatchesConcurrent(t *testing.T) {
	const users = 6
	ref := newReference(4096)

	dev := startCohortServer(t, cohortOptions{
		CohortSize:       64,
		MaxCohorts:       4,
		FormationTimeout: 100 * time.Millisecond, // wide window: one cohort
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
	})

	// Serial logins on both sides keep session-id creation order
	// identical.
	type client struct {
		conn   net.Conn
		r      *bufio.Reader
		cookie string
	}
	var devClients [users]client
	var want [users][]byte
	for i := 0; i < users; i++ {
		uid, pw := ref.Seed(uint64(9001 + i))
		login := rawPost("/login.php", "", fmt.Sprintf("userid=%d&passwd=%s", uid, pw))
		refCookie := cookieFrom(t, ref.answer([]byte(login)), "MY_ID")
		c := client{conn: dialT(t, dev.Addr())}
		c.r = bufio.NewReader(c.conn)
		io.WriteString(c.conn, login)
		c.cookie = cookieFrom(t, readRawResponse(t, c.r), "MY_ID")
		if c.cookie != refCookie {
			t.Fatalf("session ids diverged for uid %d: %q vs %q", uid, refCookie, c.cookie)
		}
		devClients[i] = c
		// Expected pages from the reference (account_summary is
		// read-only, so per-user content is order-independent).
		want[i] = ref.answer([]byte(rawGet("/account_summary.php", c.cookie)))
	}

	// Concurrent burst at the cohort server: all requests inside one
	// formation window.
	var wg sync.WaitGroup
	got := make([][]byte, users)
	start := make(chan struct{})
	for i := range devClients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fmt.Fprintf(devClients[i].conn, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", devClients[i].cookie)
			got[i] = readRawResponse(t, devClients[i].r)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range got {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("user %d: batched cohort response differs from host path", i)
		}
	}
	st := dev.Stats()
	if st.MaxOccupancy < 2 {
		t.Fatalf("max occupancy %d: concurrent burst did not batch", st.MaxOccupancy)
	}
}

// TestCohortServerSingleRequestTimeout: the §3.1 formation timeout must
// fire for a cohort holding exactly one request.
func TestCohortServerSingleRequestTimeout(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{
		CohortSize:       32,
		FormationTimeout: 20 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
	})
	uid, pw := srv.Seed(1234)
	conn := dialT(t, srv.Addr())
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	startAt := time.Now()
	fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp := readRawResponse(t, bufio.NewReader(conn))
	if !bytes.Contains(resp, []byte("Login successful")) {
		t.Fatalf("timeout-launched cohort produced a bad page: %.200q", resp)
	}
	if waited := time.Since(startAt); waited < 20*time.Millisecond {
		t.Fatalf("response after %v, before the formation timeout", waited)
	}
	st := srv.Stats()
	if st.CohortsFormed != 1 || st.CohortsTimedOut != 1 || st.CohortsFilled != 0 {
		t.Fatalf("cohort stats formed=%d timeout=%d filled=%d, want 1/1/0",
			st.CohortsFormed, st.CohortsTimedOut, st.CohortsFilled)
	}
	if st.MeanOccupancy != 1 {
		t.Fatalf("mean occupancy %v, want 1", st.MeanOccupancy)
	}
}

// TestCohortServerShutdownFlushesPartial: Shutdown while a cohort is
// PartiallyFull (timeouts disabled, so it would otherwise wait forever)
// must flush it and deliver the real response before closing.
func TestCohortServerShutdownFlushesPartial(t *testing.T) {
	srv, err := newCohortServer(cohortOptions{
		CohortSize:       32,
		FormationTimeout: -1, // never: only drain can launch this cohort
		RequestDeadline:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	uid, pw := srv.Seed(55)
	conn := dialT(t, srv.Addr())
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)

	// Let the request reach the pool, then drain.
	time.Sleep(100 * time.Millisecond)
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Drain(ctx)
	}()

	resp := readRawResponse(t, bufio.NewReader(conn))
	if !bytes.Contains(resp, []byte("Login successful")) {
		t.Fatalf("drained cohort produced a bad page: %.200q", resp)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := srv.Stats(); st.CohortsFormed != 1 {
		t.Fatalf("cohorts formed = %d, want 1 (the drain flush)", st.CohortsFormed)
	}
	// The listener is gone.
	if _, err := net.Dial("tcp", srv.Addr().String()); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestCohortServerRejectsWhenSaturated: with one context pinned by a
// never-launching cohort and no overflow allowance, a request of a
// different type must shed with 503 + Retry-After.
func TestCohortServerRejectsWhenSaturated(t *testing.T) {
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
	fmt.Fprintf(conn2, "GET /profile.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	resp := string(readRawResponse(t, bufio.NewReader(conn2)))
	if !strings.HasPrefix(resp, "HTTP/1.1 503 ") {
		t.Fatalf("saturated pool answered %.100q, want 503", resp)
	}
	if !strings.Contains(resp, "Retry-After: ") {
		t.Fatalf("503 without Retry-After: %.200q", resp)
	}
	st := srv.Stats()
	if st.RejectedPool != 1 {
		t.Fatalf("rejected_pool = %d, want 1", st.RejectedPool)
	}
	if st.AdmissionStalls == 0 {
		t.Fatal("pool admission stall not counted")
	}
	// conn1's parked request is answered by the cleanup Shutdown's drain
	// flush (delivery is asserted by TestCohortServerShutdownFlushesPartial).
}

// TestBusyResponseBytes: the 503 backpressure answer is byte for byte
// what fmt.Sprintf built before it moved to fmtx, with Retry-After
// rounded down to whole seconds and never below 1.
func TestBusyResponseBytes(t *testing.T) {
	for _, c := range []struct {
		retryAfter time.Duration
		secs       int
	}{{time.Second, 1}, {7 * time.Second, 7}, {7500 * time.Millisecond, 7}, {200 * time.Millisecond, 1}} {
		body := "503 cohort pool saturated\n"
		want := fmt.Sprintf("HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nRetry-After: %d\r\nConnection: keep-alive\r\nContent-Length: %d\r\n\r\n%s",
			c.secs, len(body), body)
		if got := string(busyResponse(c.retryAfter)); got != want {
			t.Errorf("busyResponse(%v) = %q, want %q", c.retryAfter, got, want)
		}
	}
}

// TestCohortServerRequestDeadline: a request stuck in formation past
// RequestDeadline gets a 504 and the connection stays usable.
func TestCohortServerRequestDeadline(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{
		CohortSize:       32,
		FormationTimeout: -1, // never launch: the deadline must fire
		RequestDeadline:  60 * time.Millisecond,
	})
	conn := dialT(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /transfer.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	resp := string(readRawResponse(t, r))
	if !strings.HasPrefix(resp, "HTTP/1.1 504 ") {
		t.Fatalf("deadline answered %.100q, want 504", resp)
	}
	if srv.Stats().DeadlineMisses != 1 {
		t.Fatalf("deadline_misses = %d, want 1", srv.Stats().DeadlineMisses)
	}
}

// TestCohortServerStatsEndpoint: /v1/stats serves JSON under either
// pin, and its mode says which.
func TestCohortServerStatsEndpoint(t *testing.T) {
	srv := startCohortServer(t, cohortOptions{FormationTimeout: 5 * time.Millisecond})
	conn := dialT(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n")
	resp := string(readRawResponse(t, r))
	if !strings.HasPrefix(resp, "HTTP/1.1 200 ") || !strings.Contains(resp, `"mode": "cohort"`) {
		t.Fatalf("cohort stats endpoint: %.200q", resp)
	}

	host := startNew(t, WithHostExecution())
	hconn := dialT(t, host.Addr())
	hr := bufio.NewReader(hconn)
	fmt.Fprintf(hconn, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n")
	hresp := string(readRawResponse(t, hr))
	if !strings.HasPrefix(hresp, "HTTP/1.1 200 ") || !strings.Contains(hresp, `"mode": "host"`) {
		t.Fatalf("host stats endpoint: %.200q", hresp)
	}
}
