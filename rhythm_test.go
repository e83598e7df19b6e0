package rhythm

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"rhythm/internal/banking"
	"rhythm/internal/httpx"
)

func smallServer(p Platform) *SimServer {
	return NewSimServer(Options{
		Platform:      p,
		CohortSize:    128,
		MaxCohorts:    4,
		ValidateEvery: 64,
	})
}

func TestServerServeMixed(t *testing.T) {
	s := smallServer(TitanB)
	st := s.Serve(s.GenerateMixed(512))
	if st.Completed != 512 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.ValidationFailures != 0 {
		t.Fatalf("%d validation failures", st.ValidationFailures)
	}
	if st.Throughput <= 0 || st.MeanLatency <= 0 || st.Elapsed <= 0 {
		t.Fatalf("metrics missing: %+v", st)
	}
	if st.CohortsFormed == 0 {
		t.Fatal("no cohorts formed")
	}
}

func TestServerIsolated(t *testing.T) {
	s := smallServer(TitanC)
	reqs, err := s.GenerateIsolated("login", 256)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Serve(reqs)
	if st.Completed != 256 || st.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", st.Completed, st.Errors)
	}
}

func TestServerUnknownType(t *testing.T) {
	s := smallServer(TitanB)
	if _, err := s.GenerateIsolated("check_detail_images", 1); err == nil {
		t.Fatal("check_detail_images is served by the GPUfs study, not the banking registry")
	}
}

func TestServerQuickPayExtension(t *testing.T) {
	s := smallServer(TitanB)
	reqs, err := s.GenerateIsolated("quick_pay", 128)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Serve(reqs)
	if st.Completed != 128 || st.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", st.Completed, st.Errors)
	}
	if st.ValidationFailures != 0 {
		t.Fatalf("%d validation failures", st.ValidationFailures)
	}
}

func TestServerMultipleServeCalls(t *testing.T) {
	s := smallServer(TitanB)
	st1 := s.Serve(s.GenerateMixed(128))
	st2 := s.Serve(s.GenerateMixed(128))
	if st1.Completed != 128 || st2.Completed != 128 {
		t.Fatalf("per-run stats leaked: %d, %d", st1.Completed, st2.Completed)
	}
}

func TestServerPaced(t *testing.T) {
	s := NewSimServer(Options{
		CohortSize:       64,
		MaxCohorts:       4,
		FormationTimeout: time.Millisecond,
	})
	reqs, _ := s.GenerateIsolated("transfer", 100)
	st := s.ServePaced(reqs, 50_000) // 50K reqs/s: cohorts form slowly
	if st.Completed != 100 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.CohortsTimedOut == 0 {
		t.Fatal("slow arrivals should have timed out at least one cohort")
	}
}

func TestRequestTypes(t *testing.T) {
	names := RequestTypes()
	if len(names) != 15 { // the paper's 14 plus the quick_pay extension
		t.Fatalf("%d request types", len(names))
	}
	if names[0] != "login" || names[13] != "logout" || names[14] != "quick_pay" {
		t.Fatalf("unexpected names: %v", names)
	}
}

func TestPlatformString(t *testing.T) {
	if TitanA.String() != "Titan A" || Platform(9).String() != "unknown" {
		t.Fatal("Platform.String broken")
	}
}

func TestHostServerEndToEnd(t *testing.T) {
	srv := startNew(t, WithHostExecution())

	uid, pw := srv.Seed(4242)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	// Login.
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	status, hdrs, page := readTestResponse(t, r)
	if status != 200 {
		t.Fatalf("login status %d", status)
	}
	if !strings.Contains(page, "Login successful") {
		t.Fatal("login page marker missing")
	}
	cookie := hdrs["Set-Cookie"]
	if !strings.HasPrefix(cookie, "MY_ID=") {
		t.Fatalf("no session cookie: %q", cookie)
	}

	// Account summary on the same keep-alive connection.
	fmt.Fprintf(conn, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", cookie)
	status, _, page = readTestResponse(t, r)
	if status != 200 || !strings.Contains(page, "Account Summary") {
		t.Fatalf("summary failed: %d", status)
	}

	// Logout.
	fmt.Fprintf(conn, "GET /logout.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", cookie)
	status, _, page = readTestResponse(t, r)
	if status != 200 || !strings.Contains(page, "signed off") {
		t.Fatalf("logout failed: %d", status)
	}

	// Session must now be dead.
	fmt.Fprintf(conn, "GET /profile.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", cookie)
	_, _, page = readTestResponse(t, r)
	if !strings.Contains(page, "Request failed") {
		t.Fatal("expired session still served")
	}

	if srv.Snapshot().Served() != 4 {
		t.Fatalf("Served = %d", srv.Snapshot().Served())
	}
}

func TestHostServerRejectsGarbage(t *testing.T) {
	srv := startNew(t, WithHostExecution())

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "BREW /coffee HTTP/1.1\r\n\r\n")
	status, _, _ := readTestResponse(t, bufio.NewReader(conn))
	if status != 400 {
		t.Fatalf("garbage got status %d, want 400", status)
	}
}

// readTestResponse reads one HTTP response (with Content-Length body).
func readTestResponse(t *testing.T, r *bufio.Reader) (int, map[string]string, string) {
	t.Helper()
	statusLine, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var proto string
	var status int
	if _, err := fmt.Sscanf(statusLine, "%s %d", &proto, &status); err != nil {
		t.Fatalf("bad status line %q", statusLine)
	}
	hdrs := map[string]string{}
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		k, v, _ := strings.Cut(line, ":")
		v = strings.TrimSpace(v)
		hdrs[k] = v
		if strings.EqualFold(k, "Content-Length") {
			fmt.Sscanf(v, "%d", &cl)
		}
	}
	body := make([]byte, cl)
	if _, err := readFull(r, body); err != nil {
		t.Fatal(err)
	}
	return status, hdrs, string(body)
}

func readFull(r *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestHostServerConcurrentKeepAlive holds two keep-alive connections open
// and interleaves requests on both while a third connection stalls
// mid-request — the lock-scope fix means a slow client must not
// serialize (or block) the others.
func TestHostServerConcurrentKeepAlive(t *testing.T) {
	srv := startNew(t, WithHostExecution())

	// A stalled connection: half a request line, then silence.
	staller, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer staller.Close()
	fmt.Fprintf(staller, "GET /account_su")

	const perConn = 25
	run := func(uid uint64) error {
		_, pw := srv.Seed(uid)
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
		fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		_, hdrs, page := readTestResponse(t, r)
		if !strings.Contains(page, "Login successful") {
			return fmt.Errorf("uid %d: login failed", uid)
		}
		cookie := hdrs["Set-Cookie"]
		for i := 0; i < perConn; i++ {
			fmt.Fprintf(conn, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", cookie)
			status, _, page := readTestResponse(t, r)
			if status != 200 || !strings.Contains(page, "Account Summary") {
				return fmt.Errorf("uid %d request %d: status %d", uid, i, status)
			}
		}
		return nil
	}

	errs := make(chan error, 2)
	for _, uid := range []uint64{8801, 8802} {
		go func(uid uint64) { errs <- run(uid) }(uid)
	}
	deadline := time.After(15 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent keep-alive connections did not make progress")
		}
	}
	if got := srv.Snapshot().Served(); got < 2*(perConn+1) {
		t.Fatalf("Served = %d, want >= %d", got, 2*(perConn+1))
	}
}

func TestHostServerServesImages(t *testing.T) {
	srv := startNew(t, WithHostExecution())
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /images/banner.gif HTTP/1.1\r\nHost: t\r\n\r\n")
	status, hdrs, body := readTestResponse(t, bufio.NewReader(conn))
	if status != 200 || hdrs["Content-Type"] != "image/gif" {
		t.Fatalf("status=%d type=%q", status, hdrs["Content-Type"])
	}
	if !strings.HasPrefix(body, "GIF89a") {
		t.Fatal("not a GIF body")
	}
}

func TestServerStragglerOptions(t *testing.T) {
	srv := NewSimServer(Options{
		Platform:          TitanA,
		CohortSize:        128,
		MaxCohorts:        4,
		BackendTailProb:   0.05,
		BackendTailFactor: 10000,
		StragglerTimeout:  2 * time.Millisecond,
	})
	reqs, _ := srv.GenerateIsolated("bill_pay", 256)
	st := srv.Serve(reqs)
	if st.Completed != 256 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.Stragglers == 0 {
		t.Fatal("heavy tail with a deadline should shed stragglers")
	}
}

// TestSimServerStatsRepeat pins run-to-run determinism of the offline
// server, MeanLatency and P99Latency included: with more request types
// than contexts the pipeline wedges and force-launches the oldest
// forming cohort, and cohorts opened at the same virtual instant used to
// be picked in map order.
func TestSimServerStatsRepeat(t *testing.T) {
	run := func() Stats {
		s := NewSimServer(Options{Platform: TitanB, CohortSize: 1024, MaxCohorts: 4, Seed: 7})
		return s.Serve(s.GenerateMixed(4096))
	}
	first := run()
	if first.Completed != 4096 || first.MeanLatency <= 0 {
		t.Fatalf("run incomplete: %+v", first)
	}
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d differs at one seed:\n  first: %+v\n  again: %+v", i+2, first, again)
		}
	}
}

// TestSimSessionTableRoom: an offline server kept for many Serve calls
// gains a session with every login and loses none of them, so its table
// must hold the logins of at least two million Table 2 requests — 60
// wall seconds of the benchmark's sim_offline geometry at 30K
// requests/s — without one "session table full". Logins alone are
// driven: the generator's own, each creating the session its kernel
// would.
func TestSimSessionTableRoom(t *testing.T) {
	const requests = 2_000_000
	opts := Options{Platform: TitanB, CohortSize: 1024, MaxCohorts: 4, Seed: 3}
	opts.fill()
	sessions := newSimSessions(opts)
	gen := banking.NewGenerator(opts.Seed, sessions)
	gen.Populate(opts.Sessions)
	logins := int(requests * banking.Specs[banking.Login].MixPercent / 100)
	for i := 0; i < logins; i++ {
		req, err := httpx.Parse(gen.Request(banking.Login))
		if err != nil {
			t.Fatal(err)
		}
		uid, err := strconv.ParseUint(req.Param("userid"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sessions.Create(uid); !ok {
			t.Fatalf("session table full at login %d of %d (%d requests), %d slots live",
				i, logins, int(float64(i)*100/banking.Specs[banking.Login].MixPercent), sessions.Len())
		}
	}
}
