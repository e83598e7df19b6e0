package rhythm

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"rhythm/internal/session"
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

// TestZeroOptionsRunTitanB holds Options' documented default: a zero
// Platform is Titan B, whose integrated NIC puts no PCIe bus between the
// host and the device.
func TestZeroOptionsRunTitanB(t *testing.T) {
	var opts Options
	opts.fill()
	if got := pipelineOptions(opts).Platform.String(); got != "Titan B" {
		t.Fatalf("zero Options run %s, want Titan B", got)
	}
	s := NewSimServer(Options{})
	reqs, _ := s.GenerateIsolated("account_summary", 64)
	if st := s.Serve(reqs); st.Completed != 64 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if s.srv.BusUtilization() != 0 {
		t.Fatal("zero Options built a device behind a PCIe bus")
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

// TestSimServerStatsRepeat pins the offline server's numbers: each run
// of one input must equal the recorded Stats, MeanLatency and P99Latency
// included. With more request types than contexts the pipeline wedges
// and force-launches the oldest forming cohort, and cohorts opened at
// the same virtual instant used to be picked in map order. Titan A adds
// the bus and the host backend's workers.
func TestSimServerStatsRepeat(t *testing.T) {
	want := map[Platform]Stats{
		TitanB: {Completed: 4096, Errors: 86, Validated: 4, Throughput: 378401.86370308534, MeanLatency: 3092266, P99Latency: 10790759, Elapsed: 10824471, DeviceUtilization: 0.5246023157687271, CohortsFormed: 15, CohortsTimedOut: 14, MeanOccupancy: 273.06666666666666},
		TitanA: {Completed: 4096, Errors: 86, Validated: 4, Throughput: 170439.94603012453, MeanLatency: 10289523, P99Latency: 23926689, Elapsed: 24031925, DeviceUtilization: 0.2696958049404223, CohortsFormed: 15, CohortsTimedOut: 14, MeanOccupancy: 273.06666666666666},
	}
	for _, p := range []Platform{TitanB, TitanA} {
		for i := 0; i < 2; i++ {
			s := NewSimServer(Options{Platform: p, CohortSize: 1024, MaxCohorts: 4, Seed: 7})
			if got := s.Serve(s.GenerateMixed(4096)); got != want[p] {
				t.Fatalf("%v run %d:\n  got:  %+v\n  want: %+v", p, i+1, got, want[p])
			}
		}
	}
}

// TestSimSessionTableCycles: an offline server kept for many Serve calls
// gains a session with every login, which no logout names, so its
// table fills and must reclaim. Batches of the Table 2 share of logins
// among reads of the generator's pool sessions run the table 50 times
// past its capacity, and not one request fails: no login finds its
// bucket full, and no reclaim takes a session a later request names.
func TestSimSessionTableCycles(t *testing.T) {
	opts := Options{Platform: TitanB, CohortSize: 16, MaxCohorts: 2, Sessions: 8, Seed: 3}
	s := NewSimServer(opts)
	buckets := opts.Sessions / 4 // pipeline.NewPopulation's four pre-created sessions a bucket
	capacity := buckets * session.NodesPerBucket(opts.Sessions, buckets)
	const batch, logins = 2048, 576 // 28 %
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 50*capacity; n += logins {
		in, _ := s.GenerateIsolated("login", logins)
		reads, _ := s.GenerateIsolated("account_summary", batch-logins)
		reqs := append(in, reads...)
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		if st := s.Serve(reqs); st.Completed != batch || st.Errors != 0 {
			t.Fatalf("after %d logins into %d nodes: %d of %d completed, %d errors", n, capacity, st.Completed, batch, st.Errors)
		}
	}
}
