package rhythm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/session"
)

// lockstep drives identical raw requests through the scalar reference
// and a server serially (reference first, so state mutations commit in
// the same order on both sides) and asserts every response is
// byte-identical. The concatenated server transcript doubles as a
// determinism witness across pool configurations.
type lockstep struct {
	t          *testing.T
	host       *reference
	devConn    net.Conn
	devR       *bufio.Reader
	transcript bytes.Buffer
	exchanges  int
}

// newLockstep builds a fresh reference (session geometry 4096, matching
// the options the workload tests use) and dials the server under test.
func newLockstep(t *testing.T, dev interface{ Addr() net.Addr }) *lockstep {
	t.Helper()
	return newLockstepSessions(t, dev, 4096)
}

// newLockstepSessions is newLockstep against a server sized for
// maxSessions sessions: session ids only match at equal geometry.
func newLockstepSessions(t *testing.T, dev interface{ Addr() net.Addr }, maxSessions int) *lockstep {
	t.Helper()
	ls := &lockstep{t: t, host: newReference(maxSessions)}
	ls.devConn = dialT(t, dev.Addr())
	ls.devR = bufio.NewReader(ls.devConn)
	return ls
}

func (ls *lockstep) exchange(label, raw string) []byte {
	ls.t.Helper()
	want := ls.host.answer([]byte(raw))
	if _, err := io.WriteString(ls.devConn, raw); err != nil {
		ls.t.Fatal(err)
	}
	got := readRawResponse(ls.t, ls.devR)
	if !bytes.Equal(want, got) {
		ls.t.Fatalf("%s: server response differs from the scalar reference\nreference %d bytes: %.300q\nserver %d bytes: %.300q",
			label, len(want), want, len(got), got)
	}
	ls.transcript.WriteString(label + "\n")
	ls.transcript.Write(got)
	ls.exchanges++
	return got
}

func rawGet(uri, cookie string) string {
	if cookie == "" {
		return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\n\r\n", uri)
	}
	return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", uri, cookie)
}

func rawPost(uri, cookie, body string) string {
	if cookie == "" {
		return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", uri, len(body), body)
	}
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: t\r\nCookie: %s\r\nContent-Length: %d\r\n\r\n%s",
		uri, cookie, len(body), body)
}

// cookieFrom extracts the "NAME=value" pair a Set-Cookie header issued.
func cookieFrom(t *testing.T, resp []byte, name string) string {
	t.Helper()
	for _, line := range strings.Split(string(resp), "\r\n") {
		if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok && strings.HasPrefix(v, name+"=") {
			return v
		}
	}
	t.Fatalf("response carries no %s cookie: %.300q", name, resp)
	return ""
}

// workloadCohortOpts is the shared cohort shape for the workload
// differential tests: serial lock-step traffic (single-request cohorts
// launched by the formation timeout) with the host server's session
// geometry so both sides issue identical session ids.
func workloadCohortOpts(devices int, plan *cluster.FaultPlan) cohortOptions {
	return cohortOptions{
		Devices:          devices,
		CohortSize:       8,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
		FaultPlan:        plan,
	}
}

// driveEcom exercises every e-commerce type — catalog reads with and
// without a session, the session-creating cart add, the two-round-trip
// checkout, the variable-stage empty-cart checkout — plus the
// missing-parameter and missing-session error pages.
func driveEcom(ls *lockstep) {
	ls.exchange("ecom index", rawGet("/index.php", ""))
	ls.exchange("ecom browse", rawGet("/browse.php?cat=books", ""))
	ls.exchange("ecom browse no cat", rawGet("/browse.php", ""))
	ls.exchange("ecom search", rawGet("/search.php?q=lamp", ""))
	ls.exchange("ecom product", rawGet("/product.php?id=4242", ""))
	cart := ls.exchange("ecom cart_add", rawPost("/cart.php", "", "uid=9001&id=4242&qty=2"))
	cookie := cookieFrom(ls.t, cart, "EC_ID")
	ls.exchange("ecom index session", rawGet("/index.php", cookie))
	ls.exchange("ecom cart_add again", rawPost("/cart.php", cookie, "uid=9001&id=137&qty=1"))
	ls.exchange("ecom checkout", rawPost("/checkout.php", cookie, ""))
	ls.exchange("ecom checkout empty", rawPost("/checkout.php", cookie, ""))
	ls.exchange("ecom checkout no session", rawPost("/checkout.php", "", ""))
}

// driveTelemetry exercises every telemetry type against device stream
// dev — status, subscribe, ingest, poll (with frames, drained, and
// multi-subscriber fan-out) — plus the not-subscribed and bad-frame
// error pages.
func driveTelemetry(ls *lockstep, dev uint64) {
	d := strconv.FormatUint(dev, 10)
	ls.exchange("telemetry status empty", rawGet("/t/status?dev="+d, ""))
	ls.exchange("telemetry subscribe", rawGet("/t/subscribe?dev="+d+"&sub=1", ""))
	for i := 0; i < 5; i++ {
		ls.exchange(fmt.Sprintf("telemetry ingest %d", i),
			rawPost("/t/ingest", "", fmt.Sprintf("dev=%s&f=%04x", d, 0xa0+i)))
	}
	ls.exchange("telemetry poll", rawGet("/t/poll?dev="+d+"&sub=1", ""))
	ls.exchange("telemetry poll drained", rawGet("/t/poll?dev="+d+"&sub=1", ""))
	ls.exchange("telemetry subscribe 2", rawGet("/t/subscribe?dev="+d+"&sub=2", ""))
	ls.exchange("telemetry ingest late", rawPost("/t/ingest", "", "dev="+d+"&f=beef"))
	ls.exchange("telemetry poll sub2", rawGet("/t/poll?dev="+d+"&sub=2", ""))
	ls.exchange("telemetry poll sub1 late", rawGet("/t/poll?dev="+d+"&sub=1", ""))
	ls.exchange("telemetry status", rawGet("/t/status?dev="+d, ""))
	ls.exchange("telemetry poll unsubscribed", rawGet("/t/poll?dev="+d+"&sub=9", ""))
	ls.exchange("telemetry ingest bad frame", rawPost("/t/ingest", "", "dev="+d+"&f=zz"))
}

// driveMixed interleaves banking, e-commerce, and telemetry requests on
// one connection pair — the three workloads sharing devices, sessions
// arrays, and shard groups.
func driveMixed(ls *lockstep, dev *cohortServer) {
	t := ls.t
	uid, pw := ls.host.Seed(4444)
	if _, dpw := dev.Seed(4444); dpw != pw {
		t.Fatalf("password mismatch between host and cohort seeds")
	}
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	login := ls.exchange("bank login", rawPost("/login.php", "", body))
	bank := cookieFrom(t, login, "MY_ID")

	ls.exchange("ecom index", rawGet("/index.php", ""))
	ls.exchange("telemetry subscribe", rawGet("/t/subscribe?dev=5&sub=1", ""))
	ls.exchange("bank account_summary", rawGet("/account_summary.php", bank))
	cart := ls.exchange("ecom cart_add", rawPost("/cart.php", "", "uid=9001&id=55&qty=3"))
	ec := cookieFrom(t, cart, "EC_ID")
	ls.exchange("telemetry ingest", rawPost("/t/ingest", "", "dev=5&f=0001"))
	ls.exchange("bank transfer", rawGet("/transfer.php", bank))
	ls.exchange("ecom checkout", rawPost("/checkout.php", ec, ""))
	ls.exchange("telemetry poll", rawGet("/t/poll?dev=5&sub=1", ""))
	ls.exchange("bank post_transfer", rawPost("/post_transfer.php", bank, "from=0&to=1&amount=0.42"))
	ls.exchange("ecom product", rawGet("/product.php?id=55", ""))
	ls.exchange("telemetry status", rawGet("/t/status?dev=5", ""))
	ls.exchange("bank logout", rawGet("/logout.php", bank))
	ls.exchange("telemetry poll drained", rawGet("/t/poll?dev=5&sub=1", ""))
}

// TestCohortServerDifferentialEcomAllTypes: every e-commerce type must
// be byte-identical between the scalar host path and the cohort device
// pipeline — the same contract banking established in PR 2, now holding
// for a registry workload with its own store, buffers, and sessions.
func TestCohortServerDifferentialEcomAllTypes(t *testing.T) {
	dev := startCohortServer(t, workloadCohortOpts(1, nil))
	ls := newLockstep(t, dev)
	driveEcom(ls)
	st := dev.Stats()
	for _, name := range []string{"ecom/index", "ecom/browse", "ecom/search",
		"ecom/product_detail", "ecom/cart_add", "ecom/checkout"} {
		ts, ok := st.Types[name]
		if !ok {
			t.Fatalf("stats missing type %q after drive; have %v", name, st.Types)
		}
		if ts.Workload != "ecom" {
			t.Fatalf("type %q reports workload %q, want ecom", name, ts.Workload)
		}
	}
}

// TestCohortServerDifferentialTelemetryAllTypes: the telemetry types'
// byte-identity differential, including multi-subscriber fan-out and
// the error pages.
func TestCohortServerDifferentialTelemetryAllTypes(t *testing.T) {
	dev := startCohortServer(t, workloadCohortOpts(1, nil))
	ls := newLockstep(t, dev)
	driveTelemetry(ls, 11)
	st := dev.Stats()
	for _, name := range []string{"telemetry/ingest", "telemetry/subscribe",
		"telemetry/poll", "telemetry/status"} {
		ts, ok := st.Types[name]
		if !ok {
			t.Fatalf("stats missing type %q after drive; have %v", name, st.Types)
		}
		if ts.Workload != "telemetry" {
			t.Fatalf("type %q reports workload %q, want telemetry", name, ts.Workload)
		}
	}
}

// TestCohortServerMixedWorkloadDifferential: all three workloads
// interleaved on a four-device pool stay byte-identical to the host
// path, and the stats document namespaces every section by workload
// (every Types key is workload/name).
func TestCohortServerMixedWorkloadDifferential(t *testing.T) {
	dev := startCohortServer(t, workloadCohortOpts(4, nil))
	ls := newLockstep(t, dev)
	driveMixed(ls, dev)
	st := dev.Stats()
	if want := []string{"banking", "ecom", "telemetry"}; !equalStrings(st.Workloads, want) {
		t.Fatalf("stats workloads = %v, want %v", st.Workloads, want)
	}
	for name, wantWorkload := range map[string]string{
		"banking/login":    "banking",
		"ecom/cart_add":    "ecom",
		"telemetry/poll":   "telemetry",
		"telemetry/ingest": "telemetry",
	} {
		ts, ok := st.Types[name]
		if !ok {
			t.Fatalf("stats missing type %q after mixed drive", name)
		}
		if ts.Workload != wantWorkload {
			t.Fatalf("type %q reports workload %q, want %q", name, ts.Workload, wantWorkload)
		}
	}
	if st.Failovers != 0 || st.DeviceRetries != 0 {
		t.Fatalf("clean mixed run counted failovers=%d retries=%d", st.Failovers, st.DeviceRetries)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMixedWorkloadSimParallelismDeterminism: the full mixed drive
// (banking + ecom + telemetry on four devices) produces bit-identical
// transcripts whether the simulator runs kernel launches serially or
// eight-wide — the cohortOptions knob behind RHYTHM_SIM_PARALLELISM.
// Each run is additionally byte-checked against its own fresh host
// reference, and the -race CI leg runs this test with the checker on.
func TestMixedWorkloadSimParallelismDeterminism(t *testing.T) {
	var transcripts [][]byte
	for _, par := range []int{1, 8} {
		opts := workloadCohortOpts(4, nil)
		opts.SimParallelism = par
		dev := startCohortServer(t, opts)
		ls := newLockstep(t, dev)
		driveMixed(ls, dev)
		driveEcom(ls)
		driveTelemetry(ls, 11)
		transcripts = append(transcripts, append([]byte(nil), ls.transcript.Bytes()...))
	}
	if !bytes.Equal(transcripts[0], transcripts[1]) {
		t.Fatalf("mixed-workload transcripts differ between sim parallelism 1 and 8:\np1 %d bytes, p8 %d bytes",
			len(transcripts[0]), len(transcripts[1]))
	}
}

// pollSeqs parses a RHYTHM-T FRAMES page, asserts its lost counter is
// zero, checks each frame's payload matches its sequence number (the
// ingest loop publishes %04x of the seq), and returns the sequence
// numbers in page order.
func pollSeqs(t *testing.T, resp []byte) []uint64 {
	t.Helper()
	_, body, ok := strings.Cut(string(resp), "\r\n\r\n")
	if !ok {
		t.Fatalf("poll response has no body: %.300q", resp)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "RHYTHM-T FRAMES ") {
		t.Fatalf("not a frames page: %.300q", body)
	}
	if !strings.Contains(lines[0], " lost=0 ") {
		t.Fatalf("poll reported lost frames: %q", lines[0])
	}
	var seqs []uint64
	for _, line := range lines[1:] {
		// Dynamic page fields are padded to their fixed SIMT geometry;
		// trim the padding and skip pure-filler lines.
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		s, payload, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("bad frame line %q", line)
		}
		seq, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad frame seq in %q: %v", line, err)
		}
		if want := fmt.Sprintf("%04x", seq); payload != want {
			t.Fatalf("frame %d carries payload %q, want %q", seq, payload, want)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// TestTelemetryFanOutExactlyOnceAcrossFailover: losing the device that
// owns a telemetry stream's shard group mid-publish must not duplicate,
// drop, or reorder a single frame for either subscriber. Publishes
// commit at unit launch and only un-launched units transfer to the new
// owner, so both cursors see the full sequence exactly once, in order,
// with the broker's lost counter at zero throughout.
func TestTelemetryFanOutExactlyOnceAcrossFailover(t *testing.T) {
	const devID = 11
	target := session.BucketFor(devID, 256) % 4
	plan := &cluster.FaultPlan{Faults: []cluster.Fault{
		{Device: target, Kind: cluster.KindLoss, AfterUnits: 3},
	}}
	srv := startCohortServer(t, workloadCohortOpts(4, plan))
	conn := dialT(t, srv.Addr())
	r := bufio.NewReader(conn)
	send := func(raw string) []byte {
		t.Helper()
		if _, err := io.WriteString(conn, raw); err != nil {
			t.Fatal(err)
		}
		return readRawResponse(t, r)
	}
	d := strconv.Itoa(devID)
	send(rawGet("/t/subscribe?dev="+d+"&sub=1", ""))
	send(rawGet("/t/subscribe?dev="+d+"&sub=2", ""))

	// Publish frames 0..total-1, polling subscriber 1 along the way so
	// its drain interleaves with the failover; subscriber 2 drains only
	// at the end and must still see everything.
	const total = 30
	var got1, got2 []uint64
	for i := 0; i < total; i++ {
		resp := send(rawPost("/t/ingest", "", fmt.Sprintf("dev=%s&f=%04x", d, i)))
		if !bytes.Contains(resp, []byte("RHYTHM-T PUB dev="+d)) {
			t.Fatalf("ingest %d failed: %.300q", i, resp)
		}
		if i%7 == 3 {
			got1 = append(got1, pollSeqs(t, send(rawGet("/t/poll?dev="+d+"&sub=1", "")))...)
		}
	}
	drain := func(sub string, into *[]uint64) {
		for rounds := 0; rounds < 10; rounds++ {
			seqs := pollSeqs(t, send(rawGet("/t/poll?dev="+d+"&sub="+sub, "")))
			*into = append(*into, seqs...)
			if len(seqs) == 0 {
				return
			}
		}
		t.Fatalf("subscriber %s never drained", sub)
	}
	drain("1", &got1)
	drain("2", &got2)

	for name, got := range map[string][]uint64{"sub1": got1, "sub2": got2} {
		if len(got) != total {
			t.Fatalf("%s received %d frames, want %d: %v", name, len(got), total, got)
		}
		for i, seq := range got {
			if seq != uint64(i) {
				t.Fatalf("%s frame %d has seq %d — delivery not exactly-once in-order: %v", name, i, seq, got)
			}
		}
	}

	st := srv.Stats()
	if st.Failovers == 0 {
		t.Fatal("fault plan did not trigger a failover — the drive never exercised the transfer path")
	}
	var dead bool
	for _, dv := range st.Devices {
		if dv.ID == target {
			dead = dv.Health == "dead"
		}
	}
	if !dead {
		t.Fatalf("device %d not reported dead after loss fault", target)
	}
}
