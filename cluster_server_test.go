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

	"rhythm/internal/cluster"
	"rhythm/internal/session"
)

// readRawResponseErr is readRawResponse for non-test goroutines: same
// framing, error return instead of t.Fatal.
func readRawResponseErr(r *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("reading response: %w (got %q so far)", err, buf.String())
		}
		buf.WriteString(line)
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
		return nil, err
	}
	buf.Write(body)
	return buf.Bytes(), nil
}

// faultTargetDevice is the pool member that will receive uid's login
// cohort under the default Groups=Devices sharding (owner[g] starts at
// g%Devices = g), so a fault planted there is guaranteed to trip.
func faultTargetDevice(uid uint64, devices int) int {
	return session.BucketFor(uid, 256) % devices
}

// driveDifferential runs the same login → account_summary → profile →
// logout sequence for several users through a host-path server and a
// multi-device cohort server in lock step, asserting every response is
// byte-identical. Serial lock-step keeps DB/session mutation order the
// same on both sides, which is what makes byte equality a meaningful
// idempotency check across failovers.
func driveDifferential(t *testing.T, dev *CohortServer, uids []uint64) {
	t.Helper()
	host := NewTCPServer(4096)
	if err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go host.Serve()

	hostConn := dialT(t, host.Addr())
	devConn := dialT(t, dev.Addr())
	hostR := bufio.NewReader(hostConn)
	devR := bufio.NewReader(devConn)

	exchange := func(label, raw string) []byte {
		t.Helper()
		if _, err := io.WriteString(hostConn, raw); err != nil {
			t.Fatal(err)
		}
		want := readRawResponse(t, hostR)
		if _, err := io.WriteString(devConn, raw); err != nil {
			t.Fatal(err)
		}
		got := readRawResponse(t, devR)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: cluster response differs from host\nhost %d bytes: %.300q\ncluster %d bytes: %.300q",
				label, len(want), want, len(got), got)
		}
		return got
	}

	for _, uid := range uids {
		_, pw := host.Seed(uid)
		dev.Seed(uid)
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
		login := exchange(fmt.Sprintf("login uid=%d", uid), fmt.Sprintf(
			"POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
		var cookie string
		for _, line := range strings.Split(string(login), "\r\n") {
			if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok {
				cookie = v
			}
		}
		if !strings.HasPrefix(cookie, "MY_ID=") {
			t.Fatalf("uid %d: no session cookie in login response", uid)
		}
		get := func(uri string) string {
			return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", uri, cookie)
		}
		exchange(fmt.Sprintf("account_summary uid=%d", uid), get("/account_summary.php"))
		exchange(fmt.Sprintf("profile uid=%d", uid), get("/profile.php"))
		exchange(fmt.Sprintf("logout uid=%d", uid), get("/logout.php"))
	}
}

var differentialUIDs = []uint64{7777, 7778, 7779, 7780, 7781, 7782}

// multiDeviceOpts is the shared pool shape for the differential tests:
// four devices, serial lock-step traffic (one-request cohorts launched
// by the formation timeout).
func multiDeviceOpts(plan *cluster.FaultPlan) CohortOptions {
	return CohortOptions{
		Devices:          4,
		CohortSize:       8,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
		FaultPlan:        plan,
	}
}

// TestCohortServerMultiDeviceDifferential: the PR-2 differential
// contract must survive sharding across four devices — every response
// byte-identical to the host path with no faults injected.
func TestCohortServerMultiDeviceDifferential(t *testing.T) {
	dev := startCohortServer(t, multiDeviceOpts(nil))
	driveDifferential(t, dev, differentialUIDs)
	st := dev.Stats()
	if len(st.Devices) != 4 {
		t.Fatalf("stats report %d devices, want 4", len(st.Devices))
	}
	if st.Failovers != 0 || st.DeviceRetries != 0 {
		t.Fatalf("clean run counted failovers=%d retries=%d", st.Failovers, st.DeviceRetries)
	}
	var used int
	for _, d := range st.Devices {
		if d.UnitsDone > 0 {
			used++
		}
		if d.Health != "healthy" {
			t.Fatalf("device %d health %q, want healthy", d.ID, d.Health)
		}
	}
	if used < 2 {
		t.Fatalf("only %d devices did work; affinity sharding did not spread %d users", used, len(differentialUIDs))
	}
}

// TestCohortServerMultiDeviceFailover: losing the device that owns the
// first user's shard group mid-sequence must fail its groups over with
// every response still byte-identical — the un-launched unit re-executes
// on the new owner against the same host-authoritative state.
func TestCohortServerMultiDeviceFailover(t *testing.T) {
	target := faultTargetDevice(differentialUIDs[0], 4)
	plan := &cluster.FaultPlan{Faults: []cluster.Fault{
		{Device: target, Kind: cluster.KindLoss, AfterUnits: 1},
	}}
	dev := startCohortServer(t, multiDeviceOpts(plan))
	driveDifferential(t, dev, differentialUIDs)
	st := dev.Stats()
	if st.Failovers == 0 {
		t.Fatal("device loss did not count a failover")
	}
	var dead bool
	for _, d := range st.Devices {
		if d.ID == target {
			dead = d.Health == "dead"
			if len(d.Groups) != 0 {
				t.Fatalf("dead device %d still owns groups %v", target, d.Groups)
			}
		}
	}
	if !dead {
		t.Fatalf("device %d not reported dead after loss fault", target)
	}
}

// TestCohortServerMultiDeviceLaunchError: a transient kernel-launch
// error retries the unit on the same device; responses stay identical
// and no failover happens.
func TestCohortServerMultiDeviceLaunchError(t *testing.T) {
	target := faultTargetDevice(differentialUIDs[0], 4)
	plan := &cluster.FaultPlan{Faults: []cluster.Fault{
		{Device: target, Kind: cluster.KindLaunchError, AfterUnits: 0, Count: 1},
	}}
	dev := startCohortServer(t, multiDeviceOpts(plan))
	driveDifferential(t, dev, differentialUIDs)
	st := dev.Stats()
	if st.DeviceRetries != 1 {
		t.Fatalf("device_retries = %d, want 1", st.DeviceRetries)
	}
	if st.Failovers != 0 {
		t.Fatalf("transient launch error caused %d failovers", st.Failovers)
	}
	for _, d := range st.Devices {
		if d.ID == target && d.LaunchErrors != 1 {
			t.Fatalf("device %d launch_errors = %d, want 1", target, d.LaunchErrors)
		}
	}
}

// TestCohortServerMultiDeviceStall: a stalled device delays its unit
// but loses nothing — identical responses, no retries, no failovers.
func TestCohortServerMultiDeviceStall(t *testing.T) {
	target := faultTargetDevice(differentialUIDs[0], 4)
	plan := &cluster.FaultPlan{Faults: []cluster.Fault{
		{Device: target, Kind: cluster.KindStall, AfterUnits: 0, DurationMs: 20},
	}}
	dev := startCohortServer(t, multiDeviceOpts(plan))
	driveDifferential(t, dev, differentialUIDs)
	st := dev.Stats()
	if st.Failovers != 0 || st.DeviceRetries != 0 {
		t.Fatalf("stall counted failovers=%d retries=%d, want 0/0", st.Failovers, st.DeviceRetries)
	}
	var stalls uint64
	for _, d := range st.Devices {
		stalls += d.Stalls
	}
	if stalls != 1 {
		t.Fatalf("pool counted %d stalls, want 1", stalls)
	}
}

// TestCohortServerMultiDeviceDrain: Shutdown with cohorts pinned as
// PartiallyFull across a four-device pool must flush every one and
// deliver all responses before closing — the multi-device graceful
// drain contract.
func TestCohortServerMultiDeviceDrain(t *testing.T) {
	srv, err := NewCohortServer(CohortOptions{
		Devices:          4,
		CohortSize:       32,
		FormationTimeout: -1, // never: only the drain can launch these
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	const users = 8
	conns := make([]net.Conn, users)
	for i := 0; i < users; i++ {
		uid, pw := srv.Seed(uint64(8101 + i))
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
		fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	}

	// Let every request reach its (type, group) cohort, then drain.
	time.Sleep(200 * time.Millisecond)
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownErr <- srv.Drain(ctx)
	}()

	var wg sync.WaitGroup
	errs := make([]error, users)
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := readRawResponseErr(bufio.NewReader(conns[i]))
			if err != nil {
				errs[i] = fmt.Errorf("user %d: %w", i, err)
				return
			}
			if !bytes.Contains(resp, []byte("Login successful")) {
				errs[i] = fmt.Errorf("user %d: drained cohort produced a bad page: %.200q", i, resp)
			}
		}(i)
	}
	wg.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
