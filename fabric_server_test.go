package rhythm

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rhythm/internal/fabric"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// startFabricWorker boots one in-process `rhythmd -worker` node on an
// ephemeral port with the geometry a MaxSessions-4096 cohort frontend
// computes for its loopback nodes, so the tcp fabric's responses can be
// byte-compared against the loopback baseline.
func startFabricWorker(t *testing.T, devices, groups int) *fabric.Worker {
	t.Helper()
	w := fabric.NewWorker(fabric.WorkerConfig{
		Registry:              DefaultRegistry(),
		Devices:               devices,
		Groups:                groups,
		CohortSize:            8,
		SlotsPerDevice:        4,
		SessionBuckets:        256,
		SessionNodesPerBucket: 4096/256*4 + 4,
		Simt:                  simt.GTXTitan(),
	})
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(w.Close)
	return w
}

// loginGroupOwner reports the fabric node the uid's login shard group
// routes to in an n-node, one-device-per-node topology — computed on a
// throwaway fabric so a test can plant a node fault on the owner before
// building the real server.
func loginGroupOwner(t *testing.T, uid uint64, nodes int) int {
	t.Helper()
	fab, err := fabric.New(fabric.Config{Registry: DefaultRegistry(), Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	return fab.OwnerOf(session.BucketFor(uid, 256) % fab.GroupCount())
}

// TestFabricServerTCPDifferentialAllWorkloads: the full three-workload
// drive (banking + ecom + telemetry, every type including the error
// pages) must be byte-identical across the scalar host path, the
// loopback fabric, and a two-worker tcp fabric. Each fabric run is
// lock-step checked against its own fresh host reference, and the two
// concatenated transcripts are then compared byte-for-byte — the wire
// protocol may not perturb a single response byte.
func TestFabricServerTCPDifferentialAllWorkloads(t *testing.T) {
	drive := func(dev *cohortServer) []byte {
		ls := newLockstep(t, dev)
		driveMixed(ls, dev)
		driveEcom(ls)
		driveTelemetry(ls, 11)
		return append([]byte(nil), ls.transcript.Bytes()...)
	}

	loop := startCohortServer(t, workloadCohortOpts(4, nil))
	want := drive(loop)
	if st := loop.Stats(); st.Transport != "loopback" {
		t.Fatalf("loopback server reports transport %q", st.Transport)
	}

	// The tcp twin: the same 4 global groups and 4 devices, split across
	// two worker nodes.
	w1 := startFabricWorker(t, 2, 4)
	w2 := startFabricWorker(t, 2, 4)
	opts := workloadCohortOpts(4, nil)
	opts.WorkerAddrs = []string{w1.Addr(), w2.Addr()}
	remote := startCohortServer(t, opts)
	got := drive(remote)

	if !bytes.Equal(want, got) {
		t.Fatalf("tcp transcript differs from loopback: loopback %d bytes, tcp %d bytes",
			len(want), len(got))
	}
	st := remote.Stats()
	if st.Transport != "tcp" {
		t.Fatalf("remote server reports transport %q, want tcp", st.Transport)
	}
	if len(st.Nodes) != 2 {
		t.Fatalf("stats report %d nodes, want 2", len(st.Nodes))
	}
	if st.NodeFailovers != 0 || st.NodeRetries != 0 || st.LostUnits != 0 {
		t.Fatalf("clean tcp run counted node_failovers=%d node_retries=%d lost_units=%d",
			st.NodeFailovers, st.NodeRetries, st.LostUnits)
	}
	var dispatched uint64
	for _, nd := range st.Nodes {
		if nd.Health != "up" {
			t.Fatalf("node %d health %q, want up", nd.ID, nd.Health)
		}
		if nd.Link.SentBytes == 0 && nd.Dispatched > 0 {
			t.Fatalf("node %d dispatched %d units but counted no wire bytes", nd.ID, nd.Dispatched)
		}
		dispatched += nd.Dispatched
	}
	if dispatched == 0 {
		t.Fatal("no units crossed the wire")
	}
}

// TestFabricServerNodeKillFailover: a whole-node loss mid-session on
// the loopback fabric must fail its groups over with every response
// still byte-identical to the host path, the Besim transfer committing
// exactly once, and zero lost units. The fault trips on the login —
// the first unit routed to the doomed node — so nothing ever executes
// there and the exactly-once guarantee is the interesting one: the
// re-routed session's later post_transfer must not double-commit.
func TestFabricServerNodeKillFailover(t *testing.T) {
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
	var mu sync.Mutex
	writes := map[uint64]int{}
	if !dev.fab.SetWriteHook(func(u uint64) {
		mu.Lock()
		writes[u]++
		mu.Unlock()
	}) {
		t.Fatal("loopback fabric refused the write hook")
	}

	ls := newLockstep(t, dev)
	_, pw := ls.host.Seed(uid)
	dev.Seed(uid)
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	login := ls.exchange("login", rawPost("/login.php", "", body))
	cookie := cookieFrom(t, login, "MY_ID")
	ls.exchange("account_summary", rawGet("/account_summary.php", cookie))
	ls.exchange("transfer form", rawGet("/transfer.php", cookie))
	ls.exchange("post_transfer", rawPost("/post_transfer.php", cookie, "from=0&to=1&amount=0.17"))
	ls.exchange("summary after write", rawGet("/account_summary.php", cookie))
	ls.exchange("logout", rawGet("/logout.php", cookie))

	mu.Lock()
	committed := writes[uid]
	mu.Unlock()
	if committed != 1 {
		t.Fatalf("besim committed %d writes for uid %d across the failover, want exactly 1", committed, uid)
	}

	st := dev.Stats()
	if st.NodeFailovers != 1 {
		t.Fatalf("node_failovers = %d, want 1", st.NodeFailovers)
	}
	if st.NodeRetries == 0 {
		t.Fatal("the re-routed login counted no node retry")
	}
	if st.LostUnits != 0 {
		t.Fatalf("lost_units = %d, want 0 (quiesce completes or nacks, never loses)", st.LostUnits)
	}
	var down, upGroups int
	for _, nd := range st.Nodes {
		switch nd.Health {
		case "down":
			down++
			if nd.ID != target {
				t.Fatalf("node %d reported down, want %d", nd.ID, target)
			}
			if len(nd.Groups) != 0 {
				t.Fatalf("dead node %d still owns groups %v", nd.ID, nd.Groups)
			}
		case "up":
			upGroups += len(nd.Groups)
		}
	}
	if down != 1 {
		t.Fatalf("%d nodes down, want 1", down)
	}
	if upGroups != 2 {
		t.Fatalf("survivor owns %d groups, want all 2", upGroups)
	}

	// The §15 trail: the re-routed login's flight record shows the node
	// hop as attempts > 1, same as a device failover would.
	doc := fetchFlightDoc(t, dev.Addr())
	var hop bool
	for _, rec := range doc.Records {
		if rec.Status == "ok" && rec.Attempts >= 2 {
			hop = true
		}
	}
	if !hop {
		t.Fatalf("no promoted record shows the node hop (attempts >= 2); records: %+v", doc.Records)
	}
}

// TestFabricServerTCPNodeKillFailover: the same mid-session node loss
// over the tcp transport — the doomed worker quiesces, the login
// re-routes to the surviving worker, responses stay byte-identical,
// and the Besim write on the surviving worker's cluster commits
// exactly once.
func TestFabricServerTCPNodeKillFailover(t *testing.T) {
	uid := differentialUIDs[0]
	target := loginGroupOwner(t, uid, 2)
	w1 := startFabricWorker(t, 1, 2)
	w2 := startFabricWorker(t, 1, 2)
	workers := []*fabric.Worker{w1, w2}

	var mu sync.Mutex
	writes := map[uint64]int{}
	for _, w := range workers {
		w.Cluster().SetWriteHook(func(u uint64) {
			mu.Lock()
			writes[u]++
			mu.Unlock()
		})
	}

	dev := startCohortServer(t, cohortOptions{
		CohortSize:       8,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
		WorkerAddrs:      []string{w1.Addr(), w2.Addr()},
		NodeFaultPlan: &fabric.NodeFaultPlan{Faults: []fabric.NodeFault{
			{Node: target, AfterUnits: 0},
		}},
	})

	ls := newLockstep(t, dev)
	_, pw := ls.host.Seed(uid)
	dev.Seed(uid)
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	login := ls.exchange("login", rawPost("/login.php", "", body))
	cookie := cookieFrom(t, login, "MY_ID")
	ls.exchange("account_summary", rawGet("/account_summary.php", cookie))
	ls.exchange("post_transfer", rawPost("/post_transfer.php", cookie, "from=0&to=1&amount=0.42"))
	ls.exchange("summary after write", rawGet("/account_summary.php", cookie))
	ls.exchange("logout", rawGet("/logout.php", cookie))

	mu.Lock()
	committed := writes[uid]
	mu.Unlock()
	if committed != 1 {
		t.Fatalf("besim committed %d writes for uid %d across the tcp failover, want exactly 1", committed, uid)
	}
	if !workers[target].Quiescing() {
		t.Fatalf("doomed worker %d never began its quiesce drain", target)
	}

	st := dev.Stats()
	if st.Transport != "tcp" {
		t.Fatalf("transport %q, want tcp", st.Transport)
	}
	if st.NodeFailovers != 1 || st.NodeRetries == 0 {
		t.Fatalf("node_failovers=%d node_retries=%d, want 1/>=1", st.NodeFailovers, st.NodeRetries)
	}
	if st.LostUnits != 0 {
		t.Fatalf("lost_units = %d, want 0", st.LostUnits)
	}
}

// TestFabricServerLinkSaturationSheds: a node link budgeted below a
// single request's modeled bus bytes must shed with the 503 path and
// surface the shed in /v1/stats (link_sheds, workload_sheds) and the
// per-node /v1/topology document.
func TestFabricServerLinkSaturationSheds(t *testing.T) {
	dev := startCohortServer(t, cohortOptions{
		CohortSize:       8,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
		LinkBps:          20, // burst = 1 byte: nothing fits
	})
	uid, pw := dev.Seed(9911)
	conn := dialT(t, dev.Addr())
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp := readRawResponse(t, bufio.NewReader(conn))
	if !bytes.HasPrefix(resp, []byte("HTTP/1.1 503 ")) {
		t.Fatalf("saturated link answered %.100q, want 503", resp)
	}

	st := dev.Stats()
	if st.LinkSheds == 0 {
		t.Fatal("stats counted no link sheds")
	}
	if st.WorkloadSheds["banking"] == 0 {
		t.Fatalf("workload_sheds = %v, want banking > 0", st.WorkloadSheds)
	}
	topo := scrape(t, dev.Addr(), TopologyPathV1)
	if !strings.HasPrefix(topo, "HTTP/1.1 200 ") {
		t.Fatalf("%s answered %.100q, want 200", TopologyPathV1, topo)
	}
	if !strings.Contains(topo, `"sheds": 1`) {
		t.Fatalf("topology document does not expose the link shed:\n%.500s", topo)
	}
	if !strings.Contains(topo, `"budget_gbps"`) {
		t.Fatalf("topology document has no link budget field:\n%.500s", topo)
	}
}
