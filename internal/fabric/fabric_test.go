package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/cluster"
	"rhythm/internal/httpx"
	"rhythm/internal/session"
	"rhythm/internal/workloads"
)

// Test geometry pinned explicitly so session ids are predictable from
// outside the cluster package.
const (
	testBuckets        = 256
	testNodesPerBucket = 1028
)

func testConfig(nodes, devsPerNode int) Config {
	return Config{
		Registry:              workloads.Banking(),
		Nodes:                 nodes,
		DevicesPerNode:        devsPerNode,
		CohortSize:            8,
		SessionBuckets:        testBuckets,
		SessionNodesPerBucket: testNodesPerBucket,
	}
}

func loginRaw(uid uint64) []byte {
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, backend.PasswordFor(uid))
	return []byte(fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: bank\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
}

func cookieRaw(path, sid string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=%s\r\n\r\n", path, sid))
}

// predictSID computes the session id a node will create for uid in an
// empty array of the pinned test geometry.
func predictSID(uid uint64) string {
	arr := session.NewArray(testBuckets, testNodesPerBucket)
	id, ok := arr.Create(uid)
	if !ok {
		panic("predictSID: create failed")
	}
	return id.String()
}

// uidInGroup finds a user whose session bucket maps to group g.
func uidInGroup(groups, g int) uint64 {
	for uid := uint64(5000); ; uid++ {
		if session.BucketFor(uid, testBuckets)%groups == g {
			return uid
		}
	}
}

func unitFor(t *testing.T, f *Fabric, raw []byte) *cluster.Unit {
	t.Helper()
	req, err := httpx.Parse(raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rt, ok := f.reg.Classify(&req)
	if !ok {
		t.Fatalf("no request type for %s", req.Path)
	}
	return &cluster.Unit{Type: rt, Group: f.GroupFor(&req, rt), Reqs: []httpx.Request{req}}
}

func collect(t *testing.T, f *Fabric, units []*cluster.Unit) []*cluster.Result {
	t.Helper()
	results := make([]*cluster.Result, len(units))
	var wg sync.WaitGroup
	wg.Add(len(units))
	for i, u := range units {
		i := i
		u.Done = func(r *cluster.Result) {
			results[i] = r
			wg.Done()
		}
	}
	for _, u := range units {
		deadline := time.Now().Add(10 * time.Second)
		for !f.Dispatch(u) {
			if time.Now().After(deadline) {
				t.Fatalf("dispatch never accepted unit")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	wg.Wait()
	return results
}

// driveUsers runs login -> account_summary -> profile per uid.
func driveUsers(t *testing.T, f *Fabric, uids []uint64) (map[string][]byte, []*cluster.Result) {
	t.Helper()
	var logins []*cluster.Unit
	for _, uid := range uids {
		logins = append(logins, unitFor(t, f, loginRaw(uid)))
	}
	lres := collect(t, f, logins)
	var browses []*cluster.Unit
	for _, uid := range uids {
		sid := predictSID(uid)
		browses = append(browses, unitFor(t, f, cookieRaw("/account_summary.php", sid)))
		browses = append(browses, unitFor(t, f, cookieRaw("/profile.php", sid)))
	}
	bres := collect(t, f, browses)
	out := make(map[string][]byte)
	for i, uid := range uids {
		if lres[i] == nil || lres[i].Err != nil {
			t.Fatalf("login for %d failed: %+v", uid, lres[i])
		}
		out[fmt.Sprintf("%d/login", uid)] = lres[i].Resps[0]
		for j, step := range []string{"summary", "profile"} {
			r := bres[2*i+j]
			if r == nil || r.Err != nil {
				t.Fatalf("%s for %d failed: %+v", step, uid, r)
			}
			out[fmt.Sprintf("%d/%s", uid, step)] = r.Resps[0]
		}
	}
	return out, append(lres, bres...)
}

func diffPages(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("page count differs: %d vs %d", len(want), len(got))
	}
	for k, w := range want {
		if !bytes.Equal(w, got[k]) {
			t.Errorf("page %s differs between runs (%d vs %d bytes)", k, len(w), len(got[k]))
		}
	}
}

func newFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// startWorkers launches n in-process Workers sharing a global group
// table and returns their addresses plus a cleanup.
func startWorkers(t *testing.T, n, devsPerNode, groups int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			Registry:              workloads.Banking(),
			Devices:               devsPerNode,
			Groups:                groups,
			CohortSize:            8,
			SessionBuckets:        testBuckets,
			SessionNodesPerBucket: testNodesPerBucket,
		})
		if err := w.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(w.Close)
		addrs = append(addrs, w.Addr())
	}
	return addrs
}

// TestWireDispatchRoundTrip: a dispatch frame decodes back to the same
// requests, and dispatchWireBytes prices the exact framed size.
func TestWireDispatchRoundTrip(t *testing.T) {
	raws := [][]byte{
		loginRaw(4242),
		cookieRaw("/account_summary.php", predictSID(4242)),
		[]byte("GET /account_summary.php HTTP/1.1\r\nHost: bank\r\n\r\n"),
	}
	var reqs []httpx.Request
	for _, raw := range raws {
		q, err := httpx.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, q)
	}
	m := dispatchMsg{ID: 77, Type: 3, Group: 12, Host: true, Reqs: reqs}
	frame := appendDispatchFrame(nil, &m)
	if got, want := len(frame), dispatchWireBytes(reqs); got != want {
		t.Errorf("dispatchWireBytes = %d, framed size = %d", want, got)
	}
	dec, err := decodeDispatch(frame[5:])
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != m.ID || dec.Type != m.Type || dec.Group != m.Group || dec.Host != m.Host {
		t.Fatalf("header mismatch: %+v", dec)
	}
	if len(dec.Reqs) != len(reqs) {
		t.Fatalf("got %d reqs", len(dec.Reqs))
	}
	for i := range reqs {
		a, b := reqs[i], dec.Reqs[i]
		if a.Method != b.Method || a.Path != b.Path || a.Body != b.Body ||
			a.ContentLength != b.ContentLength || a.ScanCost != b.ScanCost ||
			len(a.Params) != len(b.Params) || len(a.Cookies) != len(b.Cookies) {
			t.Errorf("req %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestReadFrameCommitsMemoryAsBytesArrive: a peer that declares the
// largest frame and then hangs up must not make readFrame allocate the
// declared 256 MB; a frame longer than one read step still arrives whole.
func TestReadFrameCommitsMemoryAsBytesArrive(t *testing.T) {
	hdr := appendU32(nil, maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("header then EOF: err = %v, want io.EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("readFrame allocated %d bytes for a frame whose body never arrived", grew)
	}

	payload := bytes.Repeat([]byte("0123456789abcdef"), 3*frameReadStep/16)
	kind, got, wire, err := readFrame(bytes.NewReader(appendFrame(nil, frameResult, payload)))
	if err != nil || kind != frameResult || !bytes.Equal(got, payload) || wire != len(payload)+5 {
		t.Fatalf("multi-step frame: kind %d, %d payload bytes, %d wire bytes, err %v", kind, len(got), wire, err)
	}
}

// TestFabricLoopbackMatchesCluster: a single-node loopback fabric is
// byte-identical to the bare cluster it replaced.
func TestFabricLoopbackMatchesCluster(t *testing.T) {
	uids := []uint64{7001, 7002, 7003, 7004}

	ccfg := cluster.Config{
		Registry:              workloads.Banking(),
		Devices:               2,
		CohortSize:            8,
		SessionBuckets:        testBuckets,
		SessionNodesPerBucket: testNodesPerBucket,
	}
	cl := cluster.New(ccfg)
	want := make(map[string][]byte)
	driveCluster := func(raw []byte, key string) {
		req, err := httpx.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		rt, _ := cl.Registry().Classify(&req)
		done := make(chan *cluster.Result, 1)
		u := &cluster.Unit{Type: rt, Group: cl.GroupFor(&req, rt), Reqs: []httpx.Request{req},
			Done: func(r *cluster.Result) { done <- r }}
		for !cl.Dispatch(u) {
			time.Sleep(100 * time.Microsecond)
		}
		r := <-done
		if r.Err != nil {
			t.Fatalf("%s: %v", key, r.Err)
		}
		want[key] = r.Resps[0]
	}
	for _, uid := range uids {
		driveCluster(loginRaw(uid), fmt.Sprintf("%d/login", uid))
	}
	for _, uid := range uids {
		sid := predictSID(uid)
		driveCluster(cookieRaw("/account_summary.php", sid), fmt.Sprintf("%d/summary", uid))
		driveCluster(cookieRaw("/profile.php", sid), fmt.Sprintf("%d/profile", uid))
	}
	cl.Close()

	f := newFabric(t, testConfig(1, 2))
	got, _ := driveUsers(t, f, uids)
	f.Close()
	diffPages(t, want, got)
}

// TestFabricTCPMatchesLoopback: the same users through a 2-node tcp
// fabric and a 2-node loopback fabric produce byte-identical pages —
// the wire protocol never leaks into response bytes.
func TestFabricTCPMatchesLoopback(t *testing.T) {
	uids := []uint64{7101, 7102, 7103, 7104, 7105, 7106}

	lcfg := testConfig(2, 2)
	lf := newFabric(t, lcfg)
	want, _ := driveUsers(t, lf, uids)
	lsnap := lf.Snapshot()
	lf.Close()

	addrs := startWorkers(t, 2, 2, lcfg.Nodes*lcfg.DevicesPerNode)
	tcfg := testConfig(2, 2)
	tcfg.Addrs = addrs
	tf := newFabric(t, tcfg)
	if tf.tr.Kind() != "tcp" {
		t.Fatalf("transport = %s", tf.tr.Kind())
	}
	if tf.GroupCount() != lf.GroupCount() {
		t.Fatalf("group tables differ: %d vs %d", tf.GroupCount(), lf.GroupCount())
	}
	got, _ := driveUsers(t, tf, uids)
	tsnap := tf.Snapshot()
	tf.Close()

	diffPages(t, want, got)
	if len(tsnap.Nodes) != 2 || len(lsnap.Nodes) != 2 {
		t.Fatalf("node rows: tcp=%d loopback=%d", len(tsnap.Nodes), len(lsnap.Nodes))
	}
	// Same routing on both transports: per-node completion counts match.
	for i := range tsnap.Nodes {
		if tsnap.Nodes[i].Completed != lsnap.Nodes[i].Completed {
			t.Errorf("node %d completed %d on tcp, %d on loopback",
				i, tsnap.Nodes[i].Completed, lsnap.Nodes[i].Completed)
		}
	}
	if tsnap.Nodes[0].Link.SentBytes == 0 {
		t.Error("tcp node 0 reports zero sent bytes")
	}
}

// uidsPerNode finds, for each node, a uid whose group the fabric
// currently routes to that node (rendezvous hashing decouples group id
// from node id).
func uidsPerNode(t *testing.T, f *Fabric) []uint64 {
	t.Helper()
	groups := f.GroupCount()
	uids := make([]uint64, f.tr.Nodes())
	found := make([]bool, f.tr.Nodes())
	for g := 0; g < groups; g++ {
		n := f.OwnerOf(g)
		if n >= 0 && !found[n] {
			uids[n] = uidInGroup(groups, g)
			found[n] = true
		}
	}
	for n, ok := range found {
		if !ok {
			t.Fatalf("no group routes to node %d with %d groups", n, groups)
		}
	}
	return uids
}

// TestFabricNodeFaultFailover: a deterministic node kill moves the dead
// node's groups, completes every unit byte-identically, and records the
// hop in Result.Hops. The fault trips on node 1's first unit — a login
// — so the re-executed unit creates its session on the new owner and
// every later request follows it there (session-array geometry is
// global, so the pages stay byte-identical).
func TestFabricNodeFaultFailover(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Groups = 8
	clean := newFabric(t, cfg)
	uids := uidsPerNode(t, clean)
	want, _ := driveUsers(t, clean, uids)
	clean.Close()

	fcfg := cfg
	fcfg.NodeFaults = &NodeFaultPlan{Faults: []NodeFault{{Node: 1, AfterUnits: 0}}}
	f := newFabric(t, fcfg)
	got, results := driveUsers(t, f, uids)
	snap := f.Snapshot()
	f.Close()

	diffPages(t, want, got)
	hopped := 0
	for _, r := range results {
		if r.Hops > 0 {
			hopped++
		}
	}
	if hopped == 0 {
		t.Error("no result records a node hop")
	}
	if snap.NodeFailovers != 1 {
		t.Errorf("node failovers = %d, want 1", snap.NodeFailovers)
	}
	if snap.NodeRetries == 0 {
		t.Error("no node retries recorded")
	}
	var down *NodeSnapshot
	for i := range snap.Nodes {
		if snap.Nodes[i].Health == "down" {
			down = &snap.Nodes[i]
		}
	}
	if down == nil {
		t.Fatal("no node reports down")
	}
	if len(down.Groups) != 0 {
		t.Errorf("dead node still owns groups %v", down.Groups)
	}
}

// TestFabricTCPNodeFaultFailover: the same node-kill drill over the
// wire — the quiesce frame reaches the worker, the triggering unit
// re-routes with its hop recorded, nothing is lost, and pages stay
// byte-identical to an unkilled tcp run.
func TestFabricTCPNodeFaultFailover(t *testing.T) {
	groups := 8

	refAddrs := startWorkers(t, 2, 1, groups)
	rcfg := Config{Registry: workloads.Banking(), Addrs: refAddrs,
		SessionBuckets: testBuckets, SessionNodesPerBucket: testNodesPerBucket}
	rf := newFabric(t, rcfg)
	uids := uidsPerNode(t, rf)
	want, _ := driveUsers(t, rf, uids)
	rf.Close()

	addrs := startWorkers(t, 2, 1, groups)
	cfg := Config{Registry: workloads.Banking(), Addrs: addrs,
		SessionBuckets: testBuckets, SessionNodesPerBucket: testNodesPerBucket,
		NodeFaults: &NodeFaultPlan{Faults: []NodeFault{{Node: 1, AfterUnits: 0}}}}
	f := newFabric(t, cfg)
	got, results := driveUsers(t, f, uids)
	snap := f.Snapshot()
	f.Close()

	diffPages(t, want, got)
	hopped := false
	for _, r := range results {
		if r.Hops > 0 {
			hopped = true
		}
	}
	if !hopped {
		t.Error("no unit records a hop off the quiesced node")
	}
	if snap.Nodes[1].Health != "down" {
		t.Errorf("node 1 health %q, want down", snap.Nodes[1].Health)
	}
	if snap.LostUnits != 0 {
		t.Errorf("quiesce lost %d units; drain must lose none", snap.LostUnits)
	}
	if snap.Nodes[0].Completed != uint64(3*len(uids)) {
		t.Errorf("node 0 completed %d units, want all %d", snap.Nodes[0].Completed, 3*len(uids))
	}
}

// TestFabricLinkSaturation: a starvation-level link budget sheds
// dispatches and counts them.
func TestFabricLinkSaturation(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.LinkBps = 64 // ~3 bytes of burst: nothing fits
	f := newFabric(t, cfg)
	defer f.Close()
	u := unitFor(t, f, loginRaw(9001))
	u.Done = func(*cluster.Result) {}
	if f.Dispatch(u) {
		t.Fatal("saturated link accepted a unit")
	}
	snap := f.Snapshot()
	if snap.LinkSheds == 0 {
		t.Error("no link sheds recorded")
	}
	if snap.Nodes[0].Link.Sheds == 0 {
		t.Error("node link stats record no sheds")
	}
}

// TestFabricAllNodesDown: with every node dead, Dispatch refuses.
func TestFabricAllNodesDown(t *testing.T) {
	f := newFabric(t, testConfig(2, 1))
	defer f.Close()
	f.KillNode(0)
	f.KillNode(1)
	u := unitFor(t, f, loginRaw(9100))
	u.Done = func(*cluster.Result) {}
	if f.Dispatch(u) {
		t.Fatal("fully-down fabric accepted a unit")
	}
}

// TestResultResponsesBelongToTheCaller: cluster.Result.Resps is the
// caller's for good on either transport. One device with one slot runs
// three cohorts of different types of one buffer class back to back; the
// first cohort's responses, held across the other two, still read what
// they read when its Done ran.
func TestResultResponsesBelongToTheCaller(t *testing.T) {
	for _, transport := range []string{"loopback", "tcp"} {
		cfg := testConfig(1, 1)
		cfg.SlotsPerDevice = 1
		if transport == "tcp" {
			w := NewWorker(WorkerConfig{Registry: workloads.Banking(), Devices: 1, CohortSize: 8, SlotsPerDevice: 1,
				SessionBuckets: testBuckets, SessionNodesPerBucket: testNodesPerBucket})
			if err := w.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			go w.Serve()
			t.Cleanup(w.Close)
			cfg.Addrs = []string{w.Addr()}
		}
		f := newFabric(t, cfg)
		if f.tr.Kind() != transport {
			t.Fatalf("transport = %s, want %s", f.tr.Kind(), transport)
		}
		var sids []string
		for uid := uint64(7301); uid < 7305; uid++ {
			// One at a time: the one-slot device queues two units.
			if res := collect(t, f, []*cluster.Unit{unitFor(t, f, loginRaw(uid))})[0]; res.Err != nil || res.KernelErrs != 0 {
				t.Fatalf("%s: login %d: err %v, %d kernel errors", transport, uid, res.Err, res.KernelErrs)
			}
			sids = append(sids, predictSID(uid))
		}
		// cohort is one unit of every user's request for path.
		cohort := func(path string) *cluster.Result {
			u := unitFor(t, f, cookieRaw(path, sids[0]))
			for _, sid := range sids[1:] {
				u.Reqs = append(u.Reqs, unitFor(t, f, cookieRaw(path, sid)).Reqs[0])
			}
			res := collect(t, f, []*cluster.Unit{u})[0]
			if res.Err != nil || res.KernelErrs != 0 || len(res.Resps) != len(sids) {
				t.Fatalf("%s: %s: err %v, %d kernel errors, %d responses", transport, path, res.Err, res.KernelErrs, len(res.Resps))
			}
			return res
		}
		kept := cohort("/account_summary.php").Resps
		var want [][]byte
		for _, resp := range kept {
			want = append(want, bytes.Clone(resp))
		}
		cohort("/bill_pay.php")
		cohort("/order_check.php")
		for i := range kept {
			if !bytes.Equal(kept[i], want[i]) {
				t.Fatalf("%s: response %d of the first cohort changed under two later cohorts of its class", transport, i)
			}
		}
		f.Close()
	}
}
