package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/workloads"
)

// loginRaw builds a login request for uid with its correct deterministic
// password.
func loginRaw(uid uint64) []byte {
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, backend.PasswordFor(uid))
	return []byte(fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: bank\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
}

func cookieRaw(path, sid string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=%s\r\n\r\n", path, sid))
}

// unitFor parses raw into a one-request unit routed by the cluster's
// sharding rule.
func unitFor(t *testing.T, cl *Cluster, raw []byte) *Unit {
	t.Helper()
	req, err := httpx.Parse(raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rt, ok := cl.Registry().Classify(&req)
	if !ok {
		t.Fatalf("no request type for %s", req.Path)
	}
	return &Unit{Type: rt, Group: cl.GroupFor(&req, rt), Reqs: []httpx.Request{req}}
}

// collect dispatches every unit (retrying while queues are full) and
// waits for all results.
func collect(t *testing.T, cl *Cluster, units []*Unit) []*Result {
	t.Helper()
	results := make([]*Result, len(units))
	var wg sync.WaitGroup
	wg.Add(len(units))
	for i, u := range units {
		i := i
		u.Done = func(r *Result) {
			results[i] = r
			wg.Done()
		}
	}
	for _, u := range units {
		deadline := time.Now().Add(10 * time.Second)
		for !cl.Dispatch(u) {
			if time.Now().After(deadline) {
				t.Fatalf("dispatch never accepted unit")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	wg.Wait()
	return results
}

// predictSID computes the session id the cluster will create for uid:
// session creation is deterministic in an empty array of the cluster's
// geometry.
func predictSID(cfg Config, uid uint64) string {
	cfg.fill()
	arr := session.NewArray(cfg.SessionBuckets, cfg.SessionNodesPerBucket)
	id, _, ok := arr.Create(uid)
	if !ok {
		panic("predictSID: create failed")
	}
	return id.String()
}

// uidInGroup finds a user whose session bucket maps to group g.
func uidInGroup(cfg Config, g int) uint64 {
	cfg.fill()
	for uid := uint64(5000); ; uid++ {
		if session.BucketFor(uid, cfg.SessionBuckets)%cfg.Groups == g {
			return uid
		}
	}
}

// driveUsers runs login -> account_summary -> profile for each uid and
// returns responses keyed by "uid/step".
func driveUsers(t *testing.T, cl *Cluster, cfg Config, uids []uint64) (map[string][]byte, []*Result) {
	t.Helper()
	var logins []*Unit
	for _, uid := range uids {
		logins = append(logins, unitFor(t, cl, loginRaw(uid)))
	}
	lres := collect(t, cl, logins)
	var browses []*Unit
	for _, uid := range uids {
		sid := predictSID(cfg, uid)
		browses = append(browses, unitFor(t, cl, cookieRaw("/account_summary.php", sid)))
		browses = append(browses, unitFor(t, cl, cookieRaw("/profile.php", sid)))
	}
	bres := collect(t, cl, browses)
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

// diffPages asserts two response maps are byte-identical.
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

func TestFaultPlanParse(t *testing.T) {
	p, err := ParseFaultPlan([]byte(`{"faults":[{"device":1,"kind":"loss","after_units":2},{"device":0,"kind":"launch_error","after_units":0,"count":3},{"device":0,"kind":"stall","after_units":5,"duration_ms":20}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 3 {
		t.Fatalf("got %d faults", len(p.Faults))
	}
	d0 := p.forDevice(0)
	if len(d0) != 2 || d0[0].Kind != KindLaunchError || d0[1].Kind != KindStall {
		t.Fatalf("device 0 schedule wrong: %+v", d0)
	}
	for _, bad := range []string{
		`{"faults":[{"device":0,"kind":"explode"}]}`,
		`{"faults":[{"device":-1,"kind":"loss"}]}`,
		`{"faults":[{"device":0,"kind":"loss","after_units":-2}]}`,
		`not json`,
	} {
		if _, err := ParseFaultPlan([]byte(bad)); err == nil {
			t.Errorf("plan %q parsed without error", bad)
		}
	}
}

// FuzzParseFaultPlan: no document panics the parser, and a plan it
// accepts holds only known kinds and non-negative devices and counts,
// and survives a JSON round trip unchanged.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		`{"faults":[{"device":1,"kind":"loss","after_units":2},{"device":0,"kind":"launch_error","after_units":0,"count":3},{"device":0,"kind":"stall","after_units":5,"duration_ms":20}]}`,
		`{"faults":[{"device":0,"kind":"explode"}]}`,
		`{"faults":[{"device":-1,"kind":"loss"}]}`,
		`{"faults":[]}`,
		`{}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseFaultPlan(data)
		if err != nil {
			return
		}
		for _, flt := range p.Faults {
			if (flt.Kind != KindLaunchError && flt.Kind != KindStall && flt.Kind != KindLoss) || flt.Device < 0 || flt.AfterUnits < 0 {
				t.Fatalf("accepted %+v", flt)
			}
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseFaultPlan(again)
		if err != nil || !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip of %s: %+v, %v; want %+v", again, q, err, p)
		}
	})
}

// TestClusterShardIdentity: the same users driven through a 1-device
// and a 4-device pool produce byte-identical pages — sharding never
// leaks into response bytes.
func TestClusterShardIdentity(t *testing.T) {
	uids := []uint64{7001, 7002, 7003, 7004, 7005, 7006}
	var pages []map[string][]byte
	for _, devices := range []int{1, 4} {
		cfg := Config{Registry: workloads.Banking(), Devices: devices, CohortSize: 8}
		cl := New(cfg)
		got, _ := driveUsers(t, cl, cfg, uids)
		cl.Close()
		pages = append(pages, got)
	}
	diffPages(t, pages[0], pages[1])
}

// TestClusterAffinityRouting: units of a group execute only on the
// device that owns it.
func TestClusterAffinityRouting(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8}
	cl := New(cfg)
	defer cl.Close()
	uid0, uid1 := uidInGroup(cfg, 0), uidInGroup(cfg, 1)
	_, results := driveUsers(t, cl, cfg, []uint64{uid0, uid1})
	for i, r := range results {
		want := i % 2 // driveUsers interleaves uid0, uid1 per phase
		if i >= 2 {   // browse phase: two units per uid
			want = (i - 2) / 2 % 2
		}
		if r.Device != want {
			t.Errorf("result %d executed on device %d, want %d", i, r.Device, want)
		}
	}
	snap := cl.Snapshot()
	if snap.Devices[0].UnitsDone != 3 || snap.Devices[1].UnitsDone != 3 {
		t.Errorf("units not split by affinity: %d/%d", snap.Devices[0].UnitsDone, snap.Devices[1].UnitsDone)
	}
}

// TestClusterStatelessSpread: no-affinity units spread over every
// device by least-outstanding routing.
func TestClusterStatelessSpread(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 4, CohortSize: 8}
	cl := New(cfg)
	defer cl.Close()
	// No cookie: the kernel renders the same session-error page on any
	// device, so these units carry Group -1.
	var units []*Unit
	for i := 0; i < 16; i++ {
		u := unitFor(t, cl, []byte("GET /account_summary.php HTTP/1.1\r\nHost: bank\r\n\r\n"))
		if u.Group != -1 {
			t.Fatalf("cookieless request got group %d", u.Group)
		}
		units = append(units, u)
	}
	results := collect(t, cl, units)
	seen := map[int]int{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("unit failed: %v", r.Err)
		}
		seen[r.Device]++
	}
	if len(seen) < 2 {
		t.Errorf("16 stateless units all ran on %v; want spread across devices", seen)
	}
}

// TestClusterBackpressure: with workers not yet started (Manual), the
// bounded per-device queue fills and Dispatch reports false — the 503
// path.
func TestClusterBackpressure(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8, QueueDepth: 2, Manual: true}
	cl := New(cfg)
	uid := uidInGroup(cfg, 0)
	accepted := 0
	var units []*Unit
	for i := 0; i < 5; i++ {
		u := unitFor(t, cl, loginRaw(uid))
		u.Done = func(*Result) {}
		units = append(units, u)
		if cl.Dispatch(u) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Errorf("queue depth 2 accepted %d affinity units", accepted)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(accepted)
	for _, u := range units[:accepted] {
		u.Done = func(*Result) { wg.Done() }
	}
	go func() { wg.Wait(); close(done) }()
	cl.Start()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("accepted units never completed")
	}
	cl.Close()
}

// TestClusterFailoverLoss: a device loss mid-run fails its groups over;
// every dispatched unit still completes and pages are byte-identical to
// an unfaulted pool's.
func TestClusterFailoverLoss(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8}
	uids := []uint64{uidInGroup(cfg, 0), uidInGroup(cfg, 1)}

	clean := New(cfg)
	want, _ := driveUsers(t, clean, cfg, uids)
	clean.Close()

	faulted := cfg
	faulted.Faults = &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindLoss, AfterUnits: 1}}}
	cl := New(faulted)
	got, results := driveUsers(t, cl, faulted, uids)
	snap := cl.Snapshot()
	cl.Close()

	diffPages(t, want, got)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("unit %d failed despite failover: %v", i, r.Err)
		}
	}
	if snap.Devices[0].Health != "dead" {
		t.Errorf("device 0 health %q, want dead", snap.Devices[0].Health)
	}
	if snap.Failovers == 0 {
		t.Error("no failovers recorded after device loss")
	}
	if got := snap.Devices[1].Groups; len(got) != cfg.Devices {
		t.Errorf("device 1 should own every group after failover, owns %v", got)
	}
}

// TestClusterLaunchErrorRetries: a transient launch error retries
// locally — no failover, the device stays healthy, bytes identical.
func TestClusterLaunchErrorRetries(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8}
	uids := []uint64{uidInGroup(cfg, 0), uidInGroup(cfg, 1)}

	clean := New(cfg)
	want, _ := driveUsers(t, clean, cfg, uids)
	clean.Close()

	faulted := cfg
	faulted.Faults = &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindLaunchError, AfterUnits: 1, Count: 1}}}
	cl := New(faulted)
	got, results := driveUsers(t, cl, faulted, uids)
	snap := cl.Snapshot()
	cl.Close()

	diffPages(t, want, got)
	if snap.Retries != 1 || snap.Devices[0].LaunchErrors != 1 {
		t.Errorf("retries=%d launchErrors=%d, want 1/1", snap.Retries, snap.Devices[0].LaunchErrors)
	}
	if snap.Failovers != 0 || snap.Devices[0].Health != "healthy" {
		t.Errorf("transient error caused failover (failovers=%d health=%s)", snap.Failovers, snap.Devices[0].Health)
	}
	retried := false
	for _, r := range results {
		if r.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Error("no result records a retried launch")
	}
}

// TestClusterLaunchErrorEscalates: persistent launch errors kill the
// device after MaxAttempts; the unit fails over and completes with
// byte-identical pages.
func TestClusterLaunchErrorEscalates(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8}
	uids := []uint64{uidInGroup(cfg, 0), uidInGroup(cfg, 1)}

	clean := New(cfg)
	want, _ := driveUsers(t, clean, cfg, uids)
	clean.Close()

	faulted := cfg
	faulted.Faults = &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindLaunchError, AfterUnits: 1, Count: 100}}}
	cl := New(faulted)
	got, results := driveUsers(t, cl, faulted, uids)
	snap := cl.Snapshot()
	cl.Close()

	diffPages(t, want, got)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("unit %d failed despite escalation: %v", i, r.Err)
		}
	}
	if snap.Devices[0].Health != "dead" {
		t.Errorf("device 0 health %q after persistent launch errors, want dead", snap.Devices[0].Health)
	}
	if snap.Retries < 3 {
		t.Errorf("retries=%d, want >= MaxAttempts", snap.Retries)
	}
	if snap.Failovers == 0 {
		t.Error("escalation recorded no failover")
	}
}

// TestClusterStall: a stalled device delays but loses nothing.
func TestClusterStall(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8}
	uids := []uint64{uidInGroup(cfg, 0), uidInGroup(cfg, 1)}

	clean := New(cfg)
	want, _ := driveUsers(t, clean, cfg, uids)
	clean.Close()

	faulted := cfg
	faulted.Faults = &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindStall, AfterUnits: 0, DurationMs: 30}}}
	cl := New(faulted)
	got, _ := driveUsers(t, cl, faulted, uids)
	snap := cl.Snapshot()
	cl.Close()

	diffPages(t, want, got)
	if snap.Devices[0].Stalls != 1 {
		t.Errorf("stalls=%d, want 1", snap.Devices[0].Stalls)
	}
	if snap.Devices[0].Health != "healthy" {
		t.Errorf("device 0 health %q after stall cleared, want healthy", snap.Devices[0].Health)
	}
	if snap.Failovers != 0 {
		t.Errorf("stall caused %d failovers", snap.Failovers)
	}
}

// TestClusterAllDevicesLost: when every device dies, pending work is
// shed with ErrNoHealthyDevice and later dispatches report false.
func TestClusterAllDevicesLost(t *testing.T) {
	cfg := Config{
		Registry:   workloads.Banking(),
		Devices:    1,
		CohortSize: 8,
		Faults:     &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindLoss, AfterUnits: 0}}},
	}
	cl := New(cfg)
	defer cl.Close()
	u := unitFor(t, cl, loginRaw(9901))
	resCh := make(chan *Result, 1)
	u.Done = func(r *Result) { resCh <- r }
	if !cl.Dispatch(u) {
		t.Fatal("first dispatch rejected")
	}
	select {
	case r := <-resCh:
		if r.Err != ErrNoHealthyDevice {
			t.Fatalf("err = %v, want ErrNoHealthyDevice", r.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shed result never delivered")
	}
	// The pool is now fully dead: dispatch must refuse synchronously.
	deadline := time.Now().Add(5 * time.Second)
	for cl.Dispatch(&Unit{Type: u.Type, Group: -1, Reqs: []httpx.Request{u.Reqs[0]}, Done: func(r *Result) {
		if r.Err == nil {
			t.Error("dead pool executed a unit")
		}
	}}) {
		if time.Now().After(deadline) {
			t.Fatal("dead pool keeps accepting units")
		}
		time.Sleep(time.Millisecond)
	}
	snap := cl.Snapshot()
	if snap.Sheds == 0 {
		t.Error("no sheds recorded")
	}
}

// TestClusterDrainInFlight: Close with units queued on multiple devices
// delivers every accepted unit's result before returning.
func TestClusterDrainInFlight(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 4, CohortSize: 8, QueueDepth: 16, Manual: true}
	cl := New(cfg)
	var units []*Unit
	for g := 0; g < 4; g++ {
		uid := uidInGroup(cfg, g)
		for i := 0; i < 3; i++ {
			units = append(units, unitFor(t, cl, loginRaw(uid+uint64(1024*(i+1)))))
		}
	}
	var mu sync.Mutex
	delivered := 0
	for _, u := range units {
		u.Done = func(r *Result) {
			mu.Lock()
			delivered++
			mu.Unlock()
		}
		if !cl.Dispatch(u) {
			t.Fatal("manual dispatch rejected (queue sized for all units)")
		}
	}
	cl.Start()
	cl.Close() // must block until every in-flight unit completed
	mu.Lock()
	defer mu.Unlock()
	if delivered != len(units) {
		t.Fatalf("drain delivered %d of %d units", delivered, len(units))
	}
}

// TestClusterManualDeterminism: two manual-mode runs of the same
// dispatch sequence produce identical per-device virtual times and
// aggregate stats — the property the CI bench gate relies on.
func TestClusterManualDeterminism(t *testing.T) {
	run := func() Snapshot {
		cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8, QueueDepth: 64, Manual: true}
		cl := New(cfg)
		var units []*Unit
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			u := unitFor(t, cl, loginRaw(uint64(8100+i)))
			wg.Add(1)
			u.Done = func(*Result) { wg.Done() }
			units = append(units, u)
		}
		for _, u := range units {
			if !cl.Dispatch(u) {
				t.Fatal("manual dispatch rejected")
			}
		}
		cl.Start()
		wg.Wait()
		snap := cl.Snapshot()
		cl.Close()
		return snap
	}
	a, b := run(), run()
	for i := range a.Devices {
		if a.Devices[i].VirtualTimeUs != b.Devices[i].VirtualTimeUs {
			t.Errorf("device %d virtual time differs across runs: %v vs %v",
				i, a.Devices[i].VirtualTimeUs, b.Devices[i].VirtualTimeUs)
		}
		if a.Devices[i].Stats != b.Devices[i].Stats {
			t.Errorf("device %d stats differ across runs", i)
		}
	}
	if a.Aggregate != b.Aggregate {
		t.Error("aggregate stats differ across runs")
	}
}

// TestClusterHostUnits: Unit.Host executes on the scalar path but
// produces byte-identical pages, and the two routes share group state —
// a host-path login's session works for a device-path browse.
func TestClusterHostUnits(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8}
	uids := []uint64{6101, 6102, 6103}

	ref := New(cfg)
	want, _ := driveUsers(t, ref, cfg, uids)
	ref.Close()

	cl := New(cfg)
	defer cl.Close()
	var logins []*Unit
	for _, uid := range uids {
		u := unitFor(t, cl, loginRaw(uid))
		u.Host = true
		logins = append(logins, u)
	}
	lres := collect(t, cl, logins)
	got := make(map[string][]byte)
	var browses []*Unit
	for i, uid := range uids {
		if lres[i].Err != nil || !lres[i].Host {
			t.Fatalf("host login %d: %+v", uid, lres[i])
		}
		got[fmt.Sprintf("%d/login", uid)] = lres[i].Resps[0]
		sid := predictSID(cfg, uid)
		// summary through the device kernels, profile through the host
		// path again — both against the state the host login created.
		browses = append(browses, unitFor(t, cl, cookieRaw("/account_summary.php", sid)))
		pu := unitFor(t, cl, cookieRaw("/profile.php", sid))
		pu.Host = true
		browses = append(browses, pu)
	}
	bres := collect(t, cl, browses)
	for i, uid := range uids {
		if bres[2*i].Host || !bres[2*i+1].Host {
			t.Fatalf("route flags wrong for %d: %v %v", uid, bres[2*i].Host, bres[2*i+1].Host)
		}
		got[fmt.Sprintf("%d/summary", uid)] = bres[2*i].Resps[0]
		got[fmt.Sprintf("%d/profile", uid)] = bres[2*i+1].Resps[0]
	}
	diffPages(t, want, got)

	snap := cl.Snapshot()
	var hostUnits uint64
	for _, d := range snap.Devices {
		hostUnits += d.HostUnits
	}
	if hostUnits != uint64(2*len(uids)) {
		t.Fatalf("host units = %d, want %d", hostUnits, 2*len(uids))
	}
}

// TestResultResponsesBelongToTheCaller: Result.Resps is the caller's for
// good. On a one-slot device, three cohorts of different types of one
// buffer class run back to back on the same cohort buffers; the first
// cohort's responses, held across the other two, still read what they
// read when its Done ran.
func TestResultResponsesBelongToTheCaller(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 1, SlotsPerDevice: 1, CohortSize: 8}
	cl := New(cfg)
	defer cl.Close()
	var sids []string
	for uid := uint64(7301); uid < 7305; uid++ {
		if res := collect(t, cl, []*Unit{unitFor(t, cl, loginRaw(uid))})[0]; res.Err != nil || res.KernelErrs != 0 {
			t.Fatalf("login %d: err %v, %d kernel errors", uid, res.Err, res.KernelErrs)
		}
		sids = append(sids, predictSID(cfg, uid))
	}
	// cohort is one unit of every user's request for path.
	cohort := func(path string) *Result {
		u := unitFor(t, cl, cookieRaw(path, sids[0]))
		for _, sid := range sids[1:] {
			u.Reqs = append(u.Reqs, unitFor(t, cl, cookieRaw(path, sid)).Reqs[0])
		}
		res := collect(t, cl, []*Unit{u})[0]
		if res.Err != nil || res.KernelErrs != 0 || len(res.Resps) != len(sids) {
			t.Fatalf("%s: err %v, %d kernel errors, %d responses", path, res.Err, res.KernelErrs, len(res.Resps))
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
			t.Fatalf("response %d of the first cohort changed under two later cohorts of its class", i)
		}
	}
}

// TestSlotRunsEveryWorkload: one device slot runs banking, ecom and
// telemetry cohorts in turn on its one set of lane mirrors and backend
// buffers, and every response equals the host path's
// (Registry.ExecuteScratch) over twin state. The device backs no memory:
// its buffers are priced address space and the lanes' backend bytes
// host buffers.
func TestSlotRunsEveryWorkload(t *testing.T) {
	cfg := Config{Registry: workloads.Default(), Devices: 1, SlotsPerDevice: 1, CohortSize: 8}
	get := func(uri, cookie string) []byte {
		return []byte("GET " + uri + " HTTP/1.1\r\nHost: t\r\nCookie: " + cookie + "\r\n\r\n")
	}
	post := func(uri, body string) []byte {
		return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", uri, len(body), body))
	}
	uids := []uint64{7401, 7402, 7403, 7404}
	// Each cohort is one request per user; the steps alternate workloads
	// and size classes.
	steps := []func(uid uint64) []byte{
		loginRaw,
		func(uid uint64) []byte { return get(fmt.Sprintf("/t/subscribe?dev=%d&sub=%d", uid%3, uid), "") },
		func(uid uint64) []byte { return post("/cart.php", fmt.Sprintf("uid=%d&id=%d&qty=2", uid, uid*31)) },
		func(uid uint64) []byte { return post("/t/ingest", fmt.Sprintf("dev=%d&f=%04x", uid%3, uid)) },
		func(uid uint64) []byte { return cookieRaw("/profile.php", predictSID(cfg, uid)) },
		func(uid uint64) []byte { return get(fmt.Sprintf("/t/poll?dev=%d&sub=%d", uid%3, uid), "") },
		func(uid uint64) []byte { return get(fmt.Sprintf("/product.php?id=%d", uid*1009%100000), "") },
		func(uid uint64) []byte { return cookieRaw("/account_summary.php", predictSID(cfg, uid)) },
	}
	run := func(host bool) (*Cluster, [][][]byte) {
		cl := New(cfg)
		var out [][][]byte
		for _, step := range steps {
			u := unitFor(t, cl, step(uids[0]))
			for _, uid := range uids[1:] {
				u.Reqs = append(u.Reqs, unitFor(t, cl, step(uid)).Reqs[0])
			}
			u.Host = host
			res := collect(t, cl, []*Unit{u})[0]
			if res.Err != nil || res.Host != host || res.KernelErrs != 0 || len(res.Resps) != len(uids) {
				t.Fatalf("%s (host=%v): err %v, host %v, %d kernel errors, %d responses", u.Reqs[0].Path, host, res.Err, res.Host, res.KernelErrs, len(res.Resps))
			}
			out = append(out, res.Resps)
		}
		return cl, out
	}
	ref, want := run(true)
	ref.Close()
	cl, got := run(false)
	defer cl.Close()
	for s := range steps {
		for i := range want[s] {
			if !bytes.Equal(got[s][i], want[s][i]) {
				t.Errorf("step %d lane %d: the device's response differs from the host path's", s, i)
			}
		}
	}
	if m := cl.devs[0].published().Mem; backs(m, 1) {
		t.Fatal("the device backs memory")
	}
}

// backs reports whether m backs the n bytes from address 0.
func backs(m *mem.Memory, n int) (ok bool) {
	defer func() { ok = recover() == nil }()
	m.Bytes(0, n)
	return true
}
