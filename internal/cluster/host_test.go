package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhythm/internal/service"
	"rhythm/internal/workloads"
)

// TestHostUnitDoneRunsBeforeDispatchReturns: a host unit executes inside
// Dispatch, on the caller's goroutine — its Done has run when Dispatch
// returns — and renders into the unit's Out buffer.
func TestHostUnitDoneRunsBeforeDispatchReturns(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8}
	cl := New(cfg)
	defer cl.Close()
	u := unitFor(t, cl, loginRaw(6201))
	u.Host = true
	u.Out = make([]byte, cl.Registry().MaxBufferBytes())
	var res *Result
	u.Done = func(r *Result) { res = r }
	if !cl.Dispatch(u) {
		t.Fatal("host unit refused by a healthy pool")
	}
	if res == nil {
		t.Fatal("Dispatch returned before the host unit's Done ran")
	}
	if res.Err != nil || !res.Host || res.Attempts != 1 {
		t.Fatalf("host result err=%v host=%v attempts=%d", res.Err, res.Host, res.Attempts)
	}
	if &res.Resps[0][0] != &u.Out[0] {
		t.Fatal("the one-request host unit did not render into its Out buffer")
	}
	if !bytes.Contains(res.Resps[0], []byte("Set-Cookie: MY_ID=")) {
		t.Fatalf("login page without a session cookie: %.200q", res.Resps[0])
	}
	if snap := cl.Snapshot(); snap.Devices[res.Device].HostUnits != 1 || snap.Devices[res.Device].Outstanding != 0 {
		t.Fatalf("device %d host_units=%d outstanding=%d, want 1/0", res.Device,
			snap.Devices[res.Device].HostUnits, snap.Devices[res.Device].Outstanding)
	}
}

// TestHostUnitFailsOverFromDeadOwner: a host unit for a group whose owner
// has died executes on the failover owner, and reports it.
func TestHostUnitFailsOverFromDeadOwner(t *testing.T) {
	cfg := Config{
		Registry:   workloads.Banking(),
		Devices:    2,
		Groups:     4, // device 0 owns groups 0 and 2
		CohortSize: 8,
		Faults:     &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindLoss, AfterUnits: 0}}},
	}
	cl := New(cfg)
	defer cl.Close()
	// A device unit of group 0 trips the loss; it moves to device 1 with
	// group 0. Group 2 still names the dead device as its owner.
	if res := collect(t, cl, []*Unit{unitFor(t, cl, loginRaw(uidInGroup(cfg, 0)))})[0]; res.Err != nil || res.Device != 1 {
		t.Fatalf("tripping unit: err=%v device=%d, want nil/1", res.Err, res.Device)
	}
	before := cl.Snapshot()
	if before.Devices[0].Health != "dead" || !hasGroup(before.Devices[0].Groups, 2) {
		t.Fatalf("device 0 health %q groups %v, want dead and still owning group 2", before.Devices[0].Health, before.Devices[0].Groups)
	}
	u := unitFor(t, cl, loginRaw(uidInGroup(cfg, 2)))
	u.Host = true
	res := collect(t, cl, []*Unit{u})[0]
	if res.Err != nil || !res.Host || res.Device != 1 || res.KernelErrs != 0 {
		t.Fatalf("host unit of the dead owner's group: err=%v host=%v device=%d kernel errors=%d, want nil/true/1/0",
			res.Err, res.Host, res.Device, res.KernelErrs)
	}
	after := cl.Snapshot()
	if after.Failovers != before.Failovers+1 || !hasGroup(after.Devices[1].Groups, 2) {
		t.Fatalf("failovers %d -> %d, device 1 groups %v: want one more failover and group 2 on device 1",
			before.Failovers, after.Failovers, after.Devices[1].Groups)
	}
}

func hasGroup(groups []int, g int) bool {
	for _, x := range groups {
		if x == g {
			return true
		}
	}
	return false
}

// TestHostUnitRefusedByDeadPool: with every device dead, Dispatch refuses
// a host unit — of a group or stateless — and never calls its Done.
func TestHostUnitRefusedByDeadPool(t *testing.T) {
	cfg := Config{
		Registry:   workloads.Banking(),
		Devices:    1,
		CohortSize: 8,
		Faults:     &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindLoss, AfterUnits: 0}}},
	}
	cl := New(cfg)
	defer cl.Close()
	if res := collect(t, cl, []*Unit{unitFor(t, cl, loginRaw(9911))})[0]; res.Err != ErrNoHealthyDevice {
		t.Fatalf("unit on the dying pool: err=%v, want ErrNoHealthyDevice", res.Err)
	}
	for _, raw := range [][]byte{loginRaw(9912), []byte("GET /account_summary.php HTTP/1.1\r\nHost: bank\r\n\r\n")} {
		u := unitFor(t, cl, raw)
		u.Host = true
		u.Done = func(*Result) { t.Errorf("dead pool ran Done for a host unit of group %d", u.Group) }
		if cl.Dispatch(u) {
			t.Fatalf("dead pool accepted a host unit of group %d", u.Group)
		}
	}
}

// reentryBackend is a group store that reports any call made while a
// call that is not a read is in flight, and any such call made while
// another call is: reads may overlap reads, nothing else may overlap.
// Each call lingers a little so that an unserialized caller would
// overlap.
type reentryBackend struct {
	service.Backend
	in, writing atomic.Int32
	overlaps    atomic.Int32
	handled     atomic.Int32
	lingerFor   time.Duration
}

func (b *reentryBackend) Handle(dst, req []byte) []byte {
	write := !b.Reads(req)
	if write {
		b.writing.Add(1)
		defer b.writing.Add(-1)
	}
	if b.in.Add(1) != 1 && (write || b.writing.Load() != 0) {
		b.overlaps.Add(1)
	}
	defer b.in.Add(-1)
	b.handled.Add(1)
	for end := time.Now().Add(b.lingerFor); time.Now().Before(end); {
	}
	return b.Backend.Handle(dst, req)
}

// TestDeviceCommitsAndHostUnitsNeverOverlap: the group lock is what keeps
// a group's store single-writer. Device cohorts commit into the store on
// the worker while host units of the same group execute on other
// goroutines; the store never sees a write overlap another call.
func TestDeviceCommitsAndHostUnitsNeverOverlap(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 1, CohortSize: 8, QueueDepth: 64}
	cl := New(cfg)
	defer cl.Close()
	be := &reentryBackend{Backend: cl.groups[0].bes[0], lingerFor: 20 * time.Microsecond}
	cl.groups[0].bes[0] = be

	const users = 8
	var sids []string
	for i := 0; i < users; i++ {
		uid := uint64(6300 + i)
		if res := collect(t, cl, []*Unit{unitFor(t, cl, loginRaw(uid))})[0]; res.Err != nil || res.KernelErrs != 0 {
			t.Fatalf("login %d: err=%v kernel errors=%d", uid, res.Err, res.KernelErrs)
		}
		sids = append(sids, predictSID(cfg, uid))
	}
	// Every unit is built up front; the goroutines only dispatch.
	const rounds = 10
	var cohorts, transfers [][]*Unit
	for i := 0; i < users; i++ {
		var cs, ts []*Unit
		for n := 0; n < rounds; n++ {
			u := unitFor(t, cl, cookieRaw("/account_summary.php", sids[0]))
			for _, sid := range sids[1:] {
				u.Reqs = append(u.Reqs, unitFor(t, cl, cookieRaw("/account_summary.php", sid)).Reqs[0])
			}
			cs = append(cs, u)
			body := fmt.Sprintf("from=0&to=1&amount=1.%02d", n)
			raw := fmt.Sprintf("POST /post_transfer.php HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=%s\r\nContent-Length: %d\r\n\r\n%s", sids[i], len(body), body)
			hu := unitFor(t, cl, []byte(raw))
			hu.Host = true
			ts = append(ts, hu)
		}
		cohorts, transfers = append(cohorts, cs), append(transfers, ts)
	}
	run := func(units []*Unit) {
		for _, u := range units {
			done := make(chan *Result, 1)
			u.Done = func(r *Result) { done <- r }
			for !cl.Dispatch(u) {
				time.Sleep(100 * time.Microsecond) // device queue full
			}
			if res := <-done; res.Err != nil || res.KernelErrs != 0 {
				t.Errorf("unit of %d requests (host %v): err=%v kernel errors=%d", len(u.Reqs), u.Host, res.Err, res.KernelErrs)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); run(cohorts[i]) }()   // device commits
		go func() { defer wg.Done(); run(transfers[i]) }() // host-unit writes
	}
	wg.Wait()
	if n := be.overlaps.Load(); n != 0 {
		t.Fatalf("%d of %d backend calls overlapped another", n, be.handled.Load())
	}
	if be.handled.Load() == 0 {
		t.Fatal("the group store saw no calls")
	}
}
