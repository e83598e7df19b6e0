package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/workloads"
)

// TestEpochAlignerGate exercises the aligner's blocking contract
// directly: a device more than one epoch ahead of the slowest busy
// device blocks in gate until the laggard reports progress, goes idle,
// or leaves.
func TestEpochAlignerGate(t *testing.T) {
	unblocksAfter := func(name string, release func(a *epochAligner)) {
		a := newEpochAligner(2, 100)
		a.gate(1, 0) // device 1 busy at t=0
		done := make(chan struct{})
		go func() {
			a.gate(0, 250) // 250 > 0+100: must block
			close(done)
		}()
		select {
		case <-done:
			t.Fatalf("%s: gate(0, 250) did not block behind device 1 at t=0", name)
		case <-time.After(20 * time.Millisecond):
		}
		release(a)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: gate(0, 250) still blocked after release", name)
		}
	}
	unblocksAfter("report", func(a *epochAligner) { a.report(1, 200) })
	unblocksAfter("idle", func(a *epochAligner) { a.idle(1) })
	unblocksAfter("leave", func(a *epochAligner) { a.leave(1) })
}

// TestEpochAlignerDisabled: epoch 0 (the default) makes every call a
// no-op — gate never blocks regardless of skew.
func TestEpochAlignerDisabled(t *testing.T) {
	a := newEpochAligner(2, 0)
	a.gate(1, 0)
	doneCh := make(chan struct{})
	go func() {
		a.gate(0, 1<<40)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("disabled aligner blocked a gate call")
	}
}

// page is one keyed request of a clusterRun.
type page struct {
	key string
	raw []byte
}

// clusterRun drives a deterministic manual-mode dispatch sequence — a
// login per uid, then whatever extra builds against the fresh cluster —
// and returns the final snapshot plus rendered pages by key.
func clusterRun(t *testing.T, cfg Config, uids []uint64, extra func(cl *Cluster) []page) (Snapshot, map[string][]byte) {
	t.Helper()
	cl := New(cfg)
	var reqs []page
	for _, uid := range uids {
		reqs = append(reqs, page{fmt.Sprintf("%d/login", uid), loginRaw(uid)})
	}
	if extra != nil {
		reqs = append(reqs, extra(cl)...)
	}
	pages := make(map[string][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var units []*Unit
	for _, p := range reqs {
		key := p.key
		u := unitFor(t, cl, p.raw)
		wg.Add(1)
		u.Done = func(r *Result) {
			if r.Err == nil {
				mu.Lock()
				pages[key] = r.Resps[0]
				mu.Unlock()
			}
			wg.Done()
		}
		units = append(units, u)
	}
	for _, u := range units {
		if !cl.Dispatch(u) {
			t.Fatal("manual dispatch rejected (queue sized for all units)")
		}
	}
	cl.Start()
	wg.Wait()
	snap := cl.Snapshot()
	cl.Close()
	return snap, pages
}

// TestClusterSimParallelismDeterminism: the same manual-mode dispatch
// sequence yields identical per-device virtual times, device stats, and
// page bytes whether epoch batches execute serially or on 8 host
// workers — the cluster-level half of the DESIGN.md §13 contract.
func TestClusterSimParallelismDeterminism(t *testing.T) {
	uids := []uint64{8200, 8201, 8202, 8203, 8204, 8205, 8206, 8207}
	// One user's logout and account_summary launch in the same epoch on
	// the device that owns the user's group. The logout kernel's declared
	// session-array write is what orders it against the summary's lookup
	// (DESIGN.md §13); declared as a read, the two would overlap at
	// SimParallelism 8 and the summary would render either page.
	sameUser := func(cl *Cluster) []page {
		const uid = 8300
		g := session.BucketFor(uid, cl.cfg.SessionBuckets) % cl.cfg.Groups
		sid, _, ok := cl.groups[g].sessions.Create(uid)
		if !ok {
			t.Fatal("session create failed")
		}
		return []page{
			{"8300/logout", cookieRaw("/logout.php", sid.String())},
			{"8300/summary", cookieRaw("/account_summary.php", sid.String())},
		}
	}
	run := func(simPar int) (Snapshot, map[string][]byte) {
		return clusterRun(t, Config{
			Registry: workloads.Banking(),
			Devices:  2, CohortSize: 8, QueueDepth: 64,
			Manual: true, SimParallelism: simPar,
		}, uids, sameUser)
	}
	serialSnap, serialPages := run(1)
	parSnap, parPages := run(8)
	for i := range serialSnap.Devices {
		if serialSnap.Devices[i].VirtualTimeUs != parSnap.Devices[i].VirtualTimeUs {
			t.Errorf("device %d virtual time differs: SimParallelism=1 %v vs =8 %v",
				i, serialSnap.Devices[i].VirtualTimeUs, parSnap.Devices[i].VirtualTimeUs)
		}
		if serialSnap.Devices[i].Stats != parSnap.Devices[i].Stats {
			t.Errorf("device %d stats differ between SimParallelism 1 and 8", i)
		}
	}
	if serialSnap.Aggregate != parSnap.Aggregate {
		t.Error("aggregate stats differ between SimParallelism 1 and 8")
	}
	diffPages(t, serialPages, parPages)
}

// TestClusterFailoverMidEpochDeterminism: a device lost while launches
// are still pending in its epoch batches fails its work over, and the
// surviving pages are byte-identical whether batches executed serially
// or in parallel — with virtual-clock alignment active to force the
// failover through the aligner's leave path.
func TestClusterFailoverMidEpochDeterminism(t *testing.T) {
	cfg := Config{Registry: workloads.Banking(), Devices: 2, CohortSize: 8, AlignEpoch: sim.Time(50_000)}
	uids := []uint64{uidInGroup(cfg, 0), uidInGroup(cfg, 1)}

	clean := New(cfg)
	want, _ := driveUsers(t, clean, cfg, uids)
	clean.Close()

	run := func(simPar int) map[string][]byte {
		faulted := cfg
		faulted.SimParallelism = simPar
		faulted.Faults = &FaultPlan{Faults: []Fault{{Device: 0, Kind: KindLoss, AfterUnits: 1}}}
		cl := New(faulted)
		got, results := driveUsers(t, cl, faulted, uids)
		snap := cl.Snapshot()
		cl.Close()
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("SimParallelism=%d: unit %d failed despite failover: %v", simPar, i, r.Err)
			}
		}
		if snap.Devices[0].Health != "dead" {
			t.Errorf("SimParallelism=%d: device 0 health %q, want dead", simPar, snap.Devices[0].Health)
		}
		if snap.Failovers == 0 {
			t.Errorf("SimParallelism=%d: no failovers recorded", simPar)
		}
		return got
	}
	serial := run(1)
	parallel := run(8)
	diffPages(t, want, serial)
	diffPages(t, want, parallel)
}

// TestClusterAlignEpochIdentity: bounding cross-device clock skew is a
// pacing change only — pages and per-device simulated state match a
// free-running pool's.
func TestClusterAlignEpochIdentity(t *testing.T) {
	uids := []uint64{8300, 8301, 8302, 8303, 8304, 8305}
	run := func(epoch sim.Time) (Snapshot, map[string][]byte) {
		return clusterRun(t, Config{
			Registry: workloads.Banking(),
			Devices:  3, CohortSize: 8, QueueDepth: 64,
			Manual: true, AlignEpoch: epoch,
		}, uids, nil)
	}
	freeSnap, freePages := run(0)
	alignedSnap, alignedPages := run(sim.Time(20_000))
	diffPages(t, freePages, alignedPages)
	for i := range freeSnap.Devices {
		if freeSnap.Devices[i].VirtualTimeUs != alignedSnap.Devices[i].VirtualTimeUs {
			t.Errorf("device %d virtual time differs under alignment: %v vs %v",
				i, freeSnap.Devices[i].VirtualTimeUs, alignedSnap.Devices[i].VirtualTimeUs)
		}
		if freeSnap.Devices[i].Stats != alignedSnap.Devices[i].Stats {
			t.Errorf("device %d stats differ under alignment", i)
		}
	}
}
