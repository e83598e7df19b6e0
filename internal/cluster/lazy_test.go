package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rhythm/internal/session"
	"rhythm/internal/workloads"
)

// TestStrayStateStaysEmpty: group −1 units bind the device's stray state
// only so their kernels have non-nil stores and sessions. Across the
// mixed corpus — banking, ecom and telemetry, with cookie-less,
// parameter-less and stateless requests, on the host route and on the
// device — no stray array gains a session and no stray store commits a
// write, which is what lets the stray array hold one session node.
func TestStrayStateStaysEmpty(t *testing.T) {
	cfg := Config{Registry: workloads.Default(), Devices: 2, CohortSize: 8}
	cl := New(cfg)
	defer cl.Close()
	var strayWrites atomic.Int64
	for _, d := range cl.devs {
		for _, be := range d.stray.bes {
			be.SetWriteHook(func(uint64) { strayWrites.Add(1) })
		}
	}
	get := func(uri, cookie string) []byte {
		if cookie != "" {
			cookie = "Cookie: " + cookie + "\r\n"
		}
		return []byte("GET " + uri + " HTTP/1.1\r\nHost: t\r\n" + cookie + "\r\n")
	}
	post := func(uri, body string) []byte {
		return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", uri, len(body), body))
	}
	corpus := [][]byte{
		loginRaw(7101),
		post("/login.php", "passwd=xx"), // no userid
		get("/account_summary.php", "MY_ID="+predictSID(cfg, 7101)),
		get("/account_summary.php", ""), // no cookie
		post("/post_transfer.php", "from=0&to=1&amount=1.00"),
		get("/logout.php", ""),
		post("/cart.php", "uid=7102&id=4242&qty=2"),
		post("/cart.php", "id=4242&qty=2"), // no uid
		get("/index.php", ""),
		get("/browse.php?cat=books", ""),
		get("/product.php?id=4242", ""),
		get("/index.php", "EC_ID="+predictSID(cfg, 7102)),
		post("/checkout.php", ""), // no session
		post("/t/ingest", "dev=77&f=00a0"),
		post("/t/ingest", "f=00a0"), // no device
		get("/t/subscribe?sub=1", ""),
		get("/t/poll?sub=1", ""),
		get("/t/status", ""),
	}
	var stray int
	for _, host := range []bool{true, false} {
		for _, raw := range corpus {
			u := unitFor(t, cl, raw)
			u.Host = host
			if u.Group < 0 {
				stray++
			}
			if res := collect(t, cl, []*Unit{u})[0]; res.Err != nil {
				t.Fatalf("%.40q (host=%v): %v", raw, host, res.Err)
			}
		}
	}
	if stray < 2*8 {
		t.Fatalf("only %d of the corpus's units were stateless; the test needs the stray path", stray)
	}
	for _, d := range cl.devs {
		if n := d.stray.sessions.Len(); n != 0 {
			t.Errorf("device %d's stray array holds %d sessions", d.id, n)
		}
	}
	if n := strayWrites.Load(); n != 0 {
		t.Errorf("stray stores committed %d writes", n)
	}
}

// TestLazyDeviceMatchesFresh: a pool that has only executed host units
// holds no modeled device. Its first cohort builds one, and the cohort's
// responses, device counters and virtual time equal those of a fresh
// pool whose first unit is that cohort — at one host worker and at
// eight. Profile readers poll the pool the whole time (run it under
// -race).
func TestLazyDeviceMatchesFresh(t *testing.T) {
	// The cohort logs in four users (one device, so one shard group); the
	// host units log in others whose sessions land in other buckets, so
	// the cohort's session ids do not depend on them.
	cohortUIDs := []uint64{7201, 7202, 7203, 7204}
	taken := map[int]bool{}
	for _, uid := range cohortUIDs {
		taken[session.BucketFor(uid, 256)] = true
	}
	var hostUIDs []uint64
	for uid := uint64(7300); len(hostUIDs) < 6; uid++ {
		if !taken[session.BucketFor(uid, 256)] {
			hostUIDs = append(hostUIDs, uid)
		}
	}
	firstCohort := func(t *testing.T, cl *Cluster) (*Result, Snapshot) {
		t.Helper()
		u := unitFor(t, cl, loginRaw(cohortUIDs[0]))
		for _, uid := range cohortUIDs[1:] {
			u.Reqs = append(u.Reqs, unitFor(t, cl, loginRaw(uid)).Reqs[0])
		}
		res := collect(t, cl, []*Unit{u})[0]
		if res.Err != nil || res.KernelErrs != 0 {
			t.Fatalf("cohort: err=%v kernel errors=%d", res.Err, res.KernelErrs)
		}
		return res, cl.Snapshot()
	}
	for _, simPar := range []int{1, 8} {
		t.Run(fmt.Sprintf("sim-parallelism-%d", simPar), func(t *testing.T) {
			cfg := Config{Registry: workloads.Banking(), Devices: 1, CohortSize: 8, SimParallelism: simPar}
			warm := New(cfg)
			defer warm.Close()
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for i := 0; i < 2; i++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
							warm.ProfilesSince(warm.LaunchFloors())
						}
					}
				}()
			}
			for _, uid := range hostUIDs {
				u := unitFor(t, warm, loginRaw(uid))
				u.Host = true
				if res := collect(t, warm, []*Unit{u})[0]; res.Err != nil || !res.Host {
					t.Fatalf("host login %d: err=%v host=%v", uid, res.Err, res.Host)
				}
			}
			if warm.devs[0].published() != nil {
				t.Fatal("host units built the modeled device")
			}
			if st := warm.Snapshot().Devices[0].Stats; st.Launches != 0 {
				t.Fatalf("host units launched %d kernels", st.Launches)
			}
			got, gotSnap := firstCohort(t, warm)
			close(stop)
			readers.Wait()
			if warm.devs[0].published() == nil {
				t.Fatal("the first cohort did not build the modeled device")
			}
			if len(warm.ProfilesSince(nil)) == 0 {
				t.Fatal("the cohort's launches are missing from the profile")
			}

			fresh := New(cfg)
			defer fresh.Close()
			want, wantSnap := firstCohort(t, fresh)
			for i := range want.Resps {
				if !bytes.Equal(got.Resps[i], want.Resps[i]) {
					t.Errorf("response %d differs from the fresh pool's", i)
				}
			}
			if g, w := gotSnap.Devices[0], wantSnap.Devices[0]; g.Stats != w.Stats || g.VirtualTimeUs != w.VirtualTimeUs {
				t.Errorf("device after the first cohort:\n  warm  %+v at %vus\n  fresh %+v at %vus", g.Stats, g.VirtualTimeUs, w.Stats, w.VirtualTimeUs)
			}
		})
	}
}
