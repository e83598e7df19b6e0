package rhythm

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDefaultServerAnswersLoneRequestsOnHostRoute: rhythm.New with no
// options runs the formation controller adaptive, so serial lock-step
// traffic — always below any crossover — is answered as one-request host
// units on the owning device: byte-identical to the host server over all
// three workloads, no cohort formed, and no formation delay paid.
func TestDefaultServerAnswersLoneRequestsOnHostRoute(t *testing.T) {
	dev := startNew(t).(*cohortServer)
	ls := newLockstepSessions(t, dev, 1<<16) // New's default session geometry
	driveBanking(ls, dev)
	driveEcom(ls)
	driveTelemetry(ls, 11)

	st := dev.Stats()
	if st.HostFallbacks != uint64(ls.exchanges) || st.CohortsFormed != 0 {
		t.Fatalf("host_fallbacks=%d cohorts_formed=%d after %d lone requests, want %d/0",
			st.HostFallbacks, st.CohortsFormed, ls.exchanges, ls.exchanges)
	}
	if st.Adapt == nil || st.Adapt.Pinned || st.Adapt.SLOMs != 50 {
		t.Fatalf("default policy is not adaptive at a 50ms target: %+v", st.Adapt)
	}
	var byType uint64
	for _, ts := range st.Types {
		if ts.Requests != ts.HostRequests {
			t.Fatalf("type counts requests=%d host_requests=%d, want equal with everything host-routed", ts.Requests, ts.HostRequests)
		}
		byType += ts.Requests
	}
	if byType != uint64(ls.exchanges) {
		t.Fatalf("per-type requests sum to %d, want %d", byType, ls.exchanges)
	}

	// An idle default server answers a lone request without waiting for
	// a cohort: well under the 2ms every request paid behind the fixed
	// timeout. Best of a few tries, so a scheduling hiccup on a shared
	// machine does not fail the test.
	conn := dialT(t, dev.Addr())
	r := bufio.NewReader(conn)
	best := time.Hour
	for i := 0; i < 20; i++ {
		begin := time.Now()
		fmt.Fprint(conn, rawGet("/index.php", ""))
		readRawResponse(t, r)
		if d := time.Since(begin); d < best {
			best = d
		}
	}
	if best >= time.Millisecond {
		t.Fatalf("lone request on an idle default server took %v at best, want < 1ms", best)
	}
}

// TestDefaultServerParksHostUnitsPastDeviceQueue: more concurrent callers
// than the owning device's dispatch queue holds (8 by default) must not
// turn into 503s on the host route — host units take no queue place:
// each executes on its own connection handler, under the group's lock.
func TestDefaultServerParksHostUnitsPastDeviceQueue(t *testing.T) {
	dev := startNew(t).(*cohortServer)
	const conns, each = 32, 40
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		conn := dialT(t, dev.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := bufio.NewReader(conn)
			for j := 0; j < each; j++ {
				fmt.Fprint(conn, rawGet("/index.php", ""))
				if resp, err := readResponse(r); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
					t.Errorf("request %d answered %.60q (%v)", j, resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := dev.Stats()
	if st.HostFallbacks != conns*each || st.RejectedPool != 0 || st.RejectedQueue != 0 || st.CohortsFormed != 0 {
		t.Fatalf("host_fallbacks=%d rejected_pool=%d rejected_queue=%d cohorts_formed=%d, want %d/0/0/0",
			st.HostFallbacks, st.RejectedPool, st.RejectedQueue, st.CohortsFormed, conns*each)
	}
}

// TestDefaultServerBatchesBurst: the same always-on controller with the
// host route disabled still forms cohorts from a many-connection burst,
// so its device route is exercised through sockets.
func TestDefaultServerBatchesBurst(t *testing.T) {
	fastTick := func(o *cohortOptions) { o.AdaptTick = 5 * time.Millisecond }
	dev := startNew(t, WithCrossoverRate(-1), fastTick).(*cohortServer)
	const conns = 32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		conn := dialT(t, dev.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := bufio.NewReader(conn)
			for {
				select {
				case <-stop:
					return
				default:
				}
				fmt.Fprint(conn, rawGet("/browse.php?cat=books", ""))
				if resp, err := readResponse(r); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
					t.Errorf("burst request answered %.60q (%v)", resp, err)
					return
				}
			}
		}()
	}
	// The controller starts at threshold 1 and widens once its ticks have
	// seen the burst's rate; wait for that, not for a fixed time.
	var st CohortServerStats
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if st = dev.Stats(); st.MaxOccupancy > 1 {
			break
		}
	}
	close(stop)
	wg.Wait()
	if st.MaxOccupancy <= 1 || st.CohortsEarly+st.CohortsTimedOut == 0 {
		t.Fatalf("burst of %d connections did not batch: max_occupancy=%d early=%d timeout=%d",
			conns, st.MaxOccupancy, st.CohortsEarly, st.CohortsTimedOut)
	}
	if st.HostFallbacks != 0 {
		t.Fatalf("host_fallbacks=%d with the host route disabled", st.HostFallbacks)
	}
}

// TestPinnedParksBehindFormingContext: with the one context forming
// another type's cohort and nothing launched yet, a pinned server parks
// requests instead of shedding them — each timer's launch completes,
// frees the context and the next parked type forms. (A pinned server
// never takes the host route, and the host route never parks: it does
// not pass through the formation loop.)
func TestPinnedParksBehindFormingContext(t *testing.T) {
	dev := startNew(t, WithFormation(0, 1, 2*time.Millisecond)).(*cohortServer)
	parked := make(chan int, 1)
	uris := []string{"/index.php", "/browse.php?cat=books", "/search.php?q=lamp"}
	dev.doCh <- func() { // all admitted before the loop can serve the first one's timer
		for range uris {
			dev.admit(<-dev.admitCh)
		}
		parked <- len(dev.overflow)
	}
	var readers []*bufio.Reader
	for _, uri := range uris {
		conn := dialT(t, dev.Addr())
		fmt.Fprint(conn, rawGet(uri, ""))
		readers = append(readers, bufio.NewReader(conn))
	}
	if n := <-parked; n != 2 {
		t.Fatalf("%d requests parked behind the forming context, want 2", n)
	}
	for i, r := range readers {
		if resp := readRawResponse(t, r); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
			t.Fatalf("request %d answered %.80q", i, resp)
		}
	}
	if st := dev.Stats(); st.RejectedPool != 0 || st.CohortsTimedOut != 3 || st.HostFallbacks != 0 {
		t.Fatalf("rejected_pool=%d cohorts_timed_out=%d host_fallbacks=%d, want 0/3/0",
			st.RejectedPool, st.CohortsTimedOut, st.HostFallbacks)
	}
}

// TestDrainAnswersHostUnitsInFlight: Drain waits for host-routed
// requests the way it waits for cohorts. Four telemetry ingests take the
// host route and are held mid-execution — a write hook blocks inside the
// first one's backend call, under its shard group's lock, and the others
// wait their turn — when Drain begins. Each is answered with its page,
// none with a 503. Over tcp, closing the fabric before they finish would
// lose their units, so that run fails if Drain does not wait.
func TestDrainAnswersHostUnitsInFlight(t *testing.T) {
	for _, transport := range []string{"loopback", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			const reqs = 4
			entered, release := make(chan struct{}, reqs), make(chan struct{})
			hold := func(uint64) {
				entered <- struct{}{}
				<-release
			}
			var once sync.Once
			unhold := func() { once.Do(func() { close(release) }) }
			opts := cohortOptions{CrossoverRate: 1e12} // always the host route
			if transport == "tcp" {
				w := startFabricWorker(t, 1, 1)
				w.Cluster().SetWriteHook(hold)
				opts.WorkerAddrs = []string{w.Addr()}
			}
			t.Cleanup(unhold) // a failed run must not leave the worker blocked
			dev, err := newCohortServer(opts)
			if err != nil {
				t.Fatal(err)
			}
			if transport == "loopback" && !dev.fab.SetWriteHook(hold) {
				t.Fatal("loopback fabric refused the write hook")
			}
			if err := dev.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			go dev.Serve()
			var readers []*bufio.Reader
			for i := 0; i < reqs; i++ {
				conn := dialT(t, dev.Addr())
				fmt.Fprint(conn, rawPost("/t/ingest", "", fmt.Sprintf("dev=%d&f=%04x", 7+i, i)))
				readers = append(readers, bufio.NewReader(conn))
			}
			<-entered
			for deadline := time.Now().Add(10 * time.Second); dev.hostRoute.Load() != reqs; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d requests reached the host route", dev.hostRoute.Load(), reqs)
				}
			}
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				drained <- dev.Drain(ctx)
			}()
			<-dev.doneCh // the loop has nothing in flight and is gone
			select {
			case err := <-drained:
				t.Fatalf("Drain returned (%v) with %d host-routed requests held", err, reqs)
			case <-time.After(50 * time.Millisecond): // time enough to close the fabric
			}
			unhold()
			for _, r := range readers {
				if resp := readRawResponse(t, r); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
					t.Fatalf("request in flight at Drain answered %.80q", resp)
				}
			}
			if err := <-drained; err != nil {
				t.Fatalf("Drain: %v", err)
			}
			st := dev.Stats()
			if st.HostFallbacks != reqs || st.RejectedPool != 0 || st.RejectedQueue != 0 {
				t.Fatalf("host_fallbacks=%d rejected_pool=%d rejected_queue=%d, want %d/0/0",
					st.HostFallbacks, st.RejectedPool, st.RejectedQueue, reqs)
			}
		})
	}
}

// TestStatsScrapeDoesNotStallLoop: the latency windows are full, and a
// snapshot on the loop goroutine still costs well under a millisecond —
// it copies two of them; the percentile sorts run on the scraper's
// goroutine.
func TestStatsScrapeDoesNotStallLoop(t *testing.T) {
	dev := startNew(t).(*cohortServer)
	filled := make(chan struct{})
	dev.doCh <- func() {
		for i := 0; i < 2*latencyWindow; i++ {
			v := float64(time.Millisecond)
			if i >= latencyWindow {
				v = float64(3 * time.Millisecond) // the step: only this half is still held
			}
			dev.record(dev.reqLat, v)
			dev.record(dev.formWait, v)
			dev.record(dev.launchLat, v)
		}
		close(filled)
	}
	<-filled
	if st := dev.Stats(); st.LatencyMsP50 != 3 || st.FormWaitMsP99 != 3 || st.LaunchDevUsMean != 3000 {
		t.Fatalf("p50=%vms form p99=%vms launch mean=%vus, want the late value 3ms on each",
			st.LatencyMsP50, st.FormWaitMsP99, st.LaunchDevUsMean)
	}
	best := time.Hour
	took := make(chan time.Duration, 1)
	for i := 0; i < 10; i++ {
		bufs := make([]float64, 2*latencyWindow)
		clear(bufs) // as Stats does
		dev.doCh <- func() {
			begin := time.Now()
			dev.snapshot(bufs[:latencyWindow], bufs[latencyWindow:])
			took <- time.Since(begin)
		}
		if d := <-took; d < best {
			best = d
		}
	}
	t.Logf("snapshot with full latency windows held the loop for %v at best", best)
	// The race detector shadows every copied word, so the bound is only
	// meaningful without it.
	if !raceEnabled && best >= time.Millisecond {
		t.Fatalf("snapshot with full latency windows held the loop for %v at best, want < 1ms", best)
	}
	if body := string(get(t, dev, MetricsPathV1)); !strings.Contains(body, "rhythm_adapt_pinned 0") {
		t.Fatalf("metrics of a default server lack rhythm_adapt_pinned 0")
	}
}
