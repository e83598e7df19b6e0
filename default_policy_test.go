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
	dev := startNew(t).(*CohortServer)
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
// turn into 503s on the host route — a refused host unit is parked and
// retried when one completes, like a request waiting for a cohort
// context.
func TestDefaultServerParksHostUnitsPastDeviceQueue(t *testing.T) {
	dev := startNew(t).(*CohortServer)
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
	fastTick := func(c *serverConfig) { c.cohort.AdaptTick = 5 * time.Millisecond }
	dev := startNew(t, WithCrossoverRate(-1), fastTick).(*CohortServer)
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
// frees the context and the next parked type forms. Only a refused host
// unit, which has no such event coming, is shed with nothing in flight.
func TestPinnedParksBehindFormingContext(t *testing.T) {
	dev := startNew(t, WithFormation(0, 1, 2*time.Millisecond)).(*CohortServer)
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

// TestDrainAnswersHostUnitsInFlight: Drain waits for host-routed units
// the same way it waits for cohorts. The loop admits four requests —
// each dispatched as a host unit — and is then held, so all four are in
// flight when Drain begins; each is answered with its page, none with a
// 503, and the loop leaves nothing in flight.
func TestDrainAnswersHostUnitsInFlight(t *testing.T) {
	const reqs = 4
	srv, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dev := srv.(*CohortServer)
	go dev.Serve()
	admitted, release := make(chan struct{}), make(chan struct{})
	dev.doCh <- func() {
		for i := 0; i < reqs; i++ {
			dev.admit(<-dev.admitCh)
		}
		close(admitted)
		<-release // completions queue behind this; inflight stays at reqs
	}
	var readers []*bufio.Reader
	for i := 0; i < reqs; i++ {
		conn := dialT(t, dev.Addr())
		fmt.Fprint(conn, rawGet("/index.php", ""))
		readers = append(readers, bufio.NewReader(conn))
	}
	<-admitted
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- dev.Drain(ctx)
	}()
	<-dev.stopCh // Drain has asked the loop to stop
	close(release)
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
	if dev.inflight != 0 { // the loop has exited: its state is quiescent
		t.Fatalf("inflight=%d after Drain", dev.inflight)
	}
}

// TestStatsScrapeDoesNotStallLoop: the latency windows are full, and a
// snapshot on the loop goroutine still costs well under a millisecond —
// it copies two of them; the percentile sorts run on the scraper's
// goroutine.
func TestStatsScrapeDoesNotStallLoop(t *testing.T) {
	dev := startNew(t).(*CohortServer)
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
