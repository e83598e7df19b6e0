package rhythm

import (
	"fmt"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/cohort"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
)

// flushMsg asks the loop to launch the forming cohort for a key; gen
// guards against a stale timer firing after that cohort already launched
// and a new one opened under the same key.
type flushMsg struct {
	key string
	gen uint64
}

type formingTimer struct {
	timer *time.Timer
	gen   uint64
}

// loop is the formation loop: the only goroutine that touches the pool,
// formation timers, and the loop-owned counters. It sees cohort-routed
// requests only: the host route never leaves its connection handler.
// Cohorts execute on the cluster's device workers; their completions
// come back here through doCh, so cohort accounting stays
// single-goroutine (the counters shared with the host route take
// execMu).
func (s *cohortServer) loop() {
	defer close(s.doneCh)
	stop := s.stopCh
	// The controller retunes on a wall-clock tick.
	ticker := time.NewTicker(s.ctrl.TickEvery())
	defer ticker.Stop()
	for {
		if s.draining && s.idle() {
			return
		}
		select {
		case lr := <-s.admitCh:
			s.admit(lr)
		case m := <-s.flushCh:
			s.flush(m)
		case fn := <-s.doCh:
			fn()
		case now := <-ticker.C:
			s.ctrl.NoteQueue(len(s.admitCh) + len(s.overflow))
			s.ctrl.Tick(now)
		case <-stop:
			stop = nil
			s.beginDrain()
		}
	}
}

// idle reports whether the drained loop may exit: nothing queued,
// forming, or in flight on the device pool.
func (s *cohortServer) idle() bool {
	return len(s.admitCh) == 0 && len(s.flushCh) == 0 && len(s.doCh) == 0 &&
		len(s.overflow) == 0 && len(s.forming) == 0 && s.inflight == 0 &&
		s.pool.FreeContexts() == s.opts.MaxCohorts
}

// beginDrain stops formation timers and launches everything forming.
// Admissions still queued are served (admit flushes immediately while
// draining), so every accepted request gets a real response.
func (s *cohortServer) beginDrain() {
	s.draining = true
	for _, f := range s.forming {
		f.timer.Stop()
	}
	s.forming = make(map[string]*formingTimer)
	s.pool.Flush("")
}

// flush handles a formation-timeout message, ignoring stale generations
// (the cohort the timer was armed for already launched).
func (s *cohortServer) flush(m flushMsg) {
	f := s.forming[m.key]
	if f == nil || f.gen != m.gen {
		return
	}
	delete(s.forming, m.key)
	s.pool.Flush(m.key)
}

// onReady fires (synchronously from pool.Add or Flush) when a cohort
// fills or times out: account formation stats and launch the kernels.
func (s *cohortServer) onReady(c *cohort.Context[*liveReq], why cohort.Reason) {
	if f := s.forming[c.Key]; f != nil {
		f.timer.Stop()
		delete(s.forming, c.Key)
	}
	c.MarkBusy()
	s.inflight++
	s.launch(c, why)
}

// launch hands one formed cohort to the device fabric as a
// cluster.Unit. Routing (node ownership by rendezvous hash, then the
// owning node's device-level session affinity and failover) is the
// fabric's job; completion comes back to the loop goroutine via doCh
// and lands in complete. A refusal — every node down, the owner's link
// budget exhausted, or its queues full — sheds every request with the
// 503 path.
func (s *cohortServer) launch(c *cohort.Context[*liveReq], why cohort.Reason) {
	reqs := c.Requests()
	t := reqs[0].t
	count := len(reqs)
	now := time.Now()
	reason := "timeout"
	switch why {
	case cohort.Filled:
		reason = "filled"
	case cohort.Early:
		reason = "early"
	}
	for _, lr := range reqs {
		wait := float64(now.Sub(lr.enq))
		s.record(s.formWait, wait)
		s.formHist.Observe(wait)
		lr.spans = append(lr.spans, obs.Span{Name: "formation-wait", Start: lr.admitted, Dur: now.Sub(lr.admitted)})
		lr.frec.FormationWait = now.Sub(lr.admitted)
		lr.frec.CohortSize = count
		lr.frec.LaunchReason = reason
	}
	s.occupHist.Observe(float64(count))
	tc := &s.perType[t]
	tc.cohorts++
	s.execMu.Lock()
	tc.requests += uint64(count)
	s.execMu.Unlock()
	tc.sumOccup += uint64(count)
	if count > tc.maxOccup {
		tc.maxOccup = count
	}
	if count > s.maxOccup {
		s.maxOccup = count
	}
	switch why {
	case cohort.Filled:
		tc.filled++
	case cohort.Early:
		tc.early++
	default:
		tc.timedOut++
	}
	unit := &cluster.Unit{Type: t, Group: reqs[0].group, Reqs: make([]httpx.Request, count)}
	for i, lr := range reqs {
		unit.Reqs[i] = lr.req
	}
	unit.Done = func(res *cluster.Result) {
		// Runs on a device worker. The loop cannot have exited: it only
		// returns at inflight 0, and this cohort still counts. The send
		// therefore always completes.
		s.doCh <- func() { s.complete(c, res) }
	}
	if !s.fab.Dispatch(unit) {
		s.shed(c, reqs)
	}
}

// shed answers every request of a refused cohort with the 503
// backpressure response and releases its context.
func (s *cohortServer) shed(c *cohort.Context[*liveReq], reqs []*liveReq) {
	s.shedCohorts++
	for _, lr := range reqs {
		s.shedReq(lr)
	}
	s.finish(c)
}

// finish releases a cohort context and retries parked admissions.
func (s *cohortServer) finish(c *cohort.Context[*liveReq]) {
	s.pool.Release(c)
	s.inflight--
	s.drainOverflow()
}

// complete consumes one cohort's execution result on the loop
// goroutine: per-stage accounting and spans, response delivery, and
// context release. A unit the fabric could not complete (Result.Err —
// every device dead, no routable node, or a connection lost with the
// unit's fate unknown) sheds like a dispatch refusal.
func (s *cohortServer) complete(c *cohort.Context[*liveReq], res *cluster.Result) {
	reqs := c.Requests()
	if res.Err != nil {
		s.shed(c, reqs)
		return
	}
	tc := &s.perType[reqs[0].t]
	for k, se := range res.Stages {
		tc.stages[k].Launches++
		tc.stages[k].DeviceUs += float64(se.Stats.Duration) / 1e3
		// One span per request, sharing the launch-record linkage args
		// (the map is read-only once built).
		span := obs.Span{
			Name:  fmt.Sprintf("stage-%d", k),
			Start: se.Start,
			Dur:   se.Dur,
			Args:  stageArgs(se.Stats),
		}
		for _, lr := range reqs {
			lr.spans = append(lr.spans, span)
			lr.frec.AddLaunch(se.Stats.Seq)
		}
	}
	now := time.Now()
	s.execMu.Lock()
	s.kernelErrors += uint64(res.KernelErrs)
	for _, lr := range reqs {
		s.record(s.reqLat, float64(now.Sub(lr.enq)))
	}
	s.execMu.Unlock()
	for i, lr := range reqs {
		lr.spans = append(lr.spans, obs.Span{Name: "render", Start: res.RenderStart, Dur: res.RenderDur})
		lr.frec.Device = res.Device
		lr.frec.Attempts = res.Attempts + res.Hops
		if res.KernelErrs > 0 {
			// Kernel errors are aggregated per cohort, not attributed per
			// request, so every rider is flagged (conservative) — which
			// also keeps the whole cohort out of the render cache.
			lr.frec.Status = flight.StatusKernelErr
			s.badByType[lr.t].Add(1)
		}
		id := lr.frec.TraceID // read before the send hands frec to the handler
		lr.resp <- res.Resps[i]
		s.latHist[lr.t].ObserveEx(float64(now.Sub(lr.enq)), id)
	}
	s.record(s.launchLat, float64(res.DeviceTime))
	// Feed the service model with the wall-clock execution cost of this
	// cohort — stage kernels plus response render — which is what bounds
	// the live server's capacity.
	svc := res.RenderDur
	for _, se := range res.Stages {
		svc += se.Dur
	}
	s.ctrl.ObserveLaunch(int(reqs[0].t), len(reqs), svc)
	s.finish(c)
}
