package rhythm

import (
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/cohort"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
)

// loop is the formation loop: the only goroutine that touches the pool
// (whose formation deadlines fire here, over doCh) and the loop-owned
// counters. It sees cohort-routed requests only: the host route never
// leaves its connection handler. Cohorts execute on the cluster's device
// workers; their completions come back here through doCh, so cohort
// accounting stays single-goroutine (the counters shared with the host
// route are atomics).
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
		case fn := <-s.doCh:
			fn()
		case now := <-ticker.C:
			s.ctrl.NoteQueue(len(s.admitCh) + s.pool.Parked())
			s.ctrl.Tick(now)
		case <-stop:
			// Launch everything forming; admissions still queued are
			// served (the drained pool launches each at once), so every
			// accepted request gets a real response.
			stop = nil
			s.draining = true
			s.pool.Drain()
		}
	}
}

// idle reports whether the drained loop may exit: nothing queued,
// parked, forming, or in flight on the device pool.
func (s *cohortServer) idle() bool {
	return len(s.admitCh) == 0 && len(s.doCh) == 0 && s.pool.Parked() == 0 &&
		s.inflight == 0 && s.pool.FreeContexts() == s.opts.MaxCohorts
}

// wallClock runs the pool's formation deadlines on wall-clock timers: a
// fired deadline is posted to the formation loop over doCh, so the pool
// stays single-goroutine. Engine time cannot serve here, since it only
// advances while kernels execute.
type wallClock struct {
	start time.Time
	do    chan<- func()
	done  <-chan struct{}
}

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

func (c wallClock) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, func() {
		select {
		case c.do <- fn:
		case <-c.done:
		}
	})
	return func() { t.Stop() }
}

// launch is the pool's onReady: it fires (synchronously from the pool)
// when a cohort fills, times out or launches early, accounts formation
// stats, and hands the cohort to the device fabric as a cluster.Unit.
// Routing (node ownership by rendezvous hash, then the owning node's
// device-level session affinity and failover) is the fabric's job;
// completion comes back to the loop goroutine via doCh and lands in
// complete. A refusal — every node down, the owner's link budget
// exhausted, or its queues full — sheds every request with the 503
// path.
func (s *cohortServer) launch(c *cohort.Context[cohortKey, *liveReq], why cohort.Reason) {
	c.MarkBusy()
	s.inflight++
	reqs := c.Requests()
	t := reqs[0].t
	count := len(reqs)
	now := time.Now()
	reason := why.String()
	for _, lr := range reqs {
		s.formHist.Observe(float64(now.Sub(lr.enq)))
		lr.spans = append(lr.spans, obs.Span{Name: "formation-wait", Start: lr.admitted, Dur: now.Sub(lr.admitted)})
		lr.frec.FormationWait = now.Sub(lr.admitted)
		lr.frec.CohortSize = count
		lr.frec.LaunchReason = reason
	}
	s.occupHist.Observe(float64(count))
	tc := &s.perType[t]
	tc.cohorts++
	tc.cohortReqs += uint64(count)
	tc.sumOccup += uint64(count)
	if count > tc.maxOccup {
		tc.maxOccup = count
	}
	tc.launches[why]++
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
func (s *cohortServer) shed(c *cohort.Context[cohortKey, *liveReq], reqs []*liveReq) {
	s.shedCohorts++
	for _, lr := range reqs {
		s.shedReq(lr)
	}
	s.finish(c)
}

// finish releases a cohort context; the pool retries parked admissions.
func (s *cohortServer) finish(c *cohort.Context[cohortKey, *liveReq]) {
	s.inflight--
	s.pool.Release(c)
}

// complete consumes one cohort's execution result on the loop
// goroutine: per-stage accounting and spans, response delivery, and
// context release. A unit the fabric could not complete (Result.Err —
// every device dead, no routable node, or a connection lost with the
// unit's fate unknown) sheds like a dispatch refusal.
func (s *cohortServer) complete(c *cohort.Context[cohortKey, *liveReq], res *cluster.Result) {
	reqs := c.Requests()
	if res.Err != nil {
		s.shed(c, reqs)
		return
	}
	tc := &s.perType[reqs[0].t]
	for k, se := range res.Stages {
		tc.stages[k].Launches++
		tc.stages[k].DeviceUs += float64(se.Stats.Duration) / 1e3
		// One span per request, sharing the launch's statistics
		// (read-only once copied here).
		launch := se.Stats
		span := obs.Span{
			Name:   s.stageNames[k],
			Start:  se.Start,
			Dur:    se.Dur,
			Launch: &launch,
		}
		for _, lr := range reqs {
			lr.spans = append(lr.spans, span)
			lr.frec.AddLaunch(se.Stats.Seq)
		}
	}
	s.kernelErrors.Add(uint64(res.KernelErrs))
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
		lr.resp <- res.Resps[i]
	}
	s.launchesDone++
	s.launchDevNs += float64(res.DeviceTime)
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
