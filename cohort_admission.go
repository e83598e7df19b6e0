package rhythm

import (
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/flight"
	"rhythm/internal/fmtx"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// liveReq is one request on the cohort route: the parsed form handed to
// the formation loop plus the channel its rendered response comes back
// on.
//
// spans is shared between the handler and the loop without a lock; the
// resp channel is the fence. The handler appends before admission, the
// loop appends between consuming the request and sending on resp, and
// the handler only touches spans again after receiving from resp
// (channel happens-before). On the paths where the handler answers
// without a loop response (504 deadline, loop exit) it must NOT read
// spans — the loop may still be appending — so those responses go
// untraced.
type liveReq struct {
	req      httpx.Request
	t        service.TypeID
	group    int // shard group (cluster.GroupFor; -1 = stateless)
	enq      time.Time
	admitted time.Time // loop pickup (set by admit)
	spans    []obs.Span
	resp     chan []byte // buffered(1): the loop never blocks delivering

	// frec is the request's flight record, shared handler↔loop under the
	// same resp-channel fence as spans: the loop fills the causal fields
	// (cohort size, launch reason, device, launch seqs, status) before
	// sending on resp, and the handler hands it to the frontend only
	// after receiving. The no-response paths (504, loop exit) must NOT
	// touch frec — the loop may still be writing — and report through the
	// arena's own record instead.
	frec flight.Record
}

// dispatch answers a classified request that missed the render cache:
// ask the controller for its route, answer a host-routed request on this
// connection (serveHost), and admit the rest to the formation loop,
// waiting for the cohort path's response, the request deadline, or the
// loop's exit. Only a response delivered over lr.resp hands lr's spans
// and flight record to the frontend; every other exit reports through
// the arena's record.
func (s *cohortServer) dispatch(a *connArena) []byte {
	t := a.t
	widx := s.reg.WorkloadIndex(t)
	if s.closing.Load() {
		return s.shedArrival(a, widx)
	}
	// Per-workload admission quota: the slot is held until this handler
	// returns (every exit path below runs the deferred release), so the
	// count is exactly the workload's concurrent in-flight requests.
	if lim := s.wlLimit[widx]; lim > 0 {
		if s.wlInflight[widx].Add(1) > lim {
			s.wlInflight[widx].Add(-1)
			return s.shedArrival(a, widx)
		}
		defer s.wlInflight[widx].Add(-1)
	}
	if s.ctrl.Arrival(int(t)) {
		return s.serveHost(a, widx)
	}

	lr := &liveReq{t: t, group: s.fab.GroupFor(&a.req, t), enq: time.Now(), resp: make(chan []byte, 1), frec: a.frec}
	// The in-flight request owns its param/cookie slices: the arena's
	// request is recycled as soon as this handler reads again.
	a.req.CopyTo(&lr.req)
	lr.spans = append(lr.spans, obs.Span{Name: "classify", Start: a.start, Dur: lr.enq.Sub(a.start)})
	select {
	case s.admitCh <- lr:
	default:
		return s.shedArrival(a, widx)
	}
	deadline := time.NewTimer(s.opts.RequestDeadline)
	defer deadline.Stop()
	select {
	case resp := <-lr.resp:
		a.done, a.spans = &lr.frec, lr.spans
		return resp
	case <-deadline.C:
		s.deadlineMisses.Add(1)
		s.badByType[t].Add(1)
		a.frec.Status = flight.StatusDeadline
		return errorResponse(504, "Gateway Timeout")
	case <-s.doneCh:
		// The loop exited while we waited. Either our response raced the
		// exit (delivered, then doneCh closed — the buffered channel
		// still holds it) or the request was never consumed.
		select {
		case resp := <-lr.resp:
			a.done, a.spans = &lr.frec, lr.spans
			return resp
		default:
			return s.shedArrival(a, widx)
		}
	}
}

// shedArrival answers a request the handler could not admit (draining,
// over quota, admit queue full, loop gone) with the 503 backpressure
// response.
func (s *cohortServer) shedArrival(a *connArena, widx int) []byte {
	s.rejectedQueue.Add(1)
	return s.shedHere(a, widx)
}

// shedHere answers the arena's request with the 503 backpressure
// response, attributing the shed to its workload and type; the caller
// has counted it as a queue or a pool rejection.
func (s *cohortServer) shedHere(a *connArena, widx int) []byte {
	s.wlSheds[widx].Add(1)
	s.badByType[a.t].Add(1)
	a.frec.Status = flight.StatusShed
	return busyResponse(s.ctrl.RetryAfter())
}

// hostCall is a connection's reusable host-route dispatch: the unit, its
// one request, the Result an in-process execution writes, and the
// channel its Done delivers on. A connection keeps it for its next
// host-routed request unless a deadline abandoned it with the result
// still outstanding.
type hostCall struct {
	unit cluster.Unit
	reqs [1]httpx.Request
	res  cluster.Result
	ch   chan *cluster.Result // buffered(1): Done never blocks
	done func(*cluster.Result)
}

func newHostCall() *hostCall {
	hc := &hostCall{ch: make(chan *cluster.Result, 1)}
	hc.done = func(res *cluster.Result) { hc.ch <- res }
	return hc
}

// serveHost answers a request below its type's crossover rate on the
// connection that received it, as a one-request host unit dispatched
// from this handler. The fabric executes it on the node that owns the
// request's shard group, under the group's lock (DESIGN.md §12), so
// responses stay byte-identical and the group state single-writer. On
// loopback the unit renders into the connection's write buffer, behind
// the room for the trace line (connArena.out), and completes before
// Dispatch returns; on tcp the unit ignores Out, the result arrives
// from the worker connection's reader, and the handler waits for it
// under the request deadline. So a unit the deadline abandons never
// writes into the buffer the 504 is written from. A unit the fabric
// refuses or fails is shed with 503.
func (s *cohortServer) serveHost(a *connArena, widx int) []byte {
	// Drain waits for hostRoute to empty before it closes the fabric;
	// the count is raised before the closing check, so either Drain sees
	// this handler or the handler sees Drain.
	s.hostRoute.Add(1)
	defer s.hostRoute.Add(-1)
	if s.closing.Load() {
		return s.shedArrival(a, widx)
	}
	enq := time.Now()
	hc := a.host
	if hc == nil {
		hc = newHostCall()
		a.host = hc
	}
	if s.remote {
		// The fabric may re-encode the request after a NACK, and a
		// deadline may release this connection's request first.
		a.req.CopyTo(&hc.reqs[0])
	} else {
		hc.reqs[0] = a.req
	}
	hc.unit = cluster.Unit{Type: a.t, Group: s.fab.GroupFor(&a.req, a.t), Host: true, Reqs: hc.reqs[:], Out: a.out, Res: &hc.res, Done: hc.done}
	if !s.fab.Dispatch(&hc.unit) {
		return s.shedHost(a, widx)
	}
	var res *cluster.Result
	select {
	case res = <-hc.ch:
	default:
		deadline := time.NewTimer(s.opts.RequestDeadline)
		select {
		case res = <-hc.ch:
			deadline.Stop()
		case <-deadline.C:
			a.host = nil // the late result lands in the abandoned call
			s.deadlineMisses.Add(1)
			s.badByType[a.t].Add(1)
			a.frec.Status = flight.StatusDeadline
			return errorResponse(504, "Gateway Timeout")
		}
	}
	if res.Err != nil {
		return s.shedHost(a, widx)
	}
	s.perType[a.t].hostReqs.Add(1)
	s.kernelErrors.Add(uint64(res.KernelErrs))
	a.frec.HostExec = true
	a.frec.LaunchReason = "host"
	a.frec.Device = res.Device
	// A hop is a failover to another device; fold it into the record's
	// attempt trail so tail debugging sees the move (flight.Record).
	a.frec.Attempts = res.Attempts + res.Hops
	a.frec.CohortSize = 1
	if res.KernelErrs > 0 {
		a.frec.Status = flight.StatusKernelErr
		s.badByType[a.t].Add(1)
	}
	// Capacity for the write span the frontend appends.
	a.spans = append(make([]obs.Span, 0, 3),
		obs.Span{Name: "classify", Start: a.start, Dur: enq.Sub(a.start)},
		obs.Span{Name: "host-execute", Start: res.RenderStart, Dur: res.RenderDur})
	return res.Resps[0]
}

// shedHost answers a host-routed request the fabric refused or could not
// complete with the 503 backpressure response.
func (s *cohortServer) shedHost(a *connArena, widx int) []byte {
	s.rejectedPool.Add(1)
	return s.shedHere(a, widx)
}

// sessionsFor resolves the request's shard group to its session array
// on the owning loopback node: nil for a stateless request, while the
// owning node is down, and always on remote transports (where the cache
// is off).
func (s *cohortServer) sessionsFor(req *httpx.Request, t service.TypeID) *session.Array {
	group := s.fab.GroupFor(req, t)
	if group < 0 {
		return nil
	}
	return s.fab.GroupSessions(group)
}

// cohortKey is the pool's key on the live route. Cohorts are keyed by
// (type, shard group): a cohort executes against one group's state on
// one device, so requests of the same type but different groups form
// separately.
type cohortKey struct {
	t     service.TypeID
	group int
}

// admit places one cohort-routed request in the pool, parking it there
// when the pool has no room (every context Busy or forming another key)
// and shedding with 503 once OverflowLimit requests are parked. The pool
// retries parked requests whenever a context frees.
func (s *cohortServer) admit(lr *liveReq) {
	lr.admitted = time.Now()
	lr.spans = append(lr.spans, obs.Span{Name: "admit-queue", Start: lr.enq, Dur: lr.admitted.Sub(lr.enq)})
	key := cohortKey{lr.t, lr.group}
	if s.pool.Add(key, lr) {
		return
	}
	if s.pool.Parked() >= s.opts.OverflowLimit {
		s.rejectedPool.Add(1)
		s.shedReq(lr)
		return
	}
	s.pool.Park(key, lr)
}

// shedReq answers one admitted request with the 503 backpressure
// response, attributing the shed to its workload's counter.
func (s *cohortServer) shedReq(lr *liveReq) {
	s.wlSheds[s.reg.WorkloadIndex(lr.t)].Add(1)
	s.badByType[lr.t].Add(1)
	lr.frec.Status = flight.StatusShed
	lr.resp <- busyResponse(s.ctrl.RetryAfter())
}

// busyResponse is the backpressure answer: 503 with a Retry-After hint.
// Hand-built because ResponseWriter has no custom-header hook and the
// standard error path closes the connection — load shedding should keep
// it open so clients can retry on the same socket.
func busyResponse(retryAfter time.Duration) []byte {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	const body = "503 cohort pool saturated\n"
	return fmtx.Appendf(make([]byte, 0, 160), "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nRetry-After: %d\r\nConnection: keep-alive\r\nContent-Length: %d\r\n\r\n%s",
		secs, len(body), body)
}
