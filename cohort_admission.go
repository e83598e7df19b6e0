package rhythm

import (
	"fmt"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// liveReq is one in-flight request: the parsed form handed to the
// formation loop plus the channel its rendered response comes back on.
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
	host     bool      // the controller routed it to the host path (set by admit)
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

// dispatch is the cohort mode hook: admit the classified request to the
// formation loop and wait for the cohort path's response, the request
// deadline, or the loop's exit. Only a response delivered over lr.resp
// hands lr's spans and flight record to the frontend; every other exit
// reports through the arena's record.
func (s *CohortServer) dispatch(a *connArena) []byte {
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
func (s *CohortServer) shedArrival(a *connArena, widx int) []byte {
	s.rejectedQueue.Add(1)
	s.wlSheds[widx].Add(1)
	s.badByType[a.t].Add(1)
	a.frec.Status = flight.StatusShed
	return busyResponse(s.ctrl.RetryAfter())
}

// sessionsFor resolves the request's shard group to its session array
// on the owning loopback node: nil for a stateless request, while the
// owning node is down, and always on remote transports (where the cache
// is off).
func (s *CohortServer) sessionsFor(req *httpx.Request, t service.TypeID) *session.Array {
	group := s.fab.GroupFor(req, t)
	if group < 0 {
		return nil
	}
	return s.fab.GroupSessions(group)
}

// admit routes one request where the controller sends it — the host
// path or the pool — parking it in the bounded overflow when that route
// has no room (every context Busy or forming another key, or the owning
// device's queue full) and shedding with 503 past that. A parked request
// is retried whenever a context or a queue slot frees; a host unit the
// fabric refused with nothing in flight has no such event coming, so it
// is shed at once.
func (s *CohortServer) admit(lr *liveReq) {
	lr.admitted = time.Now()
	lr.spans = append(lr.spans, obs.Span{Name: "admit-queue", Start: lr.enq, Dur: lr.admitted.Sub(lr.enq)})
	lr.host = s.ctrl.Arrival(int(lr.t))
	if s.place(lr) {
		return
	}
	if lr.host && s.inflight == 0 || len(s.overflow) >= s.opts.OverflowLimit {
		s.rejectedPool++
		s.shedReq(lr)
		return
	}
	s.overflow = append(s.overflow, lr)
}

// shedReq answers one admitted request with the 503 backpressure
// response, attributing the shed to its workload's counter.
func (s *CohortServer) shedReq(lr *liveReq) {
	s.wlSheds[s.reg.WorkloadIndex(lr.t)].Add(1)
	s.badByType[lr.t].Add(1)
	lr.frec.Status = flight.StatusShed
	lr.resp <- busyResponse(s.ctrl.RetryAfter())
}

// dispatchHost hands one request below the crossover rate straight to
// the scalar host path as a single-request Host unit: no cohort context,
// no formation delay. The fabric still executes it on the node and
// device that own the request's shard group, so responses stay
// byte-identical and the group state single-writer. It reports false
// when the fabric has no room for the unit.
func (s *CohortServer) dispatchHost(lr *liveReq) bool {
	unit := &cluster.Unit{Type: lr.t, Group: lr.group, Host: true, Reqs: []httpx.Request{lr.req}}
	unit.Done = func(res *cluster.Result) {
		s.doCh <- func() { s.completeHost(lr, res) }
	}
	if !s.fab.Dispatch(unit) {
		return false
	}
	s.inflight++
	return true
}

// completeHost consumes one host-fallback result on the loop goroutine.
func (s *CohortServer) completeHost(lr *liveReq, res *cluster.Result) {
	s.inflight--
	defer s.drainOverflow() // the owning device's queue has room again
	if res.Err != nil {
		s.rejectedPool++
		s.shedReq(lr)
		return
	}
	s.hostFallbacks++
	s.perType[lr.t].requests++
	s.perType[lr.t].hostReqs++
	s.kernelErrors += uint64(res.KernelErrs)
	lr.spans = append(lr.spans, obs.Span{Name: "host-execute", Start: res.RenderStart, Dur: res.RenderDur})
	lr.frec.HostExec = true
	lr.frec.LaunchReason = "host"
	lr.frec.Device = res.Device
	// A hop is a failover to another device; fold it into the record's
	// attempt trail so tail debugging sees the move (flight.Record).
	lr.frec.Attempts = res.Attempts + res.Hops
	lr.frec.CohortSize = 1
	if res.KernelErrs > 0 {
		lr.frec.Status = flight.StatusKernelErr
		s.badByType[lr.t].Add(1)
	}
	id := lr.frec.TraceID // read before the send hands frec to the handler
	lr.resp <- res.Resps[0]
	lat := float64(time.Since(lr.enq))
	s.record(s.reqLat, lat)
	s.latHist[lr.t].ObserveEx(lat, id)
}

// place tries the request's route: host dispatch, or pool admission —
// where on success it manages the wall-clock formation timer for the
// (possibly newly opened) forming cohort. Cohorts are keyed by (type,
// shard group): a cohort executes against one group's state on one
// device, so requests of the same type but different groups form
// separately.
func (s *CohortServer) place(lr *liveReq) bool {
	if lr.host {
		return s.dispatchHost(lr)
	}
	key := fmt.Sprintf("%s/%d", s.names[lr.t], lr.group)
	if !s.pool.Add(key, lr) {
		return false
	}
	if s.draining {
		// No timers during drain: launch whatever the Add left forming.
		s.pool.Flush(key)
		return true
	}
	// The formation deadline is the controller's per-type window.
	if window := s.ctrl.Window(int(lr.t)); window > 0 && s.pool.Forming(key) && s.forming[key] == nil {
		s.nextGen++
		gen := s.nextGen
		t := time.AfterFunc(window, func() {
			select {
			case s.flushCh <- flushMsg{key: key, gen: gen}:
			case <-s.doneCh:
			}
		})
		s.forming[key] = &formingTimer{timer: t, gen: gen}
	}
	return true
}

// drainOverflow retries parked requests after a context or a device
// queue slot frees, preserving order per type while letting other types
// pass a starved head (same policy as the offline pipeline's dispatch).
// A host unit still refused with nothing left in flight to retry it is
// shed.
func (s *CohortServer) drainOverflow() {
	if len(s.overflow) == 0 {
		return
	}
	pending := s.overflow
	s.overflow = s.overflow[:0]
	for _, lr := range pending {
		switch {
		case s.place(lr):
		case lr.host && s.inflight == 0:
			s.rejectedPool++
			s.shedReq(lr)
		default:
			s.overflow = append(s.overflow, lr)
		}
	}
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
	body := "503 cohort pool saturated\n"
	return []byte(fmt.Sprintf("HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nRetry-After: %d\r\nConnection: keep-alive\r\nContent-Length: %d\r\n\r\n%s",
		secs, len(body), body))
}
