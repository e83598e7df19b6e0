// Package cohort implements Rhythm's cohort contexts and cohort pool
// (§3.1 "Cohort Management"): fixed-capacity batches of same-key
// requests that move through the FSM Free → PartiallyFull → Full → Busy →
// Free. Requests are delayed for at most a formation window so cohorts
// that never fill still launch (§3.1: "Rhythm includes a timeout so that
// requests are not delayed indefinitely during cohort formation").
//
// The Pool owns formation policy for the offline pipeline and the live
// server alike. Cohorts form per comparable key (request type, or type
// and shard group). Deadlines run on the caller's Clock — virtual or
// wall time — for a per-key window, and one that fires after its cohort
// launched is ignored. A request Add cannot place may be Parked; Release
// retries parked requests in arrival order. Drain launches everything
// forming, and from then on every Add launches at once.
package cohort

import (
	"fmt"
	"time"
)

// State is a cohort context's FSM state.
type State int

// The cohort FSM states of §3.1.
const (
	Free State = iota
	PartiallyFull
	Full
	Busy
)

func (s State) String() string {
	switch s {
	case Free:
		return "Free"
	case PartiallyFull:
		return "PartiallyFull"
	case Full:
		return "Full"
	case Busy:
		return "Busy"
	}
	return "invalid"
}

// Reason says why a cohort became ready to launch.
type Reason int

// Launch reasons.
const (
	// Filled: the cohort reached its capacity.
	Filled Reason = iota
	// TimedOut: the formation deadline fired, or the caller flushed or
	// drained the pool.
	TimedOut
	// Early: the pool's advisor launched the cohort below capacity
	// (adaptive early-launch threshold, DESIGN.md §12).
	Early
)

func (r Reason) String() string {
	switch r {
	case TimedOut:
		return "timeout"
	case Early:
		return "early"
	}
	return "filled"
}

// Clock runs a pool's formation deadlines. After arranges for fn to run
// d from now on the goroutine that owns the pool and returns a func that
// cancels it. A cancelled deadline may still fire (a wall-clock timer
// racing its stop); the pool ignores it.
type Clock interface {
	Now() time.Duration
	After(d time.Duration, fn func()) (stop func())
}

// Context is one cohort: a keyed batch of requests plus bookkeeping. The
// paper keeps these in static arrays on host and device and synchronizes
// them at the parser (§4.1); here the host copy is authoritative and the
// device sees it through kernel arguments.
type Context[K comparable, T any] struct {
	// ID is the context's slot index in the pool.
	ID int
	// Key identifies what this cohort is forming for.
	Key K

	state    State
	requests []T
	capacity int
	openedAt time.Duration
	gen      uint64 // bumped at every launch: a deadline armed before it is stale
	stop     func() // cancels the armed deadline; nil while none is armed
}

// Len reports how many requests the cohort holds.
func (c *Context[K, T]) Len() int { return len(c.requests) }

// Requests exposes the batched requests (valid until Release).
func (c *Context[K, T]) Requests() []T { return c.requests }

// Stats aggregates pool activity.
type Stats struct {
	Formed    uint64 // cohorts handed to onReady
	Filled    uint64 // ... because they filled
	TimedOut  uint64 // ... because a deadline fired or the caller flushed
	Early     uint64 // ... because the advisor launched them early
	Requests  uint64 // requests accepted
	Stalls    uint64 // requests Add could not place on arrival
	SumOccup  uint64 // sum of cohort sizes at launch (for mean occupancy)
	MaxInUse  int    // high-water mark of non-Free contexts
	currInUse int
}

// MeanOccupancy is the average cohort fill at launch.
func (s Stats) MeanOccupancy() float64 {
	if s.Formed == 0 {
		return 0
	}
	return float64(s.SumOccup) / float64(s.Formed)
}

type parkedReq[K comparable, T any] struct {
	key K
	req T
}

// Pool manages a static set of cohort contexts (the paper's cohort pool,
// allocated at startup). One context per key may be forming at a time;
// when it fills, times out or the advisor launches it, it is handed to
// onReady in state Full, and the caller marks it Busy for the duration
// of execution and Releases it after responses are sent.
type Pool[K comparable, T any] struct {
	clk      Clock
	contexts []*Context[K, T]
	free     []*Context[K, T]
	open     map[K]*Context[K, T]
	parked   []parkedReq[K, T]
	window   func(K) time.Duration
	advisor  func(*Context[K, T]) bool
	onReady  func(*Context[K, T], Reason)
	stats    Stats

	draining bool
	retrying bool // inside retry: a nested Release only sets freed
	freed    bool
}

// NewPool creates a pool of n contexts of the given cohort size. Deadlines
// run on clk; window gives a key's deadline, armed by the first Add that
// sees a positive window while none is armed (≤ 0 arms nothing, so the
// cohort waits to fill or be flushed). advisor, if not nil, may launch a
// cohort below capacity after any Add (Reason Early). onReady is invoked
// — possibly synchronously from any pool call or a deadline — when a
// cohort becomes Full.
func NewPool[K comparable, T any](clk Clock, n, cohortSize int, window func(K) time.Duration,
	advisor func(*Context[K, T]) bool, onReady func(*Context[K, T], Reason)) *Pool[K, T] {
	if n <= 0 || cohortSize <= 0 {
		panic("cohort: pool needs positive context count and cohort size")
	}
	if onReady == nil {
		panic("cohort: onReady is required")
	}
	p := &Pool[K, T]{
		clk:     clk,
		open:    make(map[K]*Context[K, T]),
		window:  window,
		advisor: advisor,
		onReady: onReady,
	}
	for i := 0; i < n; i++ {
		c := &Context[K, T]{ID: i, capacity: cohortSize, requests: make([]T, 0, cohortSize)}
		p.contexts = append(p.contexts, c)
		p.free = append(p.free, c)
	}
	return p
}

// Stats returns a snapshot of pool statistics.
func (p *Pool[K, T]) Stats() Stats { return p.stats }

// FreeContexts reports how many contexts are Free.
func (p *Pool[K, T]) FreeContexts() int { return len(p.free) }

// Parked reports how many requests wait for a context.
func (p *Pool[K, T]) Parked() int { return len(p.parked) }

// Add routes one request into the forming cohort for key, opening a Free
// context if none is forming. It reports false — a structural hazard,
// counted as one stall — when neither exists; the caller Parks the
// request or sheds it.
func (p *Pool[K, T]) Add(key K, req T) bool {
	if p.place(key, req) {
		return true
	}
	p.stats.Stalls++
	return false
}

// Park holds a request Add refused until Release frees room for it.
func (p *Pool[K, T]) Park(key K, req T) {
	p.parked = append(p.parked, parkedReq[K, T]{key, req})
}

func (p *Pool[K, T]) place(key K, req T) bool {
	c, ok := p.open[key]
	if !ok {
		if len(p.free) == 0 {
			return false
		}
		c = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		c.Key = key
		c.state = PartiallyFull
		c.openedAt = p.clk.Now()
		p.open[key] = c
		p.stats.currInUse++
		if p.stats.currInUse > p.stats.MaxInUse {
			p.stats.MaxInUse = p.stats.currInUse
		}
	}
	c.requests = append(c.requests, req)
	p.stats.Requests++
	switch {
	case len(c.requests) == c.capacity:
		p.launch(c, Filled)
	case p.advisor != nil && p.advisor(c):
		p.launch(c, Early)
	case p.draining:
		p.launch(c, TimedOut)
	case c.stop == nil:
		if d := p.window(key); d > 0 {
			gen := c.gen
			c.stop = p.clk.After(d, func() {
				if c.gen == gen {
					p.launch(c, TimedOut)
				}
			})
		}
	}
	return true
}

// FlushAll force-launches every forming cohort, lowest context index
// first, regardless of fill. Used at end of a request stream so no
// request is stranded.
func (p *Pool[K, T]) FlushAll() {
	for _, c := range p.contexts {
		if c.state == PartiallyFull {
			p.launch(c, TimedOut)
		}
	}
}

// FlushOldest force-launches the longest-forming partial cohort,
// releasing one context for other keys. It reports whether a forming
// cohort existed. Cohorts opened at the same instant go lowest context
// index first (like FlushAll), so a run repeats exactly.
func (p *Pool[K, T]) FlushOldest() bool {
	var oldest *Context[K, T]
	for _, c := range p.contexts {
		if c.state == PartiallyFull && (oldest == nil || c.openedAt < oldest.openedAt) {
			oldest = c
		}
	}
	if oldest == nil {
		return false
	}
	p.launch(oldest, TimedOut)
	return true
}

// Drain launches everything forming and stops its deadlines. From then
// on every Add, and every parked request Release places, launches its
// cohort at once.
func (p *Pool[K, T]) Drain() {
	p.draining = true
	p.FlushAll()
}

func (p *Pool[K, T]) launch(c *Context[K, T], why Reason) {
	if c.state != PartiallyFull {
		panic(fmt.Sprintf("cohort: launch from state %v", c.state))
	}
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
	c.gen++
	delete(p.open, c.Key)
	c.state = Full
	p.stats.Formed++
	p.stats.SumOccup += uint64(len(c.requests))
	switch why {
	case Filled:
		p.stats.Filled++
	case Early:
		p.stats.Early++
	default:
		p.stats.TimedOut++
	}
	p.onReady(c, why)
}

// MarkBusy transitions a Full cohort to Busy (dispatch accepted it).
func (c *Context[K, T]) MarkBusy() {
	if c.state != Full {
		panic(fmt.Sprintf("cohort: MarkBusy from state %v", c.state))
	}
	c.state = Busy
}

// Release returns a Busy (or still-Full, if dispatch shed it) context to
// the pool after its responses are sent, then retries parked requests.
func (p *Pool[K, T]) Release(c *Context[K, T]) {
	if c.state != Busy && c.state != Full {
		panic(fmt.Sprintf("cohort: Release from state %v", c.state))
	}
	c.state = Free
	var zero K
	c.Key = zero
	c.requests = c.requests[:0]
	p.free = append(p.free, c)
	p.stats.currInUse--
	p.retry()
}

// retry places parked requests in arrival order. A request that still
// finds no room keeps its place while later requests of other keys are
// tried, so one starved key does not block the rest. A context freed
// during the pass (an onReady that releases at once) restarts it, so
// earlier requests keep their precedence.
func (p *Pool[K, T]) retry() {
	if p.retrying {
		p.freed = true
		return
	}
	p.retrying = true
	for again := len(p.parked) > 0; again; {
		again = false
		kept := 0
		for i := 0; i < len(p.parked); i++ {
			e := p.parked[i]
			if !p.place(e.key, e.req) {
				p.parked[kept] = e
				kept++
				continue
			}
			if p.freed {
				p.freed = false
				kept += copy(p.parked[kept:], p.parked[i+1:])
				again = true
				break
			}
		}
		clear(p.parked[kept:])
		p.parked = p.parked[:kept]
	}
	p.retrying = false
}
