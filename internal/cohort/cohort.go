// Package cohort implements Rhythm's cohort contexts and cohort pool
// (§3.1 "Cohort Management"): fixed-capacity batches of same-type
// requests that move through the FSM Free → PartiallyFull → Full → Busy →
// Free. Requests are delayed for at most a formation timeout so cohorts
// that never fill still launch (§3.1: "Rhythm includes a timeout so that
// requests are not delayed indefinitely during cohort formation").
package cohort

import (
	"fmt"

	"rhythm/internal/sim"
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
	// TimedOut: the oldest request hit the formation timeout.
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

// Context is one cohort: a typed batch of requests plus bookkeeping. The
// paper keeps these in static arrays on host and device and synchronizes
// them at the parser (§4.1); here the host copy is authoritative and the
// device sees it through kernel arguments.
type Context[T any] struct {
	// ID is the context's slot index in the pool.
	ID int
	// Key identifies the request type this cohort is forming for.
	Key string

	state    State
	requests []T
	capacity int
	openedAt sim.Time
	timer    *sim.Event
}

// Len reports how many requests the cohort holds.
func (c *Context[T]) Len() int { return len(c.requests) }

// Requests exposes the batched requests (valid until Release).
func (c *Context[T]) Requests() []T { return c.requests }

// Stats aggregates pool activity.
type Stats struct {
	Formed    uint64 // cohorts handed to onReady
	Filled    uint64 // ... because they filled
	TimedOut  uint64 // ... because the formation timeout fired
	Early     uint64 // ... because the advisor launched them early
	Requests  uint64 // requests accepted
	Stalls    uint64 // Add calls rejected for lack of a Free context
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

// Pool manages a static set of cohort contexts (the paper's cohort pool,
// allocated at startup). One context per key may be forming at a time;
// when it fills or times out it is handed to onReady in state Full, and
// the caller marks it Busy for the duration of pipeline execution and
// Releases it after responses are sent.
type Pool[T any] struct {
	eng      *sim.Engine
	contexts []*Context[T]
	free     []*Context[T]
	open     map[string]*Context[T]
	size     int
	timeout  sim.Time
	onReady  func(*Context[T], Reason)
	advisor  func(*Context[T]) bool
	stats    Stats
}

// SetAdvisor installs an early-launch hook: after every Add that leaves
// a cohort below capacity, the advisor may return true to launch it
// immediately with Reason Early. The adaptive controller uses this to
// launch once a cohort reaches its computed threshold instead of waiting
// for capacity or the formation timeout. Must be called before Add; nil
// removes the hook.
func (p *Pool[T]) SetAdvisor(fn func(*Context[T]) bool) { p.advisor = fn }

// NewPool creates a pool of n contexts of the given cohort size. timeout
// is the formation deadline measured from a cohort's first request
// (0 disables timeouts). onReady is invoked — possibly synchronously from
// Add — when a cohort becomes Full.
func NewPool[T any](eng *sim.Engine, n, cohortSize int, timeout sim.Time, onReady func(*Context[T], Reason)) *Pool[T] {
	if n <= 0 || cohortSize <= 0 {
		panic("cohort: pool needs positive context count and cohort size")
	}
	if onReady == nil {
		panic("cohort: onReady is required")
	}
	p := &Pool[T]{
		eng:     eng,
		open:    make(map[string]*Context[T]),
		size:    cohortSize,
		timeout: timeout,
		onReady: onReady,
	}
	for i := 0; i < n; i++ {
		c := &Context[T]{ID: i, capacity: cohortSize, requests: make([]T, 0, cohortSize)}
		p.contexts = append(p.contexts, c)
		p.free = append(p.free, c)
	}
	return p
}

// Stats returns a snapshot of pool statistics.
func (p *Pool[T]) Stats() Stats { return p.stats }

// FreeContexts reports how many contexts are Free.
func (p *Pool[T]) FreeContexts() int { return len(p.free) }

// Forming reports whether a cohort is currently forming
// (PartiallyFull) for key. Callers that manage formation deadlines
// outside the simulation engine (the live TCP path runs on wall clock)
// use this to decide whether an Add opened a new cohort that needs a
// timer.
func (p *Pool[T]) Forming(key string) bool {
	_, ok := p.open[key]
	return ok
}

// Add routes one request into the forming cohort for key, opening a new
// context if needed. It reports false — a structural hazard; the caller
// must stall or shed — when no context is available.
func (p *Pool[T]) Add(key string, req T) bool {
	c, ok := p.open[key]
	if !ok {
		if len(p.free) == 0 {
			p.stats.Stalls++
			return false
		}
		c = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		c.Key = key
		c.state = PartiallyFull
		c.openedAt = p.eng.Now()
		p.open[key] = c
		p.stats.currInUse++
		if p.stats.currInUse > p.stats.MaxInUse {
			p.stats.MaxInUse = p.stats.currInUse
		}
		if p.timeout > 0 {
			cc := c
			c.timer = p.eng.After(p.timeout, func() { p.expire(cc) })
		}
	}
	c.requests = append(c.requests, req)
	p.stats.Requests++
	if len(c.requests) == c.capacity {
		p.launch(c, Filled)
	} else if p.advisor != nil && p.advisor(c) {
		p.launch(c, Early)
	}
	return true
}

// Flush force-launches the forming cohort for key (or all forming
// cohorts when key is ""), regardless of fill. Used at end of a request
// stream so no request is stranded.
func (p *Pool[T]) Flush(key string) {
	if key != "" {
		if c, ok := p.open[key]; ok {
			p.launch(c, TimedOut)
		}
		return
	}
	for _, c := range p.contexts {
		if c.state == PartiallyFull {
			p.launch(c, TimedOut)
		}
	}
}

// FlushOldest force-launches the longest-forming partial cohort,
// releasing one context for other request types. It reports whether a
// forming cohort existed. Cohorts opened at the same instant go lowest
// context index first (like Flush("")), so a run repeats exactly.
func (p *Pool[T]) FlushOldest() bool {
	var oldest *Context[T]
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

func (p *Pool[T]) expire(c *Context[T]) {
	if c.state != PartiallyFull {
		return // already launched
	}
	c.timer = nil
	p.launch(c, TimedOut)
}

func (p *Pool[T]) launch(c *Context[T], why Reason) {
	if c.state != PartiallyFull {
		panic(fmt.Sprintf("cohort: launch from state %v", c.state))
	}
	if c.timer != nil {
		p.eng.Cancel(c.timer)
		c.timer = nil
	}
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
func (c *Context[T]) MarkBusy() {
	if c.state != Full {
		panic(fmt.Sprintf("cohort: MarkBusy from state %v", c.state))
	}
	c.state = Busy
}

// Release returns a Busy (or still-Full, if dispatch shed it) context to
// the pool after its responses are sent.
func (p *Pool[T]) Release(c *Context[T]) {
	if c.state != Busy && c.state != Full {
		panic(fmt.Sprintf("cohort: Release from state %v", c.state))
	}
	c.state = Free
	c.Key = ""
	c.requests = c.requests[:0]
	p.free = append(p.free, c)
	p.stats.currInUse--
}
