// Package sim provides a deterministic discrete-event simulation engine.
//
// Every timed component of the Rhythm reproduction — the SIMT device model,
// the pipeline event loop, the network and PCIe bandwidth models — advances
// a single virtual clock owned by an Engine. Events are executed in
// timestamp order; ties are broken by insertion order so runs are fully
// reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: nothing in the
// simulator reads the host clock.
type Time int64

// Duration converts a standard library duration to simulated nanoseconds.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int // heap index, -1 when removed
	dead bool
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
}

// Engine owns the virtual clock and the pending event set.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	drain []func(idle bool) bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead || ev.idx < 0 {
		return
	}
	ev.dead = true
	heap.Remove(&e.queue, ev.idx)
}

// OnDrain registers fn to be consulted at the engine's drain points: just
// before the clock advances past the current instant (idle=false) and when
// the event queue has emptied (idle=true). fn reports whether it made
// progress (typically by scheduling new events); it is called repeatedly
// until every registered hook reports false. The SIMT device model uses
// drain points as epoch boundaries for batched kernel-launch execution —
// see DESIGN.md §13.
func (e *Engine) OnDrain(fn func(idle bool) bool) {
	e.drain = append(e.drain, fn)
}

// fireDrain runs every drain hook once and reports whether any made
// progress.
func (e *Engine) fireDrain(idle bool) bool {
	progress := false
	for _, fn := range e.drain {
		if fn(idle) {
			progress = true
		}
	}
	return progress
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty and no drain hook can produce more work.
func (e *Engine) Step() bool {
	for {
		if len(e.queue) == 0 {
			if !e.fireDrain(true) {
				return false
			}
			continue
		}
		if e.queue[0].at > e.now && len(e.drain) > 0 && e.fireDrain(false) {
			continue
		}
		break
	}
	ev := heap.Pop(&e.queue).(*Event)
	if ev.dead {
		return e.Step()
	}
	e.now = ev.at
	ev.fn()
	return true
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock to
// deadline (if it has not already passed it).
func (e *Engine) RunUntil(deadline Time) {
	for {
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			// Give drain hooks a chance to schedule work (e.g. flush
			// batched launches whose ready times are at or before now)
			// before declaring this window exhausted.
			if e.fireDrain(len(e.queue) == 0) {
				continue
			}
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
