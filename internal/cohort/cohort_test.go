package cohort

import (
	"testing"
	"testing/quick"
	"time"

	"rhythm/internal/sim"
)

// engineClock runs deadlines as simulation events, as the offline
// pipeline does.
type engineClock struct{ eng *sim.Engine }

func (c engineClock) Now() time.Duration { return time.Duration(c.eng.Now()) }

func (c engineClock) After(d time.Duration, fn func()) func() {
	ev := c.eng.After(sim.Time(d), fn)
	return func() { c.eng.Cancel(ev) }
}

// window gives every key the same formation window (0: none).
func window(d sim.Time) func(string) time.Duration {
	return func(string) time.Duration { return time.Duration(d) }
}

func newPool(eng *sim.Engine, n, size int, timeout sim.Time, advisor func(*Context[string, int]) bool,
	onReady func(*Context[string, int], Reason)) *Pool[string, int] {
	return NewPool(engineClock{eng}, n, size, window(timeout), advisor, onReady)
}

type ready struct {
	id  int
	n   int
	why Reason
	at  sim.Time
}

func poolWithCollector(eng *sim.Engine, n, size int, timeout sim.Time) (*Pool[string, int], *[]ready) {
	return poolWithAdvisor(eng, n, size, timeout, nil)
}

func poolWithAdvisor(eng *sim.Engine, n, size int, timeout sim.Time, advisor func(*Context[string, int]) bool) (*Pool[string, int], *[]ready) {
	var got []ready
	p := newPool(eng, n, size, timeout, advisor, func(c *Context[string, int], why Reason) {
		got = append(got, ready{c.ID, c.Len(), why, eng.Now()})
		c.MarkBusy()
	})
	return p, &got
}

func TestFillLaunches(t *testing.T) {
	eng := sim.NewEngine()
	p, got := poolWithCollector(eng, 2, 4, 0)
	for i := 0; i < 4; i++ {
		if !p.Add("login", i) {
			t.Fatal("Add rejected")
		}
	}
	if len(*got) != 1 {
		t.Fatalf("launches = %d", len(*got))
	}
	r := (*got)[0]
	if r.n != 4 || r.why != Filled {
		t.Fatalf("launch = %+v", r)
	}
	st := p.Stats()
	if st.Formed != 1 || st.Filled != 1 || st.Requests != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTimeoutLaunchesPartial(t *testing.T) {
	eng := sim.NewEngine()
	p, got := poolWithCollector(eng, 2, 4096, sim.Time(1000))
	p.Add("login", 1)
	p.Add("login", 2)
	eng.RunUntil(eng.Now() + 999)
	if len(*got) != 0 {
		t.Fatal("launched before timeout")
	}
	eng.RunUntil(eng.Now() + 2)
	if len(*got) != 1 {
		t.Fatalf("timeout did not launch: %d", len(*got))
	}
	r := (*got)[0]
	if r.why != TimedOut || r.n != 2 || r.at != 1000 {
		t.Fatalf("launch = %+v", r)
	}
}

func TestTimeoutMeasuredFromFirstRequest(t *testing.T) {
	eng := sim.NewEngine()
	p, got := poolWithCollector(eng, 2, 100, sim.Time(1000))
	eng.RunUntil(eng.Now() + 500)
	p.Add("x", 1)
	eng.RunUntil(eng.Now() + 900) // t=1400, deadline is 1500
	if len(*got) != 0 {
		t.Fatal("fired early")
	}
	eng.RunUntil(eng.Now() + 200)
	if len(*got) != 1 || (*got)[0].at != 1500 {
		t.Fatalf("launches = %+v", *got)
	}
}

func TestFillCancelsTimer(t *testing.T) {
	eng := sim.NewEngine()
	p, got := poolWithCollector(eng, 2, 2, sim.Time(1000))
	p.Add("x", 1)
	p.Add("x", 2) // fills
	eng.RunUntil(eng.Now() + 5000)
	if len(*got) != 1 {
		t.Fatalf("timer fired after fill: %d launches", len(*got))
	}
}

func TestSeparateKeysFormSeparateCohorts(t *testing.T) {
	eng := sim.NewEngine()
	p, got := poolWithCollector(eng, 4, 2, 0)
	p.Add("a", 1)
	p.Add("b", 2)
	p.Add("a", 3)
	p.Add("b", 4)
	if len(*got) != 2 {
		t.Fatalf("launches = %d", len(*got))
	}
}

func TestExhaustionStalls(t *testing.T) {
	eng := sim.NewEngine()
	p, _ := poolWithCollector(eng, 2, 100, 0)
	p.Add("a", 1)
	p.Add("b", 2)
	if p.Add("c", 3) {
		t.Fatal("Add succeeded with no free context")
	}
	if p.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d", p.Stats().Stalls)
	}
}

func TestReleaseRecycles(t *testing.T) {
	eng := sim.NewEngine()
	var last *Context[string, int]
	p := newPool(eng, 1, 2, 0, nil, func(c *Context[string, int], _ Reason) {
		c.MarkBusy()
		last = c
	})
	p.Add("a", 1)
	p.Add("a", 2)
	if last == nil {
		t.Fatal("no launch")
	}
	if p.FreeContexts() != 0 {
		t.Fatal("context should be in use")
	}
	p.Release(last)
	if p.FreeContexts() != 1 {
		t.Fatal("Release did not free")
	}
	if last.state != Free || last.Len() != 0 {
		t.Fatalf("context not reset: %v len %d", last.state, last.Len())
	}
	// Reusable for a different key.
	if !p.Add("b", 9) {
		t.Fatal("recycled context rejected request")
	}
}

func TestFlushAll(t *testing.T) {
	eng := sim.NewEngine()
	p, got := poolWithCollector(eng, 4, 100, 0)
	p.Add("a", 1)
	p.Add("b", 2)
	p.FlushAll()
	if len(*got) != 2 {
		t.Fatalf("FlushAll launched %d", len(*got))
	}
}

// TestDeadlineLaunchesOneKey: each key's deadline runs for its own
// window and launches only its own cohort; a key whose window is 0 arms
// nothing and waits.
func TestDeadlineLaunchesOneKey(t *testing.T) {
	eng := sim.NewEngine()
	var got []ready
	windows := map[string]time.Duration{"a": 100, "b": 300}
	p := NewPool(engineClock{eng}, 4, 100, func(k string) time.Duration { return windows[k] }, nil,
		func(c *Context[string, int], why Reason) {
			got = append(got, ready{c.ID, c.Len(), why, eng.Now()})
			c.MarkBusy()
		})
	p.Add("a", 1)
	p.Add("b", 2)
	p.Add("c", 3)
	eng.RunUntil(200)
	if len(got) != 1 || got[0].n != 1 || got[0].at != 100 || got[0].why != TimedOut {
		t.Fatalf("after a's window launched %+v, want a's cohort at 100", got)
	}
	eng.Run()
	if len(got) != 2 || got[1].at != 300 {
		t.Fatalf("launches %+v, want b's cohort at 300 and c still forming", got)
	}
	if p.FreeContexts() != 1 {
		t.Fatalf("free contexts = %d, want 1 (c forming)", p.FreeContexts())
	}
}

func TestIllegalTransitionsPanic(t *testing.T) {
	eng := sim.NewEngine()
	p := newPool(eng, 1, 2, 0, nil, func(c *Context[string, int], _ Reason) {})
	c := p.contexts[0]
	mustPanic(t, "MarkBusy from Free", func() { c.MarkBusy() })
	mustPanic(t, "Release from Free", func() { p.Release(c) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestStatsOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	p, _ := poolWithCollector(eng, 4, 4, sim.Time(10))
	for i := 0; i < 4; i++ {
		p.Add("full", i)
	}
	p.Add("partial", 1)
	eng.RunUntil(eng.Now() + 20) // partial times out with 1 request
	st := p.Stats()
	if st.Formed != 2 || st.TimedOut != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.MeanOccupancy(); got != 2.5 {
		t.Fatalf("MeanOccupancy = %v", got)
	}
	if st.MaxInUse != 2 {
		t.Fatalf("MaxInUse = %d", st.MaxInUse)
	}
}

func TestFSMInvariantProperty(t *testing.T) {
	// Property: under random Add/advance/release traffic, every launch
	// has 1..capacity requests and context counts always balance.
	f := func(ops []uint8) bool {
		eng := sim.NewEngine()
		var busy []*Context[string, int]
		p := newPool(eng, 4, 3, sim.Time(50), nil, func(c *Context[string, int], _ Reason) {
			if c.Len() < 1 || c.Len() > 3 {
				panic("bad launch size")
			}
			c.MarkBusy()
			busy = append(busy, c)
		})
		keys := []string{"a", "b", "c"}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				p.Add(keys[op%3], int(op))
			case 2:
				eng.RunUntil(eng.Now() + sim.Time(op))
			case 3:
				if len(busy) > 0 {
					p.Release(busy[len(busy)-1])
					busy = busy[:len(busy)-1]
				}
			}
		}
		inUse := 0
		for _, c := range p.contexts {
			if c.state != Free {
				inUse++
			}
		}
		return inUse+p.FreeContexts() == len(p.contexts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdvisorEarlyLaunch(t *testing.T) {
	eng := sim.NewEngine()
	thr := 3
	p, got := poolWithAdvisor(eng, 2, 8, 0, func(c *Context[string, int]) bool { return c.Len() >= thr })
	for i := 0; i < 3; i++ {
		p.Add("login", i)
	}
	if len(*got) != 1 {
		t.Fatalf("launches = %d, want 1 early launch", len(*got))
	}
	if r := (*got)[0]; r.n != 3 || r.why != Early {
		t.Fatalf("launch = %+v, want n=3 why=Early", r)
	}
	if Early.String() != "early" {
		t.Fatalf("Early.String() = %q", Early.String())
	}
	// A threshold above capacity never fires early: filling still
	// launches with Filled.
	thr = 100
	for i := 0; i < 8; i++ {
		p.Add("login", i)
	}
	if len(*got) != 2 {
		t.Fatalf("launches = %d, want 2", len(*got))
	}
	if r := (*got)[1]; r.n != 8 || r.why != Filled {
		t.Fatalf("second launch = %+v, want n=8 why=Filled", r)
	}
	st := p.Stats()
	if st.Formed != 2 || st.Early != 1 || st.Filled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// fakeClock holds deadlines until a test fires them. A stopped deadline
// can still be fired, as a wall-clock timer can fire while its stop races
// it.
type fakeClock struct {
	now       time.Duration
	deadlines []*fakeDeadline
}

type fakeDeadline struct {
	at      time.Duration
	fn      func()
	stopped bool
	fired   bool
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) After(d time.Duration, fn func()) func() {
	dl := &fakeDeadline{at: c.now + d, fn: fn}
	c.deadlines = append(c.deadlines, dl)
	return func() { dl.stopped = true }
}

func (c *fakeClock) fire(dl *fakeDeadline) {
	if dl.at > c.now {
		c.now = dl.at
	}
	dl.fired = true
	dl.fn()
}

// TestStaleDeadlineIgnored: a deadline that fires after its cohort filled
// and the context reopened for the same key launches nothing; the new
// cohort's own deadline still launches it.
func TestStaleDeadlineIgnored(t *testing.T) {
	clk := &fakeClock{}
	var got []int
	var busy *Context[string, int]
	p := NewPool(clk, 1, 2, func(string) time.Duration { return 10 }, nil,
		func(c *Context[string, int], _ Reason) {
			got = append(got, c.Len())
			c.MarkBusy()
			busy = c
		})
	p.Add("x", 1)
	p.Add("x", 2) // fills; the first deadline is stopped but may still fire
	p.Release(busy)
	p.Add("x", 3) // the same context reopens for the same key
	if len(clk.deadlines) != 2 || !clk.deadlines[0].stopped {
		t.Fatalf("deadlines = %+v, want the first stopped and a second armed", clk.deadlines)
	}
	clk.fire(clk.deadlines[0])
	if len(got) != 1 {
		t.Fatalf("the stale deadline launched the reopened cohort: launches %v", got)
	}
	clk.fire(clk.deadlines[1])
	if len(got) != 2 || got[1] != 1 {
		t.Fatalf("the current deadline did not launch: launches %v", got)
	}
}

// TestParkOrder pins today's retry policy: parked requests are retried
// in arrival order when a context frees, and a key that finds no room
// stays parked while later requests of the key that got the context join
// its cohort.
func TestParkOrder(t *testing.T) {
	eng := sim.NewEngine()
	var busy []*Context[string, int]
	var launched [][]int
	p := newPool(eng, 1, 4, 0, nil, func(c *Context[string, int], _ Reason) {
		launched = append(launched, append([]int(nil), c.Requests()...))
		c.MarkBusy()
		busy = append(busy, c)
	})
	for i := 0; i < 4; i++ {
		p.Add("z", i) // fills the only context, which stays Busy
	}
	for _, r := range []struct {
		key string
		req int
	}{{"x", 11}, {"y", 21}, {"x", 12}} {
		if p.Add(r.key, r.req) {
			t.Fatalf("Add(%s) placed behind a busy context", r.key)
		}
		p.Park(r.key, r.req)
	}
	p.Release(busy[0])
	if p.Parked() != 1 {
		t.Fatalf("parked = %d after the release, want 1 (y)", p.Parked())
	}
	p.FlushAll()
	if len(launched) != 2 || len(launched[1]) != 2 || launched[1][0] != 11 || launched[1][1] != 12 {
		t.Fatalf("launched %v, want x's cohort [11 12]", launched)
	}
}

// TestStallsCountRequests: a request Add cannot place counts one stall,
// however many releases it waits through before a retry places it.
func TestStallsCountRequests(t *testing.T) {
	const n, size = 6, 2 // n parked requests drain over n/size releases
	eng := sim.NewEngine()
	var busy []*Context[string, int]
	p := newPool(eng, 1, size, 0, nil, func(c *Context[string, int], _ Reason) {
		c.MarkBusy()
		busy = append(busy, c)
	})
	for i := 0; i < size; i++ {
		p.Add("a", i) // fills the only context, which stays Busy
	}
	for i := 0; i < n; i++ {
		if p.Add("a", size+i) {
			t.Fatal("Add placed with every context Busy")
		}
		p.Park("a", size+i)
	}
	releases := 0
	for ; p.Parked() > 0 && releases < n; releases++ {
		p.Release(busy[len(busy)-1])
	}
	if releases != n/size || p.Parked() != 0 {
		t.Fatalf("%d parked after %d releases, want 0 after %d", p.Parked(), releases, n/size)
	}
	if st := p.Stats(); st.Stalls != n || st.Requests != n+size {
		t.Fatalf("stalls = %d requests = %d, want %d and %d", st.Stalls, st.Requests, n, n+size)
	}
}

// TestDrainLaunchesAtOnce: Drain launches what is forming and stops its
// deadline; afterwards every Add and every retried parked request
// launches at once.
func TestDrainLaunchesAtOnce(t *testing.T) {
	clk := &fakeClock{}
	var busy []*Context[string, int]
	p := NewPool(clk, 1, 8, func(string) time.Duration { return 10 }, nil,
		func(c *Context[string, int], _ Reason) {
			c.MarkBusy()
			busy = append(busy, c)
		})
	p.Add("a", 1)
	p.Add("b", 2) // refused: the one context is forming a's cohort
	p.Park("b", 2)
	p.Drain()
	if len(busy) != 1 || !clk.deadlines[0].stopped {
		t.Fatalf("Drain launched %d cohorts, deadline stopped %v", len(busy), clk.deadlines[0].stopped)
	}
	p.Release(busy[0])
	if len(busy) != 2 || busy[1].Len() != 1 || p.Parked() != 0 {
		t.Fatalf("the parked request did not launch at once: %d launches, %d parked", len(busy), p.Parked())
	}
	if len(clk.deadlines) != 1 {
		t.Fatalf("a drained pool armed %d more deadlines", len(clk.deadlines)-1)
	}
	if st := p.Stats(); st.TimedOut != 2 {
		t.Fatalf("timed out = %d, want 2", st.TimedOut)
	}
}
