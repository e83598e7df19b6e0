package cohort

import (
	"testing"
	"testing/quick"

	"rhythm/internal/sim"
)

type ready struct {
	id  int
	n   int
	why Reason
	at  sim.Time
}

func poolWithCollector(eng *sim.Engine, n, size int, timeout sim.Time) (*Pool[int], *[]ready) {
	var got []ready
	p := NewPool[int](eng, n, size, timeout, func(c *Context[int], why Reason) {
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
	var last *Context[int]
	p := NewPool[int](eng, 1, 2, 0, func(c *Context[int], _ Reason) {
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
	p.Flush("")
	if len(*got) != 2 {
		t.Fatalf("Flush launched %d", len(*got))
	}
}

func TestFlushOneKey(t *testing.T) {
	eng := sim.NewEngine()
	p, got := poolWithCollector(eng, 4, 100, 0)
	p.Add("a", 1)
	p.Add("b", 2)
	p.Flush("a")
	if len(*got) != 1 || (*got)[0].n != 1 {
		t.Fatalf("Flush(a) launched %+v", *got)
	}
}

func TestIllegalTransitionsPanic(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPool[int](eng, 1, 2, 0, func(c *Context[int], _ Reason) {})
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
		var busy []*Context[int]
		p := NewPool[int](eng, 4, 3, sim.Time(50), func(c *Context[int], _ Reason) {
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
	p, got := poolWithCollector(eng, 2, 8, 0)
	thr := 3
	p.SetAdvisor(func(c *Context[int]) bool { return c.Len() >= thr })
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
