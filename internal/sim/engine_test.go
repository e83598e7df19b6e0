package sim

import (
	"testing"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var final Time
	e.After(100, func() {
		e.After(50, func() { final = e.Now() })
	})
	e.Run()
	if final != 150 {
		t.Fatalf("nested After fired at %d, want 150", final)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// double-cancel is a no-op
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestEngineCancelNilIsNoop(t *testing.T) {
	e := NewEngine()
	e.Cancel(nil) // must not panic
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20 after RunUntil", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

// TestEngineAdvanceMovesClock: with nothing scheduled, RunUntil still
// moves the clock to its deadline.
func TestEngineAdvanceMovesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestTimeConversions(t *testing.T) {
	d := Duration(1500 * time.Millisecond)
	if d != 1_500_000_000 {
		t.Fatalf("Duration = %d", d)
	}
	if d.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", d.Seconds())
	}
	if d.Micros() != 1.5e6 {
		t.Fatalf("Micros = %v", d.Micros())
	}
}

func TestPipeSerializesTransfers(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1e9, 0) // 1 GB/s => 1 byte/ns
	var done []Time
	p.Transfer(1000, func() { done = append(done, e.Now()) })
	p.Transfer(1000, func() { done = append(done, e.Now()) })
	e.Run()
	if done[0] != 1000 || done[1] != 2000 {
		t.Fatalf("completion times %v, want [1000 2000]", done)
	}
}

func TestPipeLatencyOverlaps(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1e9, 100)
	var first, second Time
	p.Transfer(1000, func() { first = e.Now() })
	p.Transfer(1000, func() { second = e.Now() })
	e.Run()
	// Latency adds to completion but does not hold the pipe.
	if first != 1100 {
		t.Fatalf("first = %d, want 1100", first)
	}
	if second != 2100 {
		t.Fatalf("second = %d, want 2100", second)
	}
}

func TestPipeUtilization(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1e9, 0)
	p.Transfer(500, nil)
	e.RunUntil(1000)
	u := p.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %v, want ~0.5", u)
	}
}

func TestServerParallelSlots(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		s.Submit(100, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// 2 at t=100, 2 at t=200.
	if done[0] != 100 || done[1] != 100 || done[2] != 200 || done[3] != 200 {
		t.Fatalf("completions %v", done)
	}
}

func TestPipeRejectsNegative(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative transfer did not panic")
		}
	}()
	p.Transfer(-1, nil)
}
