package platform

import (
	"math"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/pipeline"
	"rhythm/internal/session"
	"rhythm/internal/sim"
)

func TestAggregateIPS(t *testing.T) {
	i7 := CoreI7()
	if got := i7.AggregateIPS(4); got != 4*i7.WorkerIPS {
		t.Fatalf("4-worker IPS = %g", got)
	}
	smt := i7.AggregateIPS(8)
	if smt <= i7.AggregateIPS(4) {
		t.Fatal("8 workers should beat 4")
	}
	if smt >= 8*i7.WorkerIPS {
		t.Fatal("SMT should not scale linearly")
	}
}

func TestAggregateIPSBounds(t *testing.T) {
	a9 := ARMCortexA9()
	mustPanic(t, func() { a9.AggregateIPS(0) })
	mustPanic(t, func() { a9.AggregateIPS(3) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestDynamicWattsMeasuredPoints(t *testing.T) {
	// Table 3's published watts must be reproduced exactly.
	cases := []struct {
		cpu     CPU
		workers int
		want    float64
	}{
		{CoreI5(), 1, 20}, {CoreI5(), 4, 51},
		{CoreI7(), 4, 102}, {CoreI7(), 8, 111},
		{ARMCortexA9(), 1, 1.4}, {ARMCortexA9(), 2, 2.5},
	}
	for _, c := range cases {
		if got := c.cpu.Dynamic(c.workers); got != c.want {
			t.Errorf("%s %dw dynamic = %v, want %v", c.cpu.Name, c.workers, got, c.want)
		}
	}
	if got := CoreI5().Wall(4); got != 98 {
		t.Errorf("i5 4w wall = %v, want 98", got)
	}
}

func TestDynamicInterpolation(t *testing.T) {
	i5 := CoreI5()
	got := i5.Dynamic(2)
	if got <= 20 || got >= 51 {
		t.Fatalf("interpolated 2-worker watts = %v", got)
	}
	i7 := CoreI7()
	if got := i7.Dynamic(2); got <= 0 || got > 102 {
		t.Fatalf("extrapolated 2-worker watts = %v", got)
	}
}

func TestTitanPowerCalibration(t *testing.T) {
	p := GTXTitanPower()
	// Saturated with heavy memory traffic (Titan B-like): ~232 W dynamic.
	b := p.Dynamic(1.0, 0.7)
	if math.Abs(b-231.5) > 15 {
		t.Fatalf("saturated dynamic = %v, want ~232", b)
	}
	// Idle-ish utilization clamps sensibly.
	if p.Dynamic(-1, 2) != p.Dynamic(0, 1) {
		t.Fatal("utilization clamping broken")
	}
}

func TestScaleToMatch(t *testing.T) {
	// §6.2: 1.535M reqs/s Titan B vs 8K reqs/s per ARM core at 1 W →
	// 192 cores, 232 - 192 = 40 W uncore headroom.
	so := ScaleToMatch(8000, 1.535e6, 1, 232)
	if so.Cores != 192 {
		t.Fatalf("ARM cores = %d, want 192", so.Cores)
	}
	if math.Abs(so.UncoreBudget-40) > 1 {
		t.Fatalf("uncore budget = %v, want ~40", so.UncoreBudget)
	}
	mustPanic(t, func() { ScaleToMatch(0, 1, 1, 1) })
}

func newCPURig(t *testing.T) (*backend.DB, *session.Array, *banking.Generator) {
	t.Helper()
	db := backend.New()
	sessions := session.NewArray(1024, 64)
	gen := banking.NewGenerator(3, sessions)
	gen.Populate(512)
	return db, sessions, gen
}

func isolatedSource(gen *banking.Generator, rt banking.ReqType, n int) pipeline.Source {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = gen.Request(rt)
	}
	return &pipeline.SliceSource{Reqs: reqs}
}

func TestCPUServerRun(t *testing.T) {
	db, sessions, gen := newCPURig(t)
	eng := sim.NewEngine()
	srv := NewCPUServer(eng, CoreI7(), 8, db, sessions, 16)
	res := srv.Run(isolatedSource(gen, banking.AccountSummary, 400))
	if res.Completed != 400 || res.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", res.Completed, res.Errors)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if res.ValidationFailures != 0 || res.Validated == 0 {
		t.Fatalf("validated=%d failures=%d", res.Validated, res.ValidationFailures)
	}
	if res.AvgInstr < 300_000 || res.AvgInstr > 600_000 {
		t.Fatalf("AvgInstr = %v, expected near Table 2's 392K", res.AvgInstr)
	}
}

func TestCPUServerWorkersScale(t *testing.T) {
	db, sessions, gen := newCPURig(t)
	run := func(workers int) float64 {
		eng := sim.NewEngine()
		srv := NewCPUServer(eng, CoreI5(), workers, db, sessions, 0)
		return srv.Run(isolatedSource(gen, banking.Transfer, 300)).Throughput
	}
	t1, t4 := run(1), run(4)
	ratio := t4 / t1
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4-worker speedup = %.2f, want ~4x", ratio)
	}
}

func TestCPUServerARMFarSlowerThanI7(t *testing.T) {
	db, sessions, gen := newCPURig(t)
	run := func(cpu CPU, workers int) float64 {
		eng := sim.NewEngine()
		srv := NewCPUServer(eng, cpu, workers, db, sessions, 0)
		return srv.Run(isolatedSource(gen, banking.BillPay, 300)).Throughput
	}
	arm := run(ARMCortexA9(), 2)
	i7 := run(CoreI7(), 8)
	frac := arm / i7
	// Paper: the ARM achieves ~4% of the i7's throughput.
	if frac < 0.02 || frac > 0.08 {
		t.Fatalf("ARM/i7 throughput = %.3f, want ~0.04", frac)
	}
}

func TestCPUServerBadRequestCounted(t *testing.T) {
	db, sessions, _ := newCPURig(t)
	eng := sim.NewEngine()
	srv := NewCPUServer(eng, CoreI5(), 1, db, sessions, 0)
	res := srv.Run(&pipeline.SliceSource{Reqs: [][]byte{
		[]byte("garbage"),
		[]byte("GET /nope.php HTTP/1.1\r\n\r\n"),
	}})
	if res.Completed != 2 || res.Errors != 2 {
		t.Fatalf("completed=%d errors=%d", res.Completed, res.Errors)
	}
}
