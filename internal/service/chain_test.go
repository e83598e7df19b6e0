package service_test

import (
	"testing"

	"rhythm/internal/banking"
	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// TestRunSequencesEachPlatform: one login cohort (two backend round
// trips) through PageUnit.Run on each platform. The stage kernels reach
// staged in order and before done; only Titan A goes to the host, once
// per backend stage; Titan C, whose transpose unit does the response
// transpose, launches one kernel fewer than Titan B and finishes
// earlier; and every platform renders the host path's bytes.
func TestRunSequencesEachPlatform(t *testing.T) {
	in, local := bankingInput, int(banking.Login)
	backends := in.w.Def(local).Backends
	if backends != 2 {
		t.Fatalf("login has %d backend stages, want 2", backends)
	}
	want, _ := hostScratch(in.w, local, in.world(t, local, n, nil))
	type outcome struct {
		finish sim.Time
		stats  simt.DeviceStats
	}
	got := map[service.Platform]outcome{}
	for _, p := range []service.Platform{service.TitanA, service.TitanB, service.TitanC} {
		v := service.Live
		v.Platform = p
		wd := in.world(t, local, n, nil)
		eng := sim.NewEngine()
		dev := simt.NewDevice(eng, simt.GTXTitan(), deviceMem, nil)
		unit := in.w.NewSlot(dev, n, v).Bind(local, wd.reqs, wd.sessions, wd.be)
		var kernels []string
		trips, dones := 0, 0
		serve := serveBackend(unit, n)
		unit.Run(dev.NewStream(), func(reply func()) {
			trips++
			if len(kernels) != trips {
				t.Errorf("%v: round trip %d after %d stage kernels", p, trips, len(kernels))
			}
			serve(reply)
		}, func(ls simt.LaunchStats) {
			kernels = append(kernels, ls.Kernel)
		}, func() {
			dones++
			if len(kernels) != backends+1 {
				t.Errorf("%v: done after %d of %d stage kernels", p, len(kernels), backends+1)
			}
		})
		eng.Run()
		if dones != 1 {
			t.Fatalf("%v: done called %d times", p, dones)
		}
		for k := 0; k < backends+1; k++ {
			if name := unit.Stage(k).Name(); kernels[k] != name {
				t.Errorf("%v: staged saw %q as stage %d, want %q", p, kernels[k], k, name)
			}
		}
		wantTrips := 0
		if p == service.TitanA {
			wantTrips = backends
		}
		if trips != wantTrips {
			t.Errorf("%v: %d host round trips, want %d", p, trips, wantTrips)
		}
		assertSameBytes(t, p.String(), unit.Responses(), want)
		got[p] = outcome{eng.Now(), dev.Stats()}
	}
	b, c := got[service.TitanB], got[service.TitanC]
	if c.finish >= b.finish {
		t.Errorf("Titan C finished at %d, not before Titan B's %d", c.finish, b.finish)
	}
	if c.stats.Launches != b.stats.Launches-1 {
		t.Errorf("Titan C made %d launches, want one fewer than Titan B's %d", c.stats.Launches, b.stats.Launches)
	}
}

func TestPlatformString(t *testing.T) {
	for p, want := range map[service.Platform]string{service.TitanA: "Titan A", service.TitanB: "Titan B", service.TitanC: "Titan C", service.Platform(9): "unknown"} {
		if got := p.String(); got != want {
			t.Errorf("Platform(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}
