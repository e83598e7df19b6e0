package service_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rhythm/internal/banking"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// hostScratch executes wd's requests one by one on the scalar path
// through one reused Scratch, as the host route does, and renders each
// with Scratch.Render.
func hostScratch(w *service.PageWorkload, local int, wd world) (resps [][]byte, failed []bool) {
	sc := service.NewScratch()
	class := w.Def(local).BufferBytes
	for i := range wd.reqs {
		ctx := w.ExecuteScratch(sc, local, &wd.reqs[i], wd.sessions, wd.be, true)
		resps = append(resps, sc.Render(make([]byte, class)))
		failed = append(failed, ctx.Err != "")
	}
	return resps, failed
}

// launchUnit binds wd's requests on a fresh Live slot and runs its
// chain, reading no response.
func launchUnit(t *testing.T, w *service.PageWorkload, local int, wd world) *service.PageUnit {
	t.Helper()
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), deviceMem, nil)
	unit := w.NewSlot(dev, len(wd.reqs), service.Live).Bind(local, wd.reqs, wd.sessions, wd.be)
	unit.Run(dev.NewStream(), nil, nil, nil)
	eng.Run()
	return unit
}

// TestResponseResponsesAndHostRenderAgree: for every type of all three
// workloads, with error lanes and (for the variable-stage types) lanes
// that retire early, a lane's Response, its entry of Responses and the
// host path's Scratch.Render are the same bytes — whichever of Response
// and Responses is called first.
func TestResponseResponsesAndHostRenderAgree(t *testing.T) {
	bad := func(i int) bool { return i%5 == 2 }
	for _, in := range []input{bankingInput, ecomInput, telemetryInput} {
		failures := 0
		for local, sp := range in.w.Types() {
			what := in.name + "/" + sp.Name
			want, wantFailed := hostScratch(in.w, local, in.world(t, local, n, bad))

			// Responses first, then Response.
			dev := runDevice(t, in.w, local, in.world(t, local, n, bad), service.Live, false)
			assertSameBytes(t, what+": Responses", dev.resps, want)
			for i := range want {
				if !bytes.Equal(dev.unit.Response(i), want[i]) {
					t.Fatalf("%s: lane %d: Response after Responses differs from the host's render", what, i)
				}
				if dev.failed[i] != wantFailed[i] {
					t.Fatalf("%s: lane %d failed=%v on the device, %v on the host", what, i, dev.failed[i], wantFailed[i])
				}
				if wantFailed[i] {
					failures++
				}
			}

			// Response first, then Responses.
			unit := launchUnit(t, in.w, local, in.world(t, local, n, bad))
			for i := range want {
				if !bytes.Equal(unit.Response(i), want[i]) {
					t.Fatalf("%s: lane %d: Response before Responses differs from the host's render", what, i)
				}
			}
			assertSameBytes(t, what+": Responses after Response", unit.Responses(), want)
		}
		if failures == 0 {
			t.Errorf("%s: no lane took the error path", in.name)
		}
	}
}

// TestResponseReusesOneBuffer: reading a lane in place renders into the
// one buffer the unit keeps, so after the first read it allocates
// nothing.
func TestResponseReusesOneBuffer(t *testing.T) {
	local := int(banking.Transfer)
	unit := launchUnit(t, bankingInput.w, local, bankingWorld(t, local, n, nil))
	unit.Response(0)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		unit.Response(i % n)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Response allocated %.2f times a call after its first", allocs)
	}
}

// TestOversizePagePanicsInTheKernel: a page that outgrows its buffer is
// a programming error, and it surfaces in the final stage kernel that
// emits it, not later when its response is read.
func TestOversizePagePanicsInTheKernel(t *testing.T) {
	w := service.NewPageWorkload(service.PageWorkloadConfig{
		Name: "oversize",
		Defs: []service.SvcDef{{
			Name: "page", Path: "/page", Backends: 0, BufferBytes: 1 << 10,
			Stage: func(ctx *service.Ctx, stage int, bresp []byte) []byte {
				ctx.Page.Static(strings.Repeat("x", 1<<10))
				return nil
			},
		}},
		NewBackend: func() service.Backend { return nil },
	})
	reqs := []httpx.Request{parse(t, "GET /page HTTP/1.1\r\n\r\n")}
	cfg := simt.GTXTitan()
	cfg.HostParallelism = 1 // the panic reaches this goroutine
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, cfg, deviceMem, nil)
	unit := w.NewSlot(dev, 1, service.Live).Bind(0, reqs, session.NewArray(1, 1), nil)
	unit.Run(dev.NewStream(), nil, nil, nil)
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		eng.Run()
		return nil
	}()
	if msg == nil {
		t.Fatal("the final stage kernel emitted an oversize page")
	}
	if !strings.Contains(fmt.Sprint(msg), "overflows its 1024-byte buffer") {
		t.Fatalf("the final stage kernel panicked with %q, want an overflow", msg)
	}
}

// TestSessionCreatesFollowLaneOrder: a login cohort against buckets
// with fewer free and idle slots than lanes. Which lanes get a slot,
// which slot each gets, which slot each reclaims and which fail must
// depend on lane order alone, so every run, at one host worker or at
// eight, renders the same cookies, fails the same lanes and prices the
// same launches as the first, serial one.
func TestSessionCreatesFollowLaneOrder(t *testing.T) {
	const lanes, runs = 256, 16
	local := int(banking.Login)
	logins := func() world {
		wd := bankingWorld(t, local, lanes, nil)
		// Two buckets of 64 nodes, 100 of them taken a millisecond
		// before the cohort: 28 free slots and 100 idle ones to reclaim
		// for 256 logins, and the rest fail.
		var now int64
		wd.sessions = session.NewArray(2, 64)
		wd.sessions.SetClock(func() int64 { return now })
		for uid := uint64(1); wd.sessions.Len() < 100; uid++ {
			wd.sessions.Create(uid)
		}
		now = 1_000_000
		return wd
	}
	var want deviceRun
	for run := 0; run < runs; run++ {
		cfg := simt.GTXTitan()
		cfg.HostParallelism = 1 + 7*(run%2)
		got := runDeviceOn(t, cfg, bankingInput.w, local, logins(), service.Live, false)
		if run == 0 {
			want = got
			failed := 0
			for _, f := range got.failed {
				if f {
					failed++
				}
			}
			if failed != lanes-128 {
				t.Fatalf("%d of %d logins failed; want all but the 128 nodes' worth", failed, lanes)
			}
			continue
		}
		what := fmt.Sprintf("run %d (host parallelism %d)", run, cfg.HostParallelism)
		assertSameBytes(t, what, got.resps, want.resps)
		if !slices.Equal(got.failed, want.failed) {
			t.Fatalf("%s: failed lanes %v, the serial run's %v", what, got.failed, want.failed)
		}
		if !slices.Equal(got.launches, want.launches) {
			t.Fatalf("%s: launch stats differ:\n  serial: %+v\n  got:    %+v", what, want.launches, got.launches)
		}
	}
}
