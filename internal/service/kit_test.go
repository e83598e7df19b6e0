package service_test

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/ecom"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
	"rhythm/internal/telemetry"
)

// world is one shard group's state plus n parsed requests of one type.
// Building it twice yields twins, so a device run on one and a host run
// on the other must produce the same bytes.
type world struct {
	sessions *session.Array
	be       service.Backend
	reqs     []httpx.Request
}

// input is one workload of the kit's test table: every kernel-level
// case runs over a banking type and an ecom type, the priced-layout
// differential over a telemetry type as well.
type input struct {
	name string
	w    *service.PageWorkload
	// page is a read with variable-length dynamic sections, variable a
	// VariableStages type (-1: the workload has none).
	page, variable int
	// world builds n requests of `local` (bad marks lanes that must take
	// the error path).
	world func(t testing.TB, local, n int, bad func(i int) bool) world
}

func parse(t testing.TB, raw string) httpx.Request {
	t.Helper()
	req, err := httpx.Parse([]byte(raw))
	if err != nil {
		t.Fatalf("parse %q: %v", raw, err)
	}
	return req
}

func bankingWorld(t testing.TB, local, n int, bad func(int) bool) world {
	wd := world{sessions: session.NewArray(256, 64), be: backend.New()}
	gen := banking.NewGenerator(9, wd.sessions)
	gen.Populate(256)
	// One request per user: a user's state then changes in the same
	// order whether requests run one by one or stage by stage.
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		req := parse(t, string(gen.Request(banking.ReqType(local))))
		for sid := req.Cookie("MY_ID"); sid != "" && seen[sid]; sid = req.Cookie("MY_ID") {
			req = parse(t, string(gen.Request(banking.ReqType(local))))
		}
		seen[req.Cookie("MY_ID")] = true
		if bad != nil && bad(i) {
			req = parse(t, "GET "+req.Path+" HTTP/1.1\r\nCookie: MY_ID=ffffffffffffffff\r\n\r\n")
		}
		wd.reqs = append(wd.reqs, req)
	}
	return wd
}

func ecomWorld(t testing.TB, local, n int, bad func(int) bool) world {
	store := ecom.NewStore()
	wd := world{sessions: session.NewArray(256, 64), be: store}
	post := func(path, cookie, body string) httpx.Request {
		return parse(t, fmt.Sprintf("POST %s HTTP/1.1\r\nHost: s\r\n%sContent-Length: %d\r\n\r\n%s", path, cookie, len(body), body))
	}
	for i := 0; i < n; i++ {
		uid := uint64(5000 + i)
		var req httpx.Request
		switch local {
		case ecom.Index:
			req = parse(t, "GET /index.php HTTP/1.1\r\n\r\n")
		case ecom.Browse:
			req = parse(t, "GET /browse.php?cat="+ecom.Categories[i%len(ecom.Categories)]+" HTTP/1.1\r\n\r\n")
		case ecom.Search:
			req = parse(t, fmt.Sprintf("GET /search.php?q=kw%d HTTP/1.1\r\n\r\n", i*37%977))
		case ecom.Product:
			req = parse(t, fmt.Sprintf("GET /product.php?id=%d HTTP/1.1\r\n\r\n", i*1009%100000))
		case ecom.Cart:
			req = post("/cart.php", "", fmt.Sprintf("uid=%d&id=%d&qty=%d", uid, i*31, 1+i%3))
		case ecom.Checkout:
			// Every third shopper checks out an empty cart: the
			// variable-stage early exit.
			sid, _, ok := wd.sessions.Create(uid)
			if !ok {
				t.Fatal("session table full")
			}
			if i%3 != 0 {
				store.Handle(nil, []byte(fmt.Sprintf("ADDCART %d %d 2", uid, i*31)))
			}
			req = post("/checkout.php", "Cookie: "+ecom.CookieName+"="+sid.String()+"\r\n", "")
		}
		if bad != nil && bad(i) {
			req = parse(t, "GET "+req.Path+" HTTP/1.1\r\nCookie: "+ecom.CookieName+"=ffffffffffffffff\r\n\r\n")
		}
		wd.reqs = append(wd.reqs, req)
	}
	return wd
}

// telemetryWorld builds polls (after seeding the device's ring, so the
// pages carry frames) or any other type's requests for device 7; a bad
// lane names no device.
func telemetryWorld(t testing.TB, local, n int, bad func(int) bool) world {
	broker := telemetry.NewBroker()
	wd := world{sessions: session.NewArray(256, 64), be: broker}
	for i := 0; i < n; i++ {
		dev := "7"
		if bad != nil && bad(i) {
			dev = "none"
		}
		switch local {
		case telemetry.Ingest:
			body := fmt.Sprintf("dev=%s&f=%04x", dev, i)
			wd.reqs = append(wd.reqs, parse(t, fmt.Sprintf("POST /t/ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body)))
		case telemetry.Subscribe:
			wd.reqs = append(wd.reqs, parse(t, fmt.Sprintf("GET /t/subscribe?dev=%s&sub=%d HTTP/1.1\r\n\r\n", dev, i)))
		case telemetry.Poll:
			broker.Handle(nil, []byte(fmt.Sprintf("SUB 7 %d", i)))
			broker.Handle(nil, []byte(fmt.Sprintf("PUB 7 %04x", i)))
			wd.reqs = append(wd.reqs, parse(t, fmt.Sprintf("GET /t/poll?dev=%s&sub=%d HTTP/1.1\r\n\r\n", dev, i)))
		case telemetry.Status:
			broker.Handle(nil, []byte(fmt.Sprintf("PUB 7 %04x", i)))
			wd.reqs = append(wd.reqs, parse(t, fmt.Sprintf("GET /t/status?dev=%s HTTP/1.1\r\n\r\n", dev)))
		default:
			t.Fatalf("telemetryWorld: no recipe for type %d", local)
		}
	}
	return wd
}

var (
	bankingInput   = input{name: "banking", w: banking.NewWorkload(), world: bankingWorld, page: int(banking.AccountSummary), variable: int(banking.QuickPay)}
	ecomInput      = input{name: "ecom", w: ecom.New(), world: ecomWorld, page: ecom.Browse, variable: ecom.Checkout}
	telemetryInput = input{name: "telemetry", w: telemetry.New(), world: telemetryWorld, page: telemetry.Poll, variable: -1}

	inputs = []input{bankingInput, ecomInput}
)

// counting wraps a backend to count round trips.
type counting struct {
	service.Backend
	calls int
}

func (c *counting) Handle(dst, req []byte) []byte {
	c.calls++
	return c.Backend.Handle(dst, req)
}

// Reads is false: the count is state, so round trips must not overlap.
func (c *counting) Reads([]byte) bool { return false }

// deviceRun is one cohort's trip through the stage kernels.
type deviceRun struct {
	resps    [][]byte
	failed   []bool
	launches []simt.LaunchStats
	stats    simt.DeviceStats
	finish   sim.Time // virtual time when the device went quiet
	unit     *service.PageUnit
}

const deviceMem = 16 << 20

// runner is a bound unit's chain and what it renders: the production
// *service.PageUnit, or its write-through reference.
type runner interface {
	Run(stream *simt.Stream, roundTrip func(reply func()), staged func(simt.LaunchStats), done func())
	Responses() [][]byte
}

// runDevice binds wd's requests on a fresh device slot of variant v and
// runs the unit's chain — the production kit's, or with reference its
// write-through build (service.Reference).
func runDevice(t *testing.T, w *service.PageWorkload, local int, wd world, v service.Variant, reference bool) deviceRun {
	t.Helper()
	return runDeviceOn(t, simt.GTXTitan(), w, local, wd, v, reference)
}

// runDeviceOn is runDevice on a device of configuration cfg.
func runDeviceOn(t *testing.T, cfg simt.Config, w *service.PageWorkload, local int, wd world, v service.Variant, reference bool) deviceRun {
	t.Helper()
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, cfg, deviceMem, nil)
	unit := w.NewSlot(dev, len(wd.reqs), v).Bind(local, wd.reqs, wd.sessions, wd.be)
	var chain runner = unit
	if reference {
		chain = service.Reference(unit)
	}
	run := deviceRun{unit: unit}
	chain.Run(dev.NewStream(), serveBackend(unit, len(wd.reqs)), func(ls simt.LaunchStats) {
		run.launches = append(run.launches, ls)
	}, nil)
	eng.Run()
	run.resps = chain.Responses()
	for i := range wd.reqs {
		run.failed = append(run.failed, unit.Failed(i))
	}
	run.stats = dev.Stats()
	run.finish = eng.Now()
	return run
}

// serveBackend is a Titan A round trip of a cohort of n served
// synchronously: every active lane's backend request against the bound
// backend.
func serveBackend(unit *service.PageUnit, n int) func(reply func()) {
	return func(reply func()) {
		for r := 0; r < n; r++ {
			if unit.Active(r) {
				unit.ServeBackend(r)
			}
		}
		reply()
	}
}

// runHost executes wd's requests one by one on the scalar path.
func runHost(w *service.PageWorkload, local int, wd world, padding bool) (resps [][]byte, failed []bool) {
	for i := range wd.reqs {
		ctx := w.Execute(local, &wd.reqs[i], wd.sessions, wd.be, padding)
		resps = append(resps, ctx.RenderAlloc())
		failed = append(failed, ctx.Err != "")
	}
	return resps, failed
}

func assertSameBytes(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: request %d: device response differs from the host's", what, i)
		}
	}
}

// n is a cohort with a partial last warp.
const n = 40

// TestStageChainMatchesHostBytes: for every type of both workloads the
// stage-kernel chain renders what the scalar host path renders, and no
// request takes the error path.
func TestStageChainMatchesHostBytes(t *testing.T) {
	for _, in := range inputs {
		for local, sp := range in.w.Types() {
			what := in.name + "/" + sp.Name
			dev := runDevice(t, in.w, local, in.world(t, local, n, nil), service.Live, false)
			want, _ := runHost(in.w, local, in.world(t, local, n, nil), true)
			assertSameBytes(t, what, dev.resps, want)
			if len(dev.launches) != sp.Backends+1 {
				t.Errorf("%s: %d launches, want %d", what, len(dev.launches), sp.Backends+1)
			}
			for i, f := range dev.failed {
				if f {
					t.Errorf("%s: request %d took the error path", what, i)
				}
			}
			if in.name == "banking" {
				for i, resp := range dev.resps {
					if err := banking.Validate(banking.ReqType(local), resp); err != nil {
						t.Fatalf("%s: request %d: %v", what, i, err)
					}
				}
			}
		}
	}
}

// TestErrorLanesDiverge: lanes whose session does not resolve leave the
// cohort at the prologue (§4.4), render the full-size error page in the
// final kernel, and the other lanes' bytes are untouched.
func TestErrorLanesDiverge(t *testing.T) {
	bad := func(i int) bool { return i%5 == 2 }
	for _, in := range inputs {
		local := in.variable // a session-required type in both workloads
		dev := runDevice(t, in.w, local, in.world(t, local, n, bad), service.Live, false)
		want, wantFailed := runHost(in.w, local, in.world(t, local, n, bad), true)
		assertSameBytes(t, in.name, dev.resps, want)
		for i := range wantFailed {
			if dev.failed[i] != bad(i) || wantFailed[i] != bad(i) {
				t.Errorf("%s: request %d failed=%v on the device, %v on the host, want %v", in.name, i, dev.failed[i], wantFailed[i], bad(i))
			}
		}
		if dev.launches[0].DivergentExec == 0 {
			t.Errorf("%s: error lanes caused no divergence", in.name)
		}
	}
}

// TestVariableStagesRetireEarly: requests of a variable-stage type that
// finish before the last backend stage emit at once and issue no further
// backend requests, and the rest of the cohort is unaffected.
func TestVariableStagesRetireEarly(t *testing.T) {
	for _, in := range inputs {
		local := in.variable
		backends := in.w.Def(local).Backends
		hostWorld := in.world(t, local, n, nil)
		early, full, hostCalls := 0, 0, 0
		var want [][]byte
		for i := range hostWorld.reqs {
			be := &counting{Backend: hostWorld.be}
			ctx := in.w.Execute(local, &hostWorld.reqs[i], hostWorld.sessions, be, true)
			if ctx.Err != "" {
				t.Fatalf("%s: request %d: %s", in.name, i, ctx.Err)
			}
			want = append(want, ctx.RenderAlloc())
			hostCalls += be.calls
			if be.calls < backends {
				early++
			} else {
				full++
			}
		}
		if early == 0 || full == 0 {
			t.Fatalf("%s: want a mix of early and full retirements, got %d/%d", in.name, early, full)
		}
		devWorld := in.world(t, local, n, nil)
		be := &counting{Backend: devWorld.be}
		devWorld.be = be
		dev := runDevice(t, in.w, local, devWorld, service.Live, false)
		assertSameBytes(t, in.name, dev.resps, want)
		if be.calls != hostCalls {
			t.Errorf("%s: %d backend requests on the device, %d on the host", in.name, be.calls, hostCalls)
		}
	}
}

// TestPricedLayoutMatchesWriteThroughReference: the kit prices the
// column-major layout — column loads and stores, the row-major
// ablation's word loop, every transpose — without moving a byte through
// it. Against the reference build that does move them (export_test.go),
// for every variant and every kind of cohort, each launch's statistics,
// the device totals, the virtual finish time and every response byte are
// equal.
func TestPricedLayoutMatchesWriteThroughReference(t *testing.T) {
	variants := map[string]service.Variant{
		"titan-b":   service.Live,
		"unpadded":  {ColMajor: true},
		"row-major": {Padding: true},
		"titan-a":   {Platform: service.TitanA, Padding: true, ColMajor: true},
		"titan-c":   {Platform: service.TitanC, Padding: true, ColMajor: true},
	}
	bad := func(i int) bool { return i%5 == 2 }
	type cohortCase struct {
		name  string
		local int
		n     int
		bad   func(int) bool
	}
	for _, in := range []input{bankingInput, ecomInput, telemetryInput} {
		cases := []cohortCase{
			{"full", in.page, 64, nil},
			{"partial", in.page, 40, nil},
			{"error-lanes", in.page, 40, bad},
		}
		if in.variable >= 0 {
			cases = append(cases, cohortCase{"early-exit", in.variable, 40, nil})
		}
		for vname, v := range variants {
			for _, c := range cases {
				what := in.name + "/" + vname + "/" + c.name
				ref := runDevice(t, in.w, c.local, in.world(t, c.local, c.n, c.bad), v, true)
				got := runDevice(t, in.w, c.local, in.world(t, c.local, c.n, c.bad), v, false)
				if len(got.launches) != len(ref.launches) {
					t.Fatalf("%s: %d launches against the reference's %d", what, len(got.launches), len(ref.launches))
				}
				for i := range ref.launches {
					if got.launches[i] != ref.launches[i] {
						t.Fatalf("%s: launch %d stats differ:\n  reference: %+v\n  priced:    %+v", what, i, ref.launches[i], got.launches[i])
					}
				}
				if got.stats != ref.stats {
					t.Fatalf("%s: DeviceStats differ:\n  reference: %+v\n  priced:    %+v", what, ref.stats, got.stats)
				}
				if got.finish != ref.finish {
					t.Fatalf("%s: finished at %d, the reference at %d", what, got.finish, ref.finish)
				}
				assertSameBytes(t, what, got.resps, ref.resps)
				failed := 0
				for i := range ref.failed {
					if got.failed[i] != ref.failed[i] {
						t.Fatalf("%s: request %d failed=%v, the reference's %v", what, i, got.failed[i], ref.failed[i])
					}
					if got.failed[i] {
						failed++
					}
				}
				if (failed > 0) != (c.bad != nil) {
					t.Fatalf("%s: %d requests took the error path", what, failed)
				}
			}
		}
	}
}

// TestResponsesAreIsolated: Responses gives the rows away. They stay
// what they were while the slot is rebound and run again under them;
// overwriting one, or appending to it, reaches neither its neighbours
// nor what the slot renders next.
func TestResponsesAreIsolated(t *testing.T) {
	in := ecomInput
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), deviceMem, nil)
	slot := in.w.NewSlot(dev, n, service.Live)
	stream := dev.NewStream()
	run := func() [][]byte {
		wd := in.world(t, in.page, n, nil)
		unit := slot.Bind(in.page, wd.reqs, wd.sessions, wd.be)
		unit.Run(stream, nil, nil, nil)
		eng.Run()
		return unit.Responses()
	}
	want, _ := runHost(in.w, in.page, in.world(t, in.page, n, nil), true)
	first, second := run(), run()
	assertSameBytes(t, "first cohort after the slot's second", first, want)
	for i := range second {
		if cap(second[i]) != len(second[i]) {
			t.Fatalf("response %d has %d bytes of spare capacity", i, cap(second[i])-len(second[i]))
		}
		for j := range second[i] {
			second[i][j] = 0xEE
		}
		second[i] = append(second[i], bytes.Repeat([]byte{0xEE}, 64)...)
		if i+1 < len(second) && !bytes.Equal(second[i+1], want[i+1]) {
			t.Fatalf("scribbling over response %d changed response %d", i, i+1)
		}
	}
	assertSameBytes(t, "first cohort after the scribble", first, want)
	assertSameBytes(t, "third cohort after the scribble", run(), want)
}

// TestSlotSharesLaneMirrors: a slot bound in turn to every banking type
// — every response size class — keeps one execution context a lane and
// one set of backend buffers, not one a class, on a device that backs no
// memory at all. Each unit, read before the next Bind, renders what the
// scalar path does.
func TestSlotSharesLaneMirrors(t *testing.T) {
	in := bankingInput
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 0, nil)
	slot := in.w.NewSlot(dev, n, service.Live)
	stream := dev.NewStream()
	classes := map[int]bool{}
	for local, sp := range in.w.Types() {
		classes[in.w.Def(local).BufferBytes] = true
		wd := in.world(t, local, n, nil)
		unit := slot.Bind(local, wd.reqs, wd.sessions, wd.be)
		unit.Run(stream, nil, nil, nil)
		eng.Run()
		want, _ := hostScratch(in.w, local, in.world(t, local, n, nil))
		assertSameBytes(t, sp.Name, unit.Responses(), want)
	}
	if len(classes) != 4 {
		t.Fatalf("banking spans %d size classes, want 4", len(classes))
	}
	if got := slot.Scratches(); got != n {
		t.Fatalf("slot holds %d lane execution contexts over %d classes, want %d", got, len(classes), n)
	}
	if got := service.ExecSlots(slot); got != 1 {
		t.Fatalf("slot holds %d sets of backend buffers over %d classes, want 1", got, len(classes))
	}
}

// TestRegistrySlotsShareOneExecutionSlot: a registry's slot set is one
// execution slot. Bound in turn to a banking, an ecom and a telemetry
// type, and back, it reuses one set of lane mirrors and backend buffers
// on a device that backs no memory, and every unit, read before the next
// Bind on any workload's Slot, renders what the scalar path does.
func TestRegistrySlotsShareOneExecutionSlot(t *testing.T) {
	ins := []input{bankingInput, ecomInput, telemetryInput}
	reg := service.NewRegistry(bankingInput.w, ecomInput.w, telemetryInput.w)
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 0, nil)
	slots := reg.NewSlots(dev, n, service.Live)
	stream := dev.NewStream()
	for _, step := range []struct{ w, local int }{
		{0, int(banking.Profile)}, {1, ecom.Checkout}, {2, telemetry.Poll},
		{0, int(banking.Login)}, {2, telemetry.Ingest}, {1, ecom.Browse},
	} {
		in := ins[step.w]
		wd := in.world(t, step.local, n, nil)
		unit := slots[step.w].Bind(step.local, wd.reqs, wd.sessions, wd.be)
		unit.Run(stream, nil, nil, nil)
		eng.Run()
		want, _ := hostScratch(in.w, step.local, in.world(t, step.local, n, nil))
		assertSameBytes(t, in.name+"/"+in.w.Types()[step.local].Name, unit.Responses(), want)
	}
	if got := slots[0].Scratches(); got != n {
		t.Fatalf("slot set holds %d lane execution contexts, want %d", got, n)
	}
	if got := service.ExecSlots(slots...); got != 1 {
		t.Fatalf("slot set holds %d sets of lane mirrors and backend buffers, want 1", got)
	}
}

// recording is a backend that files every request under the lane it is
// told it serves.
type recording struct {
	service.Backend
	lane int
	reqs map[int][]string
}

func (b *recording) Handle(dst, req []byte) []byte {
	b.reqs[b.lane] = append(b.reqs[b.lane], string(req))
	return b.Backend.Handle(dst, req)
}

// Reads is false: the record is state, so calls must not overlap.
func (b *recording) Reads([]byte) bool { return false }

// TestTitanARoundTripSendsScalarRequests: on one Titan A slot, a 64
// KB-class cohort with long backend requests, then an 8 KB-class cohort
// with shorter ones in the same lane buffers. The host round trip sends
// each lane exactly the requests the scalar path sends, with nothing
// left over from the longer ones, and the answers it leaves in the lanes
// render the scalar path's pages.
func TestTitanARoundTripSendsScalarRequests(t *testing.T) {
	in := bankingInput
	v := service.Live
	v.Platform = service.TitanA
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 0, nil)
	slot := in.w.NewSlot(dev, n, v)
	stream := dev.NewStream()
	var longest []int // lane r's longest backend request of the first cohort
	for _, local := range []int{int(banking.PostPayee), int(banking.Login)} {
		name := in.w.Types()[local].Name
		wd := in.world(t, local, n, nil)
		dreqs := &recording{Backend: wd.be, reqs: map[int][]string{}}
		unit := slot.Bind(local, wd.reqs, wd.sessions, dreqs)
		unit.Run(stream, func(reply func()) {
			for r := 0; r < n; r++ {
				if unit.Active(r) {
					dreqs.lane = r
					unit.ServeBackend(r)
				}
			}
			reply()
		}, nil, nil)
		eng.Run()

		host := in.world(t, local, n, nil)
		hreqs := &recording{Backend: host.be, reqs: map[int][]string{}}
		host.be = hreqs
		sc := service.NewScratch()
		var want [][]byte
		for i := range host.reqs {
			hreqs.lane = i
			in.w.ExecuteScratch(sc, local, &host.reqs[i], host.sessions, host.be, true)
			want = append(want, sc.Render(make([]byte, in.w.Def(local).BufferBytes)))
		}
		assertSameBytes(t, name, unit.Responses(), want)
		for r := 0; r < n; r++ {
			if !slices.Equal(dreqs.reqs[r], hreqs.reqs[r]) {
				t.Fatalf("%s: lane %d sent %q to the host backend, the scalar path %q", name, r, dreqs.reqs[r], hreqs.reqs[r])
			}
		}
		if longest == nil {
			for r := 0; r < n; r++ {
				longest = append(longest, 0)
				for _, req := range dreqs.reqs[r] {
					longest[r] = max(longest[r], len(req))
				}
			}
			continue
		}
		for r := 0; r < n; r++ {
			if len(dreqs.reqs[r]) == 0 || len(dreqs.reqs[r][0]) >= longest[r] {
				t.Fatalf("%s: lane %d's first request is not shorter than the first cohort's %d bytes; a leftover tail would go unseen", name, r, longest[r])
			}
		}
	}
}

// bloated answers every third request with more than a response slot
// holds.
type bloated struct {
	service.Backend
	calls int
}

func (b *bloated) Handle(dst, req []byte) []byte {
	b.calls++
	if b.calls%3 == 0 {
		return append(dst, bytes.Repeat([]byte("OK\n"), service.BackendResponseSlot/3+1)...)
	}
	return b.Backend.Handle(dst, req)
}

// Reads is false: which call bloats depends on the calls before it.
func (b *bloated) Reads([]byte) bool { return false }

// TestOversizeBackendSlotsFailTheLane: a backend request over 1 KB or a
// backend response over 4 KB is the lane's error on the device exactly
// as it is the request's on the host — the same error page, nothing
// truncated into a neighbouring slot, the other lanes untouched.
func TestOversizeBackendSlotsFailTheLane(t *testing.T) {
	long := func(i int) bool { return i%4 == 1 }
	logins := func() world {
		wd := bankingWorld(t, int(banking.Login), n, nil)
		for i := range wd.reqs {
			if long(i) {
				body := "userid=77&passwd=" + strings.Repeat("x", service.BackendRequestSlot)
				wd.reqs[i] = parse(t, fmt.Sprintf("POST /login.php HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
			}
		}
		return wd
	}
	dev := runDevice(t, bankingInput.w, int(banking.Login), logins(), service.Live, false)
	want, wantFailed := runHost(bankingInput.w, int(banking.Login), logins(), true)
	assertSameBytes(t, "oversize request", dev.resps, want)
	for i := range want {
		if dev.failed[i] != long(i) || wantFailed[i] != long(i) {
			t.Fatalf("oversize request: lane %d failed=%v on the device, %v on the host, want %v", i, dev.failed[i], wantFailed[i], long(i))
		}
		if long(i) && !bytes.Contains(want[i], []byte("backend request too large")) {
			t.Fatalf("oversize request: lane %d's page does not say why it failed", i)
		}
	}

	for _, in := range inputs {
		wrapped := func() world {
			wd := in.world(t, in.page, n, nil)
			wd.be = &bloated{Backend: wd.be}
			return wd
		}
		dev := runDevice(t, in.w, in.page, wrapped(), service.Live, false)
		want, wantFailed := runHost(in.w, in.page, wrapped(), true)
		assertSameBytes(t, in.name+": oversize response", dev.resps, want)
		for i := range want {
			if overflow := i%3 == 2; dev.failed[i] != overflow || wantFailed[i] != overflow {
				t.Fatalf("%s: oversize response: lane %d failed=%v on the device, %v on the host, want %v", in.name, i, dev.failed[i], wantFailed[i], overflow)
			}
		}
	}
}

// TestVariantsKeepHostBytes: each ablation value and each platform
// changes how the cohort's memory is laid out and moved, never what is
// rendered; and turning padding off makes the final kernel's stores
// scatter (§4.3.2) — on any workload, not only banking.
func TestVariantsKeepHostBytes(t *testing.T) {
	variants := map[string]service.Variant{
		"unpadded":  {ColMajor: true},
		"row-major": {Padding: true},
		"titan-a":   {Platform: service.TitanA, Padding: true, ColMajor: true},
		"titan-c":   {Platform: service.TitanC, Padding: true, ColMajor: true},
	}
	for _, in := range inputs {
		local := in.page
		padded := runDevice(t, in.w, local, in.world(t, local, n, nil), service.Live, false)
		for name, v := range variants {
			what := in.name + "/" + name
			dev := runDevice(t, in.w, local, in.world(t, local, n, nil), v, false)
			want, _ := runHost(in.w, local, in.world(t, local, n, nil), v.Padding)
			assertSameBytes(t, what, dev.resps, want)
			last := len(dev.launches) - 1
			got, ref := dev.launches[last].Transactions, padded.launches[last].Transactions
			switch name {
			case "unpadded", "row-major":
				if got <= ref {
					t.Errorf("%s: %d transactions in the final kernel, want more than the padded column-major run's %d", what, got, ref)
				}
			case "titan-a", "titan-c":
				if got != ref {
					t.Errorf("%s: %d transactions in the final kernel, want the device-backend run's %d", what, got, ref)
				}
			}
		}
	}
}

// TestFootprintsDeclareSessionAccess: a stage kernel's declared
// footprint is what lets simt overlap it with other launches, so it must
// cover every session-array access of the type's SessionMode — above
// all the creating and deleting types' write, without which a logout
// could run concurrently with a lookup of the session it deletes — and
// only those: the session stage alone runs in lane order, every other
// stage of a creating type (login's TXNS and its page) on every worker.
func TestFootprintsDeclareSessionAccess(t *testing.T) {
	bank, shop := inputs[0], inputs[1]
	cases := []struct {
		in                    input
		local, stage          int
		reads, write, ordered bool
	}{
		{bank, int(banking.Logout), 0, false, true, true},
		{bank, int(banking.Login), 0, false, false, false},
		{bank, int(banking.Login), 1, false, true, true},
		{bank, int(banking.Login), 2, false, false, false},
		{bank, int(banking.AccountSummary), 0, true, false, false},
		{bank, int(banking.AccountSummary), 1, false, false, false},
		{shop, ecom.Cart, 0, false, true, true},
		{shop, ecom.Cart, 1, false, false, false},
		{shop, ecom.Index, 0, true, false, false},
		{shop, ecom.Index, 1, false, false, false},
	}
	dev := simt.NewDevice(sim.NewEngine(), simt.GTXTitan(), deviceMem, nil)
	for _, c := range cases {
		wd := c.in.world(t, c.local, 1, nil)
		unit := c.in.w.NewSlot(dev, 1, service.Live).Bind(c.local, wd.reqs, wd.sessions, wd.be)
		fp := unit.Stage(c.stage).(simt.Footprinter).LaunchFootprint()
		has := func(tokens []any) bool {
			for _, tok := range tokens {
				if tok == any(wd.sessions) {
					return true
				}
			}
			return false
		}
		if has(fp.Reads) != c.reads || has(fp.Writes) != c.write || fp.Ordered != c.ordered {
			t.Errorf("%s/%s stage %d: footprint reads=%v writes=%v ordered=%v of the session array, want %v/%v/%v",
				c.in.name, c.in.w.Def(c.local).Name, c.stage, has(fp.Reads), has(fp.Writes), fp.Ordered, c.reads, c.write, c.ordered)
		}
	}
}

// TestSessionChangeOutsideItsStagePanics: a type that creates its
// session in a stage other than the SessionStage it declares would run
// that create unordered and undeclared, a result that depends on the
// host schedule; it fails at once instead, on the host path and in the
// stage kernel.
func TestSessionChangeOutsideItsStagePanics(t *testing.T) {
	w := service.NewPageWorkload(service.PageWorkloadConfig{
		Name:       "misdeclared",
		CookieName: "SID",
		Defs: []service.SvcDef{{
			Name: "login", Path: "/login", Backends: 1, BufferBytes: 1 << 10,
			Session: service.SessionCreates, // SessionStage 0, yet stage 1 creates
			Stage: func(ctx *service.Ctx, stage int, bresp []byte) []byte {
				if stage == 0 {
					return []byte("PING")
				}
				ctx.CreateSession(7)
				return nil
			},
		}},
		NewBackend: func() service.Backend { return backend.New() },
	})
	reqs := []httpx.Request{parse(t, "GET /login HTTP/1.1\r\n\r\n")}
	panics := func(what string, run func()) {
		t.Helper()
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			run()
			return nil
		}()
		if !strings.Contains(fmt.Sprint(msg), "outside its declared SessionStage 0") {
			t.Errorf("%s: a create at stage 1 panicked with %v, want the undeclared stage named", what, msg)
		}
	}
	panics("host path", func() {
		w.ExecuteScratch(service.NewScratch(), 0, &reqs[0], session.NewArray(1, 4), backend.New(), true)
	})
	panics("stage kernel", func() {
		cfg := simt.GTXTitan()
		cfg.HostParallelism = 1 // the panic reaches this goroutine
		eng := sim.NewEngine()
		dev := simt.NewDevice(eng, cfg, deviceMem, nil)
		unit := w.NewSlot(dev, 1, service.Live).Bind(0, reqs, session.NewArray(1, 4), backend.New())
		unit.Run(dev.NewStream(), nil, nil, nil)
		eng.Run()
	})
}

// TestFillWithExactLength: FillWith emits its filler as pieces aliasing
// the prepared paragraph, yet builds the bytes, charges the instructions
// and records the emission blocks of the one Static fragment it stands
// for — whole paragraphs, then a comment or, under 9 bytes, spaces.
func TestFillWithExactLength(t *testing.T) {
	const para = "<p>some template prose</p>\n"
	filler := service.NewFiller(para)
	body := func(p *service.PageBuilder) string {
		var sb strings.Builder
		for _, piece := range p.Pieces() {
			sb.WriteString(piece.Data)
		}
		return sb.String()
	}
	for _, n := range []int{1, 5, 8, 9, 100, 555, 4096, 3*len(para) + 7, 40 * len(para), 5000 * len(para)} {
		want := strings.Repeat(para, n/len(para))
		if tail := n % len(para); tail >= 9 {
			want += "<!--" + strings.Repeat(".", tail-7) + "-->"
		} else {
			want += strings.Repeat(" ", tail)
		}
		var ref, got service.PageBuilder
		ref.Static("head")
		ref.Static(want)
		got.Static("head")
		got.FillWith(filler, 4+n)
		if got.Len() != 4+n || body(&got) != body(&ref) {
			t.Fatalf("FillWith(%d) built %d bytes, or not the fragment's", n, got.Len())
		}
		if got.Instr() != ref.Instr() || !slices.Equal(got.Blocks(), ref.Blocks()) {
			t.Fatalf("FillWith(%d) charged %d instructions over %d blocks, one fragment %d over %d",
				n, got.Instr(), len(got.Blocks()), ref.Instr(), len(ref.Blocks()))
		}
	}
}

// sized answers "n" with n bytes, in two appends (so an answer of up to
// a slot can still leave its buffer with more capacity than the slot).
type sized struct{}

func (sized) Handle(dst, req []byte) []byte {
	n, _ := strconv.Atoi(string(req))
	first := min(n, 2600)
	dst = append(dst, bytes.Repeat([]byte{'x'}, first)...)
	return append(dst, bytes.Repeat([]byte{'y'}, n-first)...)
}

func (sized) Reads([]byte) bool { return true }

func (sized) SetWriteHook(func(uint64)) {}

// TestOversizeAnswerIsOverflowOnBothPaths: a backend answer over 4 KB
// reaches the stage as "ERR response overflow" on the device, Titan A
// and B, exactly as on the host path, and the error pages are byte for
// byte the host's. Afterwards no lane keeps a response buffer larger
// than the slot, whether the answer overflowed or only its buffer grew.
func TestOversizeAnswerIsOverflowOnBothPaths(t *testing.T) {
	w := service.NewPageWorkload(service.PageWorkloadConfig{
		Name: "sized",
		Defs: []service.SvcDef{{
			Name: "echo", Path: "/echo", Backends: 2, BufferBytes: 1 << 10,
			Stage: func(ctx *service.Ctx, stage int, bresp []byte) []byte {
				if stage > 0 {
					if bytes.HasPrefix(bresp, []byte("ERR")) {
						ctx.Fail(string(bresp))
						return nil
					}
					ctx.Page.Dynamicf("%d %x\n", len(bresp), bresp[len(bresp)-1])
				}
				if stage < 2 {
					return []byte(ctx.Req.Param(fmt.Sprint("n", stage)))
				}
				return nil
			},
		}},
		NewBackend: func() service.Backend { return sized{} },
	})
	// Lane i's two answers; the first of an overflowing lane ends it.
	sizes := [][2]int{{100, 4000}, {5000, 1}, {4096, 4097}, {4000, 100}}
	overflows := func(i int) bool { s := sizes[i%len(sizes)]; return s[0] > 4096 || s[1] > 4096 }
	world := func() world {
		wd := world{sessions: session.NewArray(1, 1), be: sized{}}
		for i := 0; i < n; i++ {
			s := sizes[i%len(sizes)]
			wd.reqs = append(wd.reqs, parse(t, fmt.Sprintf("GET /echo?n0=%d&n1=%d HTTP/1.1\r\n\r\n", s[0], s[1])))
		}
		return wd
	}
	want, wantFailed := runHost(w, 0, world(), true)
	for i := range want {
		if wantFailed[i] != overflows(i) || overflows(i) != bytes.Contains(want[i], []byte("ERR response overflow")) {
			t.Fatalf("host: lane %d failed=%v, want %v, with the overflow named", i, wantFailed[i], overflows(i))
		}
	}
	for _, p := range []service.Platform{service.TitanB, service.TitanA} {
		v := service.Live
		v.Platform = p
		dev := runDevice(t, w, 0, world(), v, false)
		assertSameBytes(t, p.String(), dev.resps, want)
		for i := range want {
			if dev.failed[i] != wantFailed[i] {
				t.Fatalf("%v: lane %d failed=%v on the device, %v on the host", p, i, dev.failed[i], wantFailed[i])
			}
			if c := dev.unit.BackendResponseCap(i); c > service.BackendResponseSlot {
				t.Fatalf("%v: lane %d keeps a %d-byte response buffer, more than the %d-byte slot", p, i, c, service.BackendResponseSlot)
			}
		}
	}
}
