package service_test

import (
	"bytes"
	"fmt"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/ecom"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
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
// case runs over a banking type and an ecom type.
type input struct {
	name string
	w    *service.PageWorkload
	// page is a session'd read with variable-length dynamic sections,
	// write a one-backend type, variable a VariableStages type.
	page, write, variable int
	// world builds n requests of `local` (bad marks lanes that must take
	// the error path).
	world func(t *testing.T, local, n int, bad func(i int) bool) world
}

func parse(t *testing.T, raw string) httpx.Request {
	t.Helper()
	req, err := httpx.Parse([]byte(raw))
	if err != nil {
		t.Fatalf("parse %q: %v", raw, err)
	}
	return req
}

func bankingWorld(t *testing.T, local, n int, bad func(int) bool) world {
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

func ecomWorld(t *testing.T, local, n int, bad func(int) bool) world {
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
			sid, ok := wd.sessions.Create(uid)
			if !ok {
				t.Fatal("session table full")
			}
			if i%3 != 0 {
				store.Handle([]byte(fmt.Sprintf("ADDCART %d %d 2", uid, i*31)))
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

var inputs = []input{
	{name: "banking", w: banking.NewWorkload(), world: bankingWorld,
		page: int(banking.AccountSummary), write: int(banking.Transfer), variable: int(banking.QuickPay)},
	{name: "ecom", w: ecom.New(), world: ecomWorld,
		page: ecom.Browse, write: ecom.Browse, variable: ecom.Checkout},
}

// counting wraps a backend to count round trips.
type counting struct {
	service.Backend
	calls int
}

func (c *counting) Handle(req []byte) []byte {
	c.calls++
	return c.Backend.Handle(req)
}

// deviceRun is one cohort's trip through the stage kernels.
type deviceRun struct {
	resps    [][]byte
	failed   []bool
	launches []simt.LaunchStats
	stats    simt.DeviceStats
	image    []byte // the whole device memory
}

const deviceMem = 16 << 20

// runDevice binds wd's requests on a fresh device slot of variant v and
// launches the stage chain the way internal/cluster and
// internal/pipeline do. stage substitutes a kernel (nil = unit.Stage).
func runDevice(t *testing.T, w *service.PageWorkload, local int, wd world, v service.Variant, stage func(u service.Unit, k int) simt.Program) deviceRun {
	t.Helper()
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), deviceMem, nil)
	unit := w.NewSlot(dev, len(wd.reqs), v).Bind(local, wd.reqs, wd.sessions, wd.be).(*service.PageUnit)
	stream := dev.NewStream()
	n := len(wd.reqs)
	var run deviceRun
	var next func(k int)
	next = func(k int) {
		prog := unit.Stage(k)
		if stage != nil {
			prog = stage(unit, k)
		}
		stream.Launch(prog, n, nil, func(ls simt.LaunchStats) {
			run.launches = append(run.launches, ls)
			switch {
			case k == unit.Stages()-1:
				unit.Writeback(stream)
			case v.HostBackend:
				// The Titan A round trip, served synchronously.
				unit.BackendRequestsD2H(stream, func(image []byte) {
					out := make([]byte, n*service.BackendResponseSlot)
					for r := 0; r < n; r++ {
						if unit.Active(r) {
							copy(out[r*service.BackendResponseSlot:], wd.be.Handle(image[r*service.BackendRequestSlot:(r+1)*service.BackendRequestSlot]))
						}
					}
					unit.BackendResponsesH2D(stream, out)
					stream.Barrier(func() { next(k + 1) })
				})
			default:
				next(k + 1)
			}
		})
	}
	next(0)
	eng.Run()
	for i := 0; i < n; i++ {
		run.resps = append(run.resps, unit.Response(i))
		run.failed = append(run.failed, unit.Failed(i))
	}
	run.stats = dev.Stats()
	run.image = dev.Mem.Read(0, deviceMem)
	return run
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
			dev := runDevice(t, in.w, local, in.world(t, local, n, nil), service.TitanB, nil)
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
		dev := runDevice(t, in.w, local, in.world(t, local, n, bad), service.TitanB, nil)
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
		dev := runDevice(t, in.w, local, devWorld, service.TitanB, nil)
		assertSameBytes(t, in.name, dev.resps, want)
		if be.calls != hostCalls {
			t.Errorf("%s: %d backend requests on the device, %d on the host", in.name, be.calls, hostCalls)
		}
	}
}

// TestPriceOnlyBackendStoreMatchesBlankStore: pricing the backend
// response store without moving a blank slot changes no simulated
// number and no byte of device memory.
func TestPriceOnlyBackendStoreMatchesBlankStore(t *testing.T) {
	for _, in := range inputs {
		local := in.write
		if in.w.Def(local).Backends < 1 {
			t.Fatal("want a type with a backend stage")
		}
		blank := runDevice(t, in.w, local, in.world(t, local, n, nil), service.TitanB, service.BlankStoreStage)
		price := runDevice(t, in.w, local, in.world(t, local, n, nil), service.TitanB, nil)
		if len(price.launches) < 2 || len(price.launches) != len(blank.launches) {
			t.Fatalf("%s: %d launches against %d", in.name, len(price.launches), len(blank.launches))
		}
		for i := range price.launches {
			if price.launches[i] != blank.launches[i] {
				t.Fatalf("%s: launch %d stats differ:\n  blank store: %+v\n  price only:  %+v", in.name, i, blank.launches[i], price.launches[i])
			}
		}
		if price.stats != blank.stats {
			t.Fatalf("%s: DeviceStats differ:\n  blank store: %+v\n  price only:  %+v", in.name, blank.stats, price.stats)
		}
		if !bytes.Equal(price.image, blank.image) {
			t.Fatalf("%s: device memory differs", in.name)
		}
	}
}

// TestVariantsKeepHostBytes: each of the three ablation values changes
// how the cohort's memory is laid out and moved, never what is
// rendered; and turning padding off makes the final kernel's stores
// scatter (§4.3.2) — on any workload, not only banking.
func TestVariantsKeepHostBytes(t *testing.T) {
	variants := map[string]service.Variant{
		"unpadded":     {ColMajor: true},
		"row-major":    {Padding: true},
		"host-backend": {Padding: true, ColMajor: true, HostBackend: true},
	}
	for _, in := range inputs {
		local := in.page
		padded := runDevice(t, in.w, local, in.world(t, local, n, nil), service.TitanB, nil)
		for name, v := range variants {
			what := in.name + "/" + name
			dev := runDevice(t, in.w, local, in.world(t, local, n, nil), v, nil)
			want, _ := runHost(in.w, local, in.world(t, local, n, nil), v.Padding)
			assertSameBytes(t, what, dev.resps, want)
			last := len(dev.launches) - 1
			got, ref := dev.launches[last].Transactions, padded.launches[last].Transactions
			switch name {
			case "unpadded", "row-major":
				if got <= ref {
					t.Errorf("%s: %d transactions in the final kernel, want more than the padded column-major run's %d", what, got, ref)
				}
			case "host-backend":
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
// all the deleting type's write, without which a logout could run
// concurrently with a lookup of the session it deletes.
func TestFootprintsDeclareSessionAccess(t *testing.T) {
	bank, shop := inputs[0], inputs[1]
	cases := []struct {
		in           input
		local, stage int
		reads, write bool
	}{
		{bank, int(banking.Logout), 0, false, true},
		{bank, int(banking.Login), 1, false, true},
		{bank, int(banking.AccountSummary), 0, true, false},
		{bank, int(banking.AccountSummary), 1, false, false},
		{shop, ecom.Cart, 0, false, true},
		{shop, ecom.Index, 0, true, false},
		{shop, ecom.Index, 1, false, false},
	}
	dev := simt.NewDevice(sim.NewEngine(), simt.GTXTitan(), deviceMem, nil)
	for _, c := range cases {
		wd := c.in.world(t, c.local, 1, nil)
		unit := c.in.w.NewSlot(dev, 1, service.TitanB).Bind(c.local, wd.reqs, wd.sessions, wd.be)
		fp := unit.Stage(c.stage).(simt.Footprinter).LaunchFootprint()
		has := func(tokens []any) bool {
			for _, tok := range tokens {
				if tok == any(wd.sessions) {
					return true
				}
			}
			return false
		}
		if has(fp.Reads) != c.reads || has(fp.Writes) != c.write {
			t.Errorf("%s/%s stage %d: footprint reads=%v writes=%v of the session array, want %v/%v",
				c.in.name, c.in.w.Def(c.local).Name, c.stage, has(fp.Reads), has(fp.Writes), c.reads, c.write)
		}
	}
}

func TestFillWithExactLength(t *testing.T) {
	for _, n := range []int{1, 5, 9, 100, 555, 4096} {
		var p service.PageBuilder
		p.FillWith("<p>some template prose</p>\n", n)
		if p.Len() != n {
			t.Fatalf("FillWith(%d) built %d bytes", n, p.Len())
		}
	}
}
