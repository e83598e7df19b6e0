package banking

import (
	"bytes"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// kernelRig wires a device, sessions, and generator for direct kernel
// tests (the pipeline package tests the full flow; these pin the kernel
// contracts in isolation).
type kernelRig struct {
	eng      *sim.Engine
	dev      *simt.Device
	db       *backend.DB
	sessions *session.Array
	gen      *Generator
}

func newKernelRig(t *testing.T, memBytes int) *kernelRig {
	t.Helper()
	eng := sim.NewEngine()
	r := &kernelRig{
		eng:      eng,
		dev:      simt.NewDevice(eng, simt.GTXTitan(), memBytes, nil),
		db:       backend.New(),
		sessions: session.NewArray(256, 64),
	}
	r.gen = NewGenerator(9, r.sessions)
	r.gen.Populate(256)
	return r
}

func TestParserKernelColumnMajor(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	const n = 48
	pb := NewParseBatch(rig.dev, n)
	pb.Reset(n)
	raws := make([][]byte, n)
	for i := range raws {
		switch i % 3 {
		case 0:
			raws[i] = rig.gen.Request(Transfer)
		case 1:
			raws[i] = rig.gen.Request(Login)
		default:
			raws[i] = ImageRequest(i)
		}
	}
	rig.dev.Mem.Write(pb.Buf, PackRequests(raws))
	mem.TransposeElems(rig.dev.Mem, pb.ColBuf, pb.Buf, n, RequestSlot/4, 4)

	var ls simt.LaunchStats
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: true}), n, nil,
		func(s simt.LaunchStats) { ls = s })
	rig.eng.Run()

	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			if pb.Errs[i] != nil || pb.Types[i] != Transfer {
				t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
			}
		case 1:
			if pb.Errs[i] != nil || pb.Types[i] != Login {
				t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
			}
			if pb.Reqs[i].Param("userid") == "" {
				t.Fatalf("req %d: login params not extracted", i)
			}
		default:
			if !pb.IsImage[i] {
				t.Fatalf("req %d: image not recognized", i)
			}
		}
	}
	// Three request kinds in one cohort: the parser must have diverged.
	if ls.DivergentExec == 0 {
		t.Fatal("mixed parse reported no divergence")
	}
}

func TestParserKernelRowMajor(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	const n = 8
	pb := NewParseBatch(rig.dev, n)
	pb.Reset(n)
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = rig.gen.Request(Profile)
	}
	rig.dev.Mem.Write(pb.Buf, PackRequests(raws))
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: false}), n, nil, nil)
	rig.eng.Run()
	for i := 0; i < n; i++ {
		if pb.Errs[i] != nil || pb.Types[i] != Profile {
			t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
		}
	}
}

func TestParserKernelMalformed(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	pb := NewParseBatch(rig.dev, 2)
	pb.Reset(2)
	rig.dev.Mem.Write(pb.Buf, PackRequests([][]byte{
		[]byte("NONSENSE"),
		[]byte("GET /not-a-page HTTP/1.1\r\n\r\n"),
	}))
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: false}), 2, nil, nil)
	rig.eng.Run()
	if pb.Errs[0] == nil || pb.Errs[1] == nil {
		t.Fatalf("errors not recorded: %v %v", pb.Errs[0], pb.Errs[1])
	}
}

// runStageKernels drives a typed cohort through every process stage with
// a chained device backend and returns the cohort.
func (rig *kernelRig) runStageKernels(t *testing.T, rt ReqType, n int) *DeviceCohort {
	t.Helper()
	dc := NewDeviceCohort(rig.dev, rt, n)
	dc.Reset(n)
	for i := 0; i < n; i++ {
		req, err := httpx.Parse(rig.gen.Request(rt))
		if err != nil {
			t.Fatal(err)
		}
		dc.Reqs[i] = req
	}
	svc := ServiceFor(rt)
	stream := rig.dev.NewStream()
	for k := 0; k <= svc.Spec.Backends; k++ {
		stream.Launch(NewStageProgram(StageArgs{
			Cohort: dc, Service: svc, Stage: k,
			Sessions: rig.sessions, Padding: true, ColMajor: true, Besim: rig.db,
		}), n, nil, nil)
	}
	rig.eng.Run()
	return dc
}

func TestStageKernelsProduceValidResponses(t *testing.T) {
	rig := newKernelRig(t, 256<<20)
	const n = 32
	dc := rig.runStageKernels(t, AccountSummary, n)
	// Un-transpose and validate every response.
	mem.TransposeElems(rig.dev.Mem, dc.RespRow, dc.RespCol, dc.Spec.BufferBytes()/4, n, 4)
	for i := 0; i < n; i++ {
		if dc.Ctxs[i].Err != "" {
			t.Fatalf("req %d: %s", i, dc.Ctxs[i].Err)
		}
		resp := rig.dev.Mem.Read(dc.RespRow+mem.Addr(i*dc.Spec.BufferBytes()), dc.Spec.BufferBytes())
		if err := Validate(AccountSummary, resp); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
}

func TestStageKernelQuickPayEarlyRetirement(t *testing.T) {
	rig := newKernelRig(t, 128<<20)
	const n = 32
	dc := rig.runStageKernels(t, QuickPay, n)
	early, full := 0, 0
	for i := 0; i < n; i++ {
		ctx := dc.Ctxs[i]
		if ctx.Err != "" {
			t.Fatalf("req %d: %s", i, ctx.Err)
		}
		if !ctx.Done {
			t.Fatalf("req %d never finished", i)
		}
		st := ctx.Data.(*quickPayState)
		if len(st.confs) != len(st.payees) {
			t.Fatalf("req %d: %d confs for %d payees", i, len(st.confs), len(st.payees))
		}
		if len(st.payees) < 3 {
			early++
		} else {
			full++
		}
	}
	if early == 0 || full == 0 {
		t.Fatalf("want a mix of early/full retirements, got %d/%d", early, full)
	}
}

func TestBindRejectsWrongClass(t *testing.T) {
	rig := newKernelRig(t, 64<<20)
	dc := NewDeviceCohortClass(rig.dev, 16<<10, 8)
	dc.Bind(Transfer) // 16 KB buffers: fits
	defer func() {
		if recover() == nil {
			t.Error("binding a 32 KB type to a 16 KB class did not panic")
		}
	}()
	dc.Bind(AccountSummary)
}

func TestCohortDeviceBytesAccounting(t *testing.T) {
	if CohortDeviceBytes(Logout, 4096) <= CohortDeviceBytes(Login, 4096) {
		t.Fatal("64 KB buffers must dominate 8 KB buffers")
	}
	all := AllClassesDeviceBytes(1024)
	var classes int64
	for _, c := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		classes += ClassDeviceBytes(c, 1024)
	}
	if all != classes {
		t.Fatalf("AllClassesDeviceBytes = %d, want %d", all, classes)
	}
}

func TestStoreColumnUnalignedOffsets(t *testing.T) {
	// StoreColumn must write correct bytes at any byte offset; the
	// aligned fast path and the partial-word paths must agree.
	rig := newKernelRig(t, 8<<20)
	const rows = 8
	buf := rig.dev.Mem.Alloc(rows*64, 256)
	payload := []byte("unaligned-payload!")
	rig.dev.NewStream().Launch(simt.FuncProgram{Label: "uw", Body: func(th *simt.Thread) {
		simt.StoreColumn(th, buf, th.ID, rows, 3+th.ID%4, payload)
	}}, rows, nil, nil)
	rig.eng.Run()
	// Un-interleave and check each row.
	for r := 0; r < rows; r++ {
		start := 3 + r%4
		got := make([]byte, len(payload))
		for i := range got {
			off := start + i
			got[i] = rig.dev.Mem.Bytes(buf+mem.Addr((off/4)*(4*rows)+4*r+off%4), 1)[0]
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("row %d: %q", r, got)
		}
	}
}

// blankStoreStage is stageProgram with the device-backend block as it
// was before ChargeColumn: store a zeroed response slot to price it,
// then overwrite it from the deferred callback.
type blankStoreStage struct{ stageProgram }

func (p blankStoreStage) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	if b != 2 {
		return p.stageProgram.Exec(b, t)
	}
	a, dc, r := p.args, p.args.Cohort, t.ID
	breq := simt.LoadColumn(t, dc.BReqBuf, r, dc.Size, backend.RequestSlot)
	t.Compute(besimDeviceOps)
	simt.StoreColumn(t, dc.BRespBuf, r, dc.Size, 0, make([]byte, backend.ResponseSlot))
	m := t.Mem()
	t.Defer(func() {
		slot := make([]byte, backend.ResponseSlot)
		copy(slot, a.Besim.Handle(breq))
		simt.WriteColumnRaw(m, dc.BRespBuf, r, dc.Size, slot)
	})
	return simt.Halt
}

// TestPriceOnlyBackendStoreMatchesBlankStore: pricing the backend
// response store without moving a blank slot changes no simulated
// number and no byte, on a two-stage cohort with a partial last warp.
func TestPriceOnlyBackendStoreMatchesBlankStore(t *testing.T) {
	const n = 40
	run := func(blank bool) ([]simt.LaunchStats, simt.DeviceStats, []byte, []byte) {
		rig := newKernelRig(t, 64<<20)
		dc := NewDeviceCohort(rig.dev, Transfer, n)
		dc.Reset(n)
		for i := 0; i < n; i++ {
			req, err := httpx.Parse(rig.gen.Request(Transfer))
			if err != nil {
				t.Fatal(err)
			}
			dc.Reqs[i] = req
		}
		svc := ServiceFor(Transfer)
		if svc.Spec.Backends < 1 {
			t.Fatal("want a type with a backend stage")
		}
		var launches []simt.LaunchStats
		stream := rig.dev.NewStream()
		for k := 0; k <= svc.Spec.Backends; k++ {
			prog := NewStageProgram(StageArgs{
				Cohort: dc, Service: svc, Stage: k,
				Sessions: rig.sessions, Padding: true, ColMajor: true, Besim: rig.db,
			})
			if blank {
				prog = blankStoreStage{prog.(stageProgram)}
			}
			stream.Launch(prog, n, nil, func(ls simt.LaunchStats) { launches = append(launches, ls) })
		}
		rig.eng.Run()
		return launches, rig.dev.Stats(),
			rig.dev.Mem.Read(dc.BRespBuf, n*backend.ResponseSlot),
			rig.dev.Mem.Read(dc.RespCol, n*dc.Spec.BufferBytes())
	}
	blankLS, blankDS, blankBResp, blankResp := run(true)
	priceLS, priceDS, priceBResp, priceResp := run(false)
	if len(priceLS) < 2 || len(priceLS) != len(blankLS) {
		t.Fatalf("%d launches against %d", len(priceLS), len(blankLS))
	}
	for i := range priceLS {
		if priceLS[i] != blankLS[i] {
			t.Fatalf("launch %d stats differ:\n  blank store: %+v\n  price only:  %+v", i, blankLS[i], priceLS[i])
		}
	}
	if priceDS != blankDS {
		t.Fatalf("DeviceStats differ:\n  blank store: %+v\n  price only:  %+v", blankDS, priceDS)
	}
	if !bytes.Equal(priceBResp, blankBResp) || !bytes.Equal(priceResp, blankResp) {
		t.Fatal("device memory differs")
	}
}
