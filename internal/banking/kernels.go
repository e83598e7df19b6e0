package banking

import (
	"fmt"
	"sync"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// This file implements the Banking workload as SIMT kernels: the parser
// and the per-type process stages, operating on cohort buffers in device
// memory. The stage logic is the same Go code the host baseline runs
// (services.go); what differs is the memory traffic — word-interleaved
// column-major cohort buffers accessed in lockstep — and the cost
// accounting the simulator performs on it.

// Device-side cost constants.
const (
	// parseOpsPerByte prices the parser's byte scan.
	parseOpsPerByte = 3
	// besimDeviceOps prices one on-device backend lookup (Titan B/C run
	// Besim as a device kernel, §5.3.2).
	besimDeviceOps = 8000
	// sessionOps prices a session-array lookup beyond the atomics.
	sessionOps = 64
)

// wordSize is the column interleaving granularity (simt.WordSize).
const wordSize = simt.WordSize

// ParseBatch is a reader batch on the device: raw request bytes in a
// Size×RequestSlot buffer plus the parsed-record mirror the parser kernel
// fills (the paper synchronizes host and device cohort contexts at the
// parser, §4.1).
type ParseBatch struct {
	Buf    mem.Addr // Size × RequestSlot, row-major as it arrives from the NIC
	ColBuf mem.Addr // word-interleaved copy the parser reads in ColMajor mode
	Size   int
	Count  int
	Reqs   []httpx.Request
	Errs   []error // per-request parse outcome, nil when OK
	Types  []ReqType
	// IsImage marks static-asset requests; they form image cohorts that
	// bypass the process stage (§5.1).
	IsImage []bool
}

// NewParseBatch allocates a reader batch of `size` request slots.
func NewParseBatch(d *simt.Device, size int) *ParseBatch {
	return &ParseBatch{
		Buf:     d.Mem.Alloc(size*RequestSlot, 256),
		ColBuf:  d.Mem.Alloc(size*RequestSlot, 256),
		Size:    size,
		Reqs:    make([]httpx.Request, size),
		Errs:    make([]error, size),
		Types:   make([]ReqType, size),
		IsImage: make([]bool, size),
	}
}

// Reset prepares the batch for count fresh requests.
func (pb *ParseBatch) Reset(count int) {
	if count <= 0 || count > pb.Size {
		panic(fmt.Sprintf("banking: batch count %d out of range (size %d)", count, pb.Size))
	}
	pb.Count = count
	for i := 0; i < count; i++ {
		pb.Reqs[i] = httpx.Request{}
		pb.Errs[i] = nil
		pb.Types[i] = -1
		pb.IsImage[i] = false
	}
}

// DeviceCohort is the device-resident geometry of one typed process
// cohort plus its host mirror. Size is the slot capacity; Count the live
// requests. The request records arrive pre-parsed from dispatch.
type DeviceCohort struct {
	Spec  Spec
	Size  int
	Count int

	// Device buffers, column-major word-interleaved while on the device.
	// RespRow receives the response transpose (§4.3.2); in row-major mode
	// (the transpose ablation) it is written directly. BReqRow/BRespRow
	// stage the backend transposes a remote (host) backend needs —
	// "A local device backend also avoids the need to transpose the
	// backend request and response data" (§5.3.2).
	BReqBuf  mem.Addr
	BReqRow  mem.Addr
	BRespBuf mem.Addr
	BRespRow mem.Addr
	RespCol  mem.Addr
	RespRow  mem.Addr

	// class is the response-buffer size this cohort was allocated for.
	class int

	// Host mirrors.
	Reqs []httpx.Request
	Ctxs []*Ctx

	// stageInstr tracks each request's charged instructions at the last
	// stage boundary, so stage kernels charge only their delta.
	stageInstr []int64

	// scratch pools render buffers: emit runs concurrently across warps
	// (simt.Config.HostParallelism > 1), so a single shared buffer would
	// race; a pool keeps the no-allocation steady state of the old
	// lane-by-lane reuse without sharing a live buffer between workers.
	scratch sync.Pool
}

// NewDeviceCohort allocates the device buffers for a cohort of `size`
// slots of request type t.
func NewDeviceCohort(d *simt.Device, t ReqType, size int) *DeviceCohort {
	dc := NewDeviceCohortClass(d, Specs[t].BufferBytes(), size)
	dc.Bind(t)
	return dc
}

// NewDeviceCohortClass allocates cohort buffers for a response-buffer
// size class (8/16/32/64 KB). A class cohort can be re-Bound to any
// request type whose Rhythm buffer fits, so a pipeline context needs at
// most one buffer set per class rather than per type.
func NewDeviceCohortClass(d *simt.Device, bufBytes, size int) *DeviceCohort {
	dc := &DeviceCohort{
		Size:       size,
		class:      bufBytes,
		BReqBuf:    d.Mem.Alloc(size*backend.RequestSlot, 256),
		BReqRow:    d.Mem.Alloc(size*backend.RequestSlot, 256),
		BRespBuf:   d.Mem.Alloc(size*backend.ResponseSlot, 256),
		BRespRow:   d.Mem.Alloc(size*backend.ResponseSlot, 256),
		RespCol:    d.Mem.Alloc(size*bufBytes, 256),
		RespRow:    d.Mem.Alloc(size*bufBytes, 256),
		Reqs:       make([]httpx.Request, size),
		Ctxs:       make([]*Ctx, size),
		stageInstr: make([]int64, size),
	}
	dc.scratch.New = func() any { return make([]byte, bufBytes) }
	return dc
}

// Bind points the cohort at a request type. The type's buffer must match
// the cohort's size class exactly (cohort geometry is derived from it).
func (dc *DeviceCohort) Bind(t ReqType) {
	spec := Specs[t]
	if spec.BufferBytes() != dc.class {
		panic(fmt.Sprintf("banking: cannot bind %s (%d B buffers) to a %d B class cohort",
			spec.Name, spec.BufferBytes(), dc.class))
	}
	dc.Spec = spec
}

// CohortDeviceBytes reports the device memory one cohort of `size` slots
// of type t occupies (used by the §6.3 capacity analysis).
func CohortDeviceBytes(t ReqType, size int) int64 {
	return int64(size) * int64(RequestSlot+2*backend.RequestSlot+2*backend.ResponseSlot+2*Specs[t].BufferBytes())
}

// ClassDeviceBytes reports the device memory one class cohort of `size`
// slots occupies.
func ClassDeviceBytes(class, size int) int64 {
	return int64(size) * int64(2*class+2*(backend.RequestSlot+backend.ResponseSlot))
}

// AllClassesDeviceBytes reports the device memory one pipeline context
// needs to serve every request type: one cohort per distinct buffer
// class.
func AllClassesDeviceBytes(size int) int64 {
	seen := map[int]bool{}
	var total int64
	for _, s := range Specs {
		c := s.BufferBytes()
		if !seen[c] {
			seen[c] = true
			total += ClassDeviceBytes(c, size)
		}
	}
	return total
}

// Reset prepares the cohort for a new batch of count requests.
func (dc *DeviceCohort) Reset(count int) {
	if count <= 0 || count > dc.Size {
		panic(fmt.Sprintf("banking: cohort count %d out of range (size %d)", count, dc.Size))
	}
	dc.Count = count
	for i := 0; i < count; i++ {
		dc.Reqs[i] = httpx.Request{}
		dc.Ctxs[i] = nil
		dc.stageInstr[i] = 0
	}
}

// ResponseRow returns a copy of request r's rendered response from the
// row-major response buffer. Responses have the fixed geometry of
// Spec.BufferBytes(), so no length bookkeeping is needed; the copy is
// safe to hand to another goroutine. Valid after the response transpose
// (or directly after the final stage in row-major mode).
func (dc *DeviceCohort) ResponseRow(m *mem.Memory, r int) []byte {
	if r < 0 || r >= dc.Count {
		panic(fmt.Sprintf("banking: response row %d out of range (count %d)", r, dc.Count))
	}
	buf := dc.Spec.BufferBytes()
	return m.Read(dc.RespRow+mem.Addr(r*buf), buf)
}

// storeRow writes data at byte offset start of request r's row-major slot
// (slot size rowBytes), as the per-word loop a thread would execute —
// the uncoalesced layout the transpose ablation measures.
func storeRow(t *simt.Thread, buf mem.Addr, r, rowBytes, start int, data []byte) {
	if len(data) == 0 {
		return
	}
	addr := buf + mem.Addr(r*rowBytes+start)
	n := len(data) / wordSize * wordSize
	if n > 0 {
		t.StoreStrided(addr, data[:n], wordSize, wordSize)
	}
	if n < len(data) {
		t.Store(addr+mem.Addr(n), data[n:])
	}
}

// ParserArgs configures the parser kernel.
type ParserArgs struct {
	Batch    *ParseBatch
	ColMajor bool // request buffer layout
}

// parserProgram implements the Parser stage (§3.2): extract method,
// resource, content length, cookies and query parameters for every
// request of the batch. Block 1+type is type-specific extraction, so a
// mixed cohort diverges across the types present — the effect §6.4
// measures.
type parserProgram struct{ args ParserArgs }

// NewParserProgram returns the parser kernel for a reader batch.
func NewParserProgram(args ParserArgs) simt.Program { return parserProgram{args} }

func (parserProgram) Name() string        { return "rhythm_parse" }
func (parserProgram) Entry() simt.BlockID { return 0 }

// LaunchFootprint declares that parsing touches no shared host state —
// everything it writes (Reqs, Errs, Types, device columns) is private
// to its own batch — so parser launches may overlap with anything
// (simt.Footprinter; DESIGN.md §13).
func (parserProgram) LaunchFootprint() simt.Footprint { return simt.Footprint{} }

func (p parserProgram) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	pb := p.args.Batch
	r := t.ID
	switch {
	case b == 0: // scan the raw request
		var raw []byte
		if p.args.ColMajor {
			raw = simt.LoadColumn(t, pb.ColBuf, r, pb.Size, RequestSlot)
		} else {
			raw = t.Load(pb.Buf+mem.Addr(r*RequestSlot), RequestSlot)
		}
		req, err := httpx.Parse(raw)
		pb.Reqs[r] = req
		pb.Errs[r] = err
		t.Compute(req.ScanCost * parseOpsPerByte)
		if err != nil {
			return 200 // malformed-request path
		}
		rt, ok := ByPath(req.Path)
		if !ok {
			if IsImagePath(req.Path) {
				return 150 // image cohort path (§5.1)
			}
			pb.Errs[r] = fmt.Errorf("banking: unknown resource %q", req.Path)
			return 200
		}
		pb.Types[r] = rt
		return simt.BlockID(1 + int(rt))
	case b >= 1 && b < 1+simt.BlockID(NumTypes): // type-specific extraction
		req := &pb.Reqs[r]
		t.Compute(32 + 16*len(req.Params) + 16*len(req.Cookies))
		return 100
	case b == 150: // static asset: mark for the bypassing image cohort
		if _, ok := ImageResponse(pb.Reqs[r].Path); ok {
			pb.IsImage[r] = true
		} else {
			pb.Errs[r] = fmt.Errorf("banking: no such asset %q", pb.Reqs[r].Path)
		}
		t.Compute(16)
		return 100
	case b == 100: // write the parsed-request record (SoA store)
		t.Compute(8)
		t.Atomic(pb.Buf) // cohort-context occupancy update
		return simt.Halt
	case b == 200: // malformed request: mark error state (§4.4)
		t.Compute(4)
		return 100
	}
	panic("parser: bad block")
}

// StageArgs configures one process-stage kernel launch.
type StageArgs struct {
	Cohort   *DeviceCohort
	Service  *Service
	Stage    int
	Sessions *session.Array
	Padding  bool
	ColMajor bool
	// Besim, when non-nil, executes backend requests on the device
	// (Titan B/C); the stage kernel then chains directly into backend
	// execution. When nil (Titan A), the stage stores the backend request
	// for a host round trip.
	Besim *backend.DB
}

// stageProgram runs process stage Stage for every live request.
//
// Blocks: 0 = session/context prologue; 1 = stage body (backend request
// generation or page generation); 2 = on-device Besim (only when
// chained); 3 = response emission (final stage); 90 = error path. Error
// requests diverge from the cohort exactly as §4.4 describes.
type stageProgram struct{ args StageArgs }

// NewStageProgram returns the process kernel for one stage of a cohort.
func NewStageProgram(args StageArgs) simt.Program {
	if args.Stage < 0 || args.Stage > args.Service.Spec.Backends {
		panic(fmt.Sprintf("banking: stage %d out of range for %s", args.Stage, args.Service.Spec.Name))
	}
	return stageProgram{args}
}

func (p stageProgram) Name() string {
	return fmt.Sprintf("rhythm_%s_s%d", p.args.Service.Spec.Name, p.args.Stage)
}

func (stageProgram) Entry() simt.BlockID { return 0 }

// LaunchFootprint declares the one piece of shared host state a stage
// kernel touches during execution: the session array. Cohort contexts,
// device columns, and response buffers are private to the launch's own
// cohort, and all Besim database access happens inside Thread.Defer
// (replayed in the serial commit phase), so it needs no declaration
// (simt.Footprinter; DESIGN.md §13). The session sites are exactly
// three: the stage-0 prologue Lookup for session-bearing types
// (NewCtx), the logout Delete (stage 0, it has no backend stages), and
// the login Create in stage 1 (services.go loginStage case 1).
func (p stageProgram) LaunchFootprint() simt.Footprint {
	a := p.args
	switch {
	case a.Stage == 0 && a.Service.Spec.Type == Logout:
		return simt.Footprint{Writes: []any{a.Sessions}}
	case a.Stage == 0 && a.Service.NeedsSession:
		return simt.Footprint{Reads: []any{a.Sessions}}
	case a.Stage == 1 && a.Service.Spec.Type == Login:
		return simt.Footprint{Writes: []any{a.Sessions}}
	}
	return simt.Footprint{}
}

func (p stageProgram) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	a := p.args
	dc := a.Cohort
	r := t.ID
	switch b {
	case 0: // prologue: context / session resolution
		if a.Stage == 0 {
			t.Atomic(dc.BReqBuf)
			t.Compute(sessionOps)
			dc.Ctxs[r] = NewCtx(a.Service, &dc.Reqs[r], a.Sessions, a.Padding)
		} else if dc.Ctxs[r].Done {
			// A variable-stage request already finished and emitted; its
			// lane drops out of the rest of the cohort's kernels.
			return simt.Halt
		}
		if dc.Ctxs[r].Err != "" {
			return 90
		}
		return 1
	case 1: // stage body
		ctx := dc.Ctxs[r]
		var bresp []byte
		if a.Stage > 0 {
			bresp = simt.LoadColumn(t, dc.BRespBuf, r, dc.Size, backend.ResponseSlot)
		}
		breq := a.Service.Stage(ctx, a.Stage, bresp)
		p.chargeDelta(t, r)
		if ctx.Err != "" {
			return 90
		}
		if ctx.Done {
			return 3 // early completion: emit now (variable stages)
		}
		if a.Stage < a.Service.Spec.Backends {
			slot := make([]byte, backend.RequestSlot)
			copy(slot, breq)
			simt.StoreColumn(t, dc.BReqBuf, r, dc.Size, 0, slot)
			if a.Besim != nil {
				return 2
			}
			return simt.Halt // host backend round trip follows
		}
		return 3
	case 2: // on-device Besim (Titan B/C)
		breq := simt.LoadColumn(t, dc.BReqBuf, r, dc.Size, backend.RequestSlot)
		t.Compute(besimDeviceOps)
		// The store's cost is content-independent (always the full
		// fixed-size slot), so price it now and defer the backend
		// execution itself: Besim mutates one shared
		// database, and mutation order must match the serial thread
		// order for the rendered pages (balances, confirmation ids) to
		// be identical to a serial run's. The response is only read by
		// the NEXT stage kernel, so materializing it at end-of-launch is
		// unobservable. See DESIGN.md "Host parallelism".
		simt.ChargeColumn(t, dc.BRespBuf, r, dc.Size, backend.ResponseSlot)
		m := t.Mem()
		t.Defer(func() {
			resp := a.Besim.Handle(breq)
			slot := make([]byte, backend.ResponseSlot)
			copy(slot, resp)
			simt.WriteColumnRaw(m, dc.BRespBuf, r, dc.Size, slot)
		})
		return simt.Halt // next stage kernel reads BRespBuf
	case 3: // final stage: render and emit the response
		p.emit(t, r, dc.Ctxs[r])
		return simt.Halt
	case 90: // error path (§4.4): divergent, full-size error page
		if a.Stage < a.Service.Spec.Backends {
			// Skip the remaining backend stages; emission happens when
			// the final stage kernel runs.
			return simt.Halt
		}
		ctx := dc.Ctxs[r]
		buildErrorPage(ctx)
		p.chargeDelta(t, r)
		p.emit(t, r, ctx)
		return simt.Halt
	}
	panic("stage: bad block")
}

// chargeDelta charges the instructions the stage body accrued since the
// previous boundary.
func (p stageProgram) chargeDelta(t *simt.Thread, r int) {
	dc := p.args.Cohort
	now := dc.Ctxs[r].Instr()
	if d := now - dc.stageInstr[r]; d > 0 {
		t.Compute(int(d))
		dc.stageInstr[r] = now
	}
}

// emit renders the full fixed-size response and stores it section by
// section, splitting at the page's alignment marks. With padding on,
// every lane's marks coincide and the stores coalesce; with padding off
// they drift and scatter (§4.3.2).
func (p stageProgram) emit(t *simt.Thread, r int, ctx *Ctx) {
	dc := p.args.Cohort
	buf := dc.scratch.Get().([]byte)
	defer dc.scratch.Put(buf)
	resp := Render(ctx, buf)
	bounds := make([]int, 0, len(ctx.Page.Marks())+2)
	bounds = append(bounds, 0)
	for _, m := range ctx.Page.Marks() {
		bounds = append(bounds, HeaderLen+m)
	}
	bounds = append(bounds, len(resp))
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		if p.args.ColMajor {
			simt.StoreColumn(t, dc.RespCol, r, dc.Size, lo, resp[lo:hi])
		} else {
			storeRow(t, dc.RespRow, r, dc.Spec.BufferBytes(), lo, resp[lo:hi])
		}
	}
}

// BesimProgram returns a standalone device-backend kernel (used when the
// backend runs as its own pipeline stage rather than chained). Like the
// chained block above, it prices the full-slot store inline and defers
// the order-sensitive database execution to the serial end-of-launch
// phase.
func BesimProgram(dc *DeviceCohort, db *backend.DB) simt.Program {
	// The footprint is empty because the only shared state (db) is
	// touched exclusively inside Thread.Defer, which the batch scheduler
	// replays serially in canonical order regardless of declarations.
	return simt.WithFootprint(simt.FuncProgram{Label: "rhythm_besim", Body: func(t *simt.Thread) {
		r := t.ID
		breq := simt.LoadColumn(t, dc.BReqBuf, r, dc.Size, backend.RequestSlot)
		t.Compute(besimDeviceOps)
		simt.ChargeColumn(t, dc.BRespBuf, r, dc.Size, backend.ResponseSlot)
		m := t.Mem()
		t.Defer(func() {
			resp := db.Handle(breq)
			slot := make([]byte, backend.ResponseSlot)
			copy(slot, resp)
			simt.WriteColumnRaw(m, dc.BRespBuf, r, dc.Size, slot)
		})
	}}, simt.Footprint{})
}

// PackRequests writes raw requests row-major into a host staging image
// sized for H2D transfer (count × RequestSlot).
func PackRequests(raws [][]byte) []byte {
	out := make([]byte, len(raws)*RequestSlot)
	for i, raw := range raws {
		if len(raw) > RequestSlot {
			panic("banking: raw request exceeds slot")
		}
		copy(out[i*RequestSlot:], raw)
	}
	return out
}
