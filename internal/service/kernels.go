package service

import (
	"fmt"
	"sync"

	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// This file implements the process phase as SIMT kernels: the per-type
// stage chain operating on cohort buffers in device memory. The stage
// logic is the same Go code the host path runs; what differs is the
// memory traffic — word-interleaved column-major cohort buffers accessed
// in lockstep — and the cost accounting the simulator performs on it.

// Device-side cost constants: on-device backend lookups (Titan B/C run
// Besim as a device kernel, §5.3.2) and session-array work beyond the
// atomics.
const (
	besimDeviceOps = 8000
	sessionOps     = 64
)

// Variant fixes, at slot creation, the three values the paper's
// evaluation varies under the stage kernels. Live serving runs TitanB;
// internal/pipeline derives the others from its Options for Table 3's
// platforms and the §6.4 ablations.
type Variant struct {
	// Padding enables §4.3.2 whitespace alignment.
	Padding bool
	// ColMajor keeps response buffers word-interleaved on the device
	// (the cohort buffer transpose optimisation); off, each thread
	// stores its response row-major.
	ColMajor bool
	// HostBackend leaves each backend request in its column for a host
	// round trip across the bus (Titan A) instead of chaining the
	// backend lookup into the stage kernel (Titan B/C).
	HostBackend bool
}

// TitanB is the variant live serving runs.
var TitanB = Variant{Padding: true, ColMajor: true}

// pageCohort is the device-resident geometry of one typed cohort plus
// its host mirror, allocated per (execution slot, buffer class) and
// rebound across types of the class.
type pageCohort struct {
	w     *PageWorkload
	v     Variant
	local int
	def   *SvcDef
	size  int
	count int
	class int

	// Device buffers, column-major word-interleaved while on the device.
	// respRow receives the response transpose (§4.3.2); in row-major mode
	// it is written directly. breqRow/brespRow stage the transposes a
	// host backend needs — "A local device backend also avoids the need
	// to transpose the backend request and response data" (§5.3.2) — and
	// exist only under Variant.HostBackend.
	breqBuf  mem.Addr
	breqRow  mem.Addr
	brespBuf mem.Addr
	brespRow mem.Addr
	respCol  mem.Addr
	respRow  mem.Addr

	// Host mirrors.
	reqs []httpx.Request
	ctxs []*Ctx

	// stageInstr tracks each request's charged instructions at the last
	// stage boundary so stage kernels charge only their delta.
	stageInstr []int64

	// scratch pools render buffers: emit runs concurrently across warps
	// (simt.Config.HostParallelism > 1), so a single shared buffer would
	// race.
	scratch sync.Pool
}

func newPageCohort(w *PageWorkload, dev *simt.Device, v Variant, class, size int) *pageCohort {
	pc := &pageCohort{w: w, v: v, size: size, class: class}
	pc.breqBuf = dev.Mem.Alloc(size*BackendRequestSlot, 256)
	if v.HostBackend {
		pc.breqRow = dev.Mem.Alloc(size*BackendRequestSlot, 256)
	}
	pc.brespBuf = dev.Mem.Alloc(size*BackendResponseSlot, 256)
	if v.HostBackend {
		pc.brespRow = dev.Mem.Alloc(size*BackendResponseSlot, 256)
	}
	pc.respCol = dev.Mem.Alloc(size*class, 256)
	pc.respRow = dev.Mem.Alloc(size*class, 256)
	pc.reqs = make([]httpx.Request, size)
	pc.ctxs = make([]*Ctx, size)
	pc.stageInstr = make([]int64, size)
	pc.scratch.New = func() any { return make([]byte, class) }
	return pc
}

// bind points the cohort at local type `local` (one of its size class)
// and a new batch of requests.
func (pc *pageCohort) bind(local int, reqs []httpx.Request) {
	count := len(reqs)
	if count <= 0 || count > pc.size {
		panic(fmt.Sprintf("service: cohort count %d out of range (size %d)", count, pc.size))
	}
	pc.local = local
	pc.def = &pc.w.defs[local]
	pc.count = count
	copy(pc.reqs, reqs)
	for i := 0; i < count; i++ {
		pc.ctxs[i] = nil
		pc.stageInstr[i] = 0
	}
}

// pageSlot is one execution slot's cohort state for one page workload:
// buffers are keyed by response-buffer size class and rebound across
// types, allocated on first use (device memory is never freed, so this
// is equivalent to the paper's preallocation at first launch, §4.2).
type pageSlot struct {
	w       *PageWorkload
	dev     *simt.Device
	v       Variant
	size    int
	byClass map[int]*pageCohort
}

// Bind implements Slot. The returned Unit is a *PageUnit.
func (s *pageSlot) Bind(local int, reqs []httpx.Request, sessions *session.Array, be Backend) Unit {
	class := s.w.defs[local].BufferBytes
	pc, ok := s.byClass[class]
	if !ok {
		pc = newPageCohort(s.w, s.dev, s.v, class, s.size)
		s.byClass[class] = pc
	}
	pc.bind(local, reqs)
	return &PageUnit{pc: pc, dev: s.dev, sessions: sessions, be: be}
}

// PageUnit is a bound cohort of one page-workload type. Beyond the Unit
// contract it carries what internal/pipeline's Titan A and Titan C
// emulations need: the host-backend round trip, straggler shedding, and
// the offloaded and over-the-bus response paths.
type PageUnit struct {
	pc       *pageCohort
	dev      *simt.Device
	sessions *session.Array
	be       Backend
}

// Stages implements Unit.
func (u *PageUnit) Stages() int { return u.pc.def.Backends + 1 }

// Stage implements Unit.
func (u *PageUnit) Stage(k int) simt.Program {
	if k < 0 || k > u.pc.def.Backends {
		panic(fmt.Sprintf("service: stage %d out of range for %s", k, u.pc.def.Name))
	}
	return pageStageProgram{u: u, stage: k}
}

// Writeback implements Unit: transpose the column-major responses to
// row-major for extraction (row-major slots already hold them there).
func (u *PageUnit) Writeback(stream *simt.Stream) {
	pc := u.pc
	if pc.v.ColMajor {
		stream.TransposeLive(pc.respRow, pc.respCol, pc.class/4, pc.size, 4, pc.class/4, pc.count, nil)
	}
}

// WritebackOffloaded is a ColMajor slot's Writeback on Titan C's
// specialized transpose unit (NIC / memory-controller logic): it costs
// no device time but the bytes still move, functionally. Call it from a
// stream barrier.
func (u *PageUnit) WritebackOffloaded() {
	pc := u.pc
	mem.TransposeElemsRange(u.dev.Mem, pc.respRow, pc.respCol, pc.class/4, pc.size, 4, pc.class/4, pc.count)
}

// ResponsesD2H ships the row-major responses over the bus (Titan A),
// then calls done.
func (u *PageUnit) ResponsesD2H(stream *simt.Stream, done func()) {
	stream.MemcpyD2H(u.pc.respRow, u.pc.count*u.pc.class, func([]byte) { done() })
}

// Response implements Unit. Responses have the fixed geometry of the
// type's buffer class, so no length bookkeeping is needed; the copy is
// safe to hand to another goroutine.
func (u *PageUnit) Response(i int) []byte {
	pc := u.pc
	if i < 0 || i >= pc.count {
		panic(fmt.Sprintf("service: response row %d out of range (count %d)", i, pc.count))
	}
	return u.dev.Mem.Read(pc.respRow+mem.Addr(i*pc.class), pc.class)
}

// Failed implements Unit.
func (u *PageUnit) Failed(i int) bool {
	ctx := u.pc.ctxs[i]
	return ctx != nil && ctx.Err != ""
}

// Active reports, once stage 0 has run, whether request i still takes
// part in backend round trips: it has neither failed nor finished early
// (variable stages).
func (u *PageUnit) Active(i int) bool {
	ctx := u.pc.ctxs[i]
	return ctx.Err == "" && !ctx.Done
}

// Fail marks request i failed (unless it already is), so the remaining
// stage kernels take it down the error path.
func (u *PageUnit) Fail(i int, reason string) {
	if ctx := u.pc.ctxs[i]; ctx.Err == "" {
		ctx.Fail(reason)
	}
}

// BackendRequestsD2H starts a host-backend round trip (HostBackend
// slots): transpose the request slots to row-major and ship them to the
// host; fn receives the count × BackendRequestSlot image.
func (u *PageUnit) BackendRequestsD2H(stream *simt.Stream, fn func(image []byte)) {
	pc := u.pc
	stream.TransposeLive(pc.breqRow, pc.breqBuf, BackendRequestSlot/4, pc.size, 4, BackendRequestSlot/4, pc.count, nil)
	stream.MemcpyD2H(pc.breqRow, pc.count*BackendRequestSlot, fn)
}

// BackendResponsesH2D completes the round trip: ship the count ×
// BackendResponseSlot image to the device and transpose it into the
// column the next stage kernel reads.
func (u *PageUnit) BackendResponsesH2D(stream *simt.Stream, image []byte) {
	pc := u.pc
	stream.MemcpyH2D(pc.brespRow, image, nil)
	stream.TransposeLive(pc.brespBuf, pc.brespRow, pc.size, BackendResponseSlot/4, 4, pc.count, BackendResponseSlot/4, nil)
}

// pageStageProgram runs process stage `stage` for every live request of
// the cohort. Blocks: 0 = session/context prologue; 1 = stage body
// (backend request generation or page generation); 2 = on-device
// backend (deferred commit); 3 = response emission; 90 = error path.
// Error requests diverge from the cohort exactly as §4.4 describes.
type pageStageProgram struct {
	u     *PageUnit
	stage int
}

func (p pageStageProgram) Name() string {
	return fmt.Sprintf("%s%s_s%d", p.u.pc.w.kernelPrefix, p.u.pc.def.Name, p.stage)
}

func (pageStageProgram) Entry() simt.BlockID { return 0 }

// LaunchFootprint declares the one piece of shared host state a stage
// kernel touches while executing: the group's session array, per the
// type's SessionMode. Cohort contexts, device columns, and response
// buffers are private to the launch's own cohort, and all backend-store
// access happens inside Thread.Defer (replayed serially at
// end-of-launch), so they need no declaration (simt.Footprinter;
// DESIGN.md §13). Creating and deleting types conservatively declare a
// write at every stage — the stage that does it is workload code the
// kit cannot see into.
func (p pageStageProgram) LaunchFootprint() simt.Footprint {
	switch p.u.pc.def.Session {
	case SessionCreates, SessionDeletes:
		return simt.Footprint{Writes: []any{p.u.sessions}}
	case SessionOptional, SessionRequired:
		if p.stage == 0 {
			return simt.Footprint{Reads: []any{p.u.sessions}}
		}
	}
	return simt.Footprint{}
}

func (p pageStageProgram) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	u := p.u
	pc := u.pc
	def := pc.def
	r := t.ID
	switch b {
	case 0: // prologue: context / session resolution
		if p.stage == 0 {
			t.Atomic(pc.breqBuf)
			t.Compute(sessionOps)
			ctx := &NewScratch().ctx
			pc.w.initCtx(ctx, pc.local, &pc.reqs[r], u.sessions, pc.v.Padding)
			pc.ctxs[r] = ctx
		} else if pc.ctxs[r].Done {
			// A variable-stage request already finished and emitted; its
			// lane drops out of the remaining kernels.
			return simt.Halt
		}
		if pc.ctxs[r].Err != "" {
			return 90
		}
		return 1
	case 1: // stage body
		ctx := pc.ctxs[r]
		var bresp []byte
		if p.stage > 0 {
			bresp = simt.LoadColumn(t, pc.brespBuf, r, pc.size, BackendResponseSlot)
		}
		breq := def.Stage(ctx, p.stage, bresp)
		p.chargeDelta(t, r)
		if ctx.Err != "" {
			return 90
		}
		if ctx.Done {
			return 3 // early completion: emit now (variable stages)
		}
		if p.stage < def.Backends {
			slot := make([]byte, BackendRequestSlot)
			copy(slot, breq)
			simt.StoreColumn(t, pc.breqBuf, r, pc.size, 0, slot)
			if pc.v.HostBackend {
				return simt.Halt // host backend round trip follows
			}
			return 2
		}
		return 3
	case 2: // on-device backend: price now, commit deferred
		breq := simt.LoadColumn(t, pc.breqBuf, r, pc.size, BackendRequestSlot)
		t.Compute(besimDeviceOps)
		// The store's cost is content-independent (always the full
		// slot), so price it now and defer the execution: the store
		// mutates shared state and must commit in canonical serial order
		// for the rendered bytes (balances, confirmation ids) to match a
		// serial run's. The response is only read by the NEXT stage
		// kernel, so materializing it at end-of-launch is unobservable.
		// See DESIGN.md "Host parallelism".
		simt.ChargeColumn(t, pc.brespBuf, r, pc.size, BackendResponseSlot)
		m := t.Mem()
		be := u.be
		t.Defer(func() {
			resp := be.Handle(breq)
			slot := make([]byte, BackendResponseSlot)
			copy(slot, resp)
			simt.WriteColumnRaw(m, pc.brespBuf, r, pc.size, slot)
		})
		return simt.Halt // next stage kernel reads brespBuf
	case 3: // final stage: render and emit
		p.emit(t, r, pc.ctxs[r])
		return simt.Halt
	case 90: // error path (§4.4): divergent, full-size error page
		if p.stage < def.Backends {
			return simt.Halt // emission happens in the final stage kernel
		}
		ctx := pc.ctxs[r]
		buildErrorPage(ctx)
		p.chargeDelta(t, r)
		p.emit(t, r, ctx)
		return simt.Halt
	}
	panic("service: bad stage block")
}

// chargeDelta charges the instructions the stage body accrued since the
// previous boundary.
func (p pageStageProgram) chargeDelta(t *simt.Thread, r int) {
	pc := p.u.pc
	now := pc.ctxs[r].Instr()
	if d := now - pc.stageInstr[r]; d > 0 {
		t.Compute(int(d))
		pc.stageInstr[r] = now
	}
}

// emit renders the full fixed-size response and stores it into the
// response buffer. A padded page goes out as one store: every lane
// writes the same offsets, so the accesses coalesce. With padding off
// the page is stored section by section, each starting at the lane's own
// alignment mark; the marks drift from lane to lane and the stores
// scatter (§4.3.2).
func (p pageStageProgram) emit(t *simt.Thread, r int, ctx *Ctx) {
	pc := p.u.pc
	buf := pc.scratch.Get().([]byte)
	defer pc.scratch.Put(buf)
	resp := ctx.Render(buf)
	lo := 0
	if !pc.v.Padding {
		for _, m := range ctx.Page.Marks() {
			hi := ctx.Def.headerLen + m
			pc.store(t, r, lo, resp[lo:hi])
			lo = hi
		}
	}
	pc.store(t, r, lo, resp[lo:])
}

// store writes data at byte offset start of request r's response slot.
func (pc *pageCohort) store(t *simt.Thread, r, start int, data []byte) {
	if pc.v.ColMajor {
		simt.StoreColumn(t, pc.respCol, r, pc.size, start, data)
		return
	}
	// Row-major: the per-word loop a thread would execute — the
	// uncoalesced layout the transpose ablation measures.
	if len(data) == 0 {
		return
	}
	addr := pc.respRow + mem.Addr(r*pc.class+start)
	n := len(data) / simt.WordSize * simt.WordSize
	if n > 0 {
		t.StoreStrided(addr, data[:n], simt.WordSize, simt.WordSize)
	}
	if n < len(data) {
		t.Store(addr+mem.Addr(n), data[n:])
	}
}
