package service

import (
	"fmt"
	"sync"

	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// Device-side cost constants, matching banking's calibration: on-device
// backend lookups (§5.3.2) and session-array work.
const (
	besimDeviceOps = 8000
	sessionOps     = 64
)

// pageCohort is the device-resident geometry of one typed cohort plus
// its host mirror, allocated per (execution slot, buffer class) and
// rebound across types of the class.
type pageCohort struct {
	w     *PageWorkload
	def   *SvcDef
	size  int
	count int
	class int

	// Device buffers, column-major word-interleaved; respRow receives
	// the response transpose (§4.3.2).
	breqBuf  mem.Addr
	brespBuf mem.Addr
	respCol  mem.Addr
	respRow  mem.Addr

	// Host mirrors.
	reqs []httpx.Request
	ctxs []*Ctx

	// stageInstr tracks each request's charged instructions at the last
	// stage boundary so stage kernels charge only their delta.
	stageInstr []int64

	// scratch pools render buffers: emit runs concurrently across warps.
	scratch sync.Pool
}

func newPageCohort(w *PageWorkload, dev *simt.Device, class, size int) *pageCohort {
	pc := &pageCohort{
		w:          w,
		size:       size,
		class:      class,
		breqBuf:    dev.Mem.Alloc(size*BackendRequestSlot, 256),
		brespBuf:   dev.Mem.Alloc(size*BackendResponseSlot, 256),
		respCol:    dev.Mem.Alloc(size*class, 256),
		respRow:    dev.Mem.Alloc(size*class, 256),
		reqs:       make([]httpx.Request, size),
		ctxs:       make([]*Ctx, size),
		stageInstr: make([]int64, size),
	}
	pc.scratch.New = func() any { return make([]byte, class) }
	return pc
}

func (pc *pageCohort) reset(def *SvcDef, count int) {
	if def.BufferBytes != pc.class {
		panic(fmt.Sprintf("service: cannot bind %s (%d B) to a %d B class cohort", def.Name, def.BufferBytes, pc.class))
	}
	if count <= 0 || count > pc.size {
		panic(fmt.Sprintf("service: cohort count %d out of range (size %d)", count, pc.size))
	}
	pc.def = def
	pc.count = count
	for i := 0; i < count; i++ {
		pc.reqs[i] = httpx.Request{}
		pc.ctxs[i] = nil
		pc.stageInstr[i] = 0
	}
}

// pageSlot is one execution slot's cohort state for one page workload.
type pageSlot struct {
	w       *PageWorkload
	dev     *simt.Device
	size    int
	byClass map[int]*pageCohort
}

// Bind implements Slot.
func (s *pageSlot) Bind(local int, reqs []httpx.Request, sessions *session.Array, be Backend) Unit {
	def := &s.w.defs[local]
	pc, ok := s.byClass[def.BufferBytes]
	if !ok {
		pc = newPageCohort(s.w, s.dev, def.BufferBytes, s.size)
		s.byClass[def.BufferBytes] = pc
	}
	pc.reset(def, len(reqs))
	copy(pc.reqs, reqs)
	return &pageUnit{pc: pc, dev: s.dev, sessions: sessions, be: be}
}

// pageUnit is a bound cohort of one page-workload type.
type pageUnit struct {
	pc       *pageCohort
	dev      *simt.Device
	sessions *session.Array
	be       Backend
}

// Stages implements Unit.
func (u *pageUnit) Stages() int { return u.pc.def.Backends + 1 }

// Stage implements Unit.
func (u *pageUnit) Stage(k int) simt.Program {
	if k < 0 || k > u.pc.def.Backends {
		panic(fmt.Sprintf("service: stage %d out of range for %s", k, u.pc.def.Name))
	}
	return pageStageProgram{u: u, stage: k}
}

// Writeback implements Unit: transpose the column-major responses to
// row-major for extraction.
func (u *pageUnit) Writeback(stream *simt.Stream) {
	buf := u.pc.class
	stream.TransposeLive(u.pc.respRow, u.pc.respCol, buf/4, u.pc.size, 4, buf/4, u.pc.count, nil)
}

// Response implements Unit.
func (u *pageUnit) Response(i int) []byte {
	pc := u.pc
	if i < 0 || i >= pc.count {
		panic(fmt.Sprintf("service: response row %d out of range (count %d)", i, pc.count))
	}
	return u.dev.Mem.Read(pc.respRow+mem.Addr(i*pc.class), pc.class)
}

// Failed implements Unit.
func (u *pageUnit) Failed(i int) bool {
	ctx := u.pc.ctxs[i]
	return ctx != nil && ctx.Err != ""
}

// pageStageProgram runs process stage `stage` for every live request of
// the cohort. Blocks: 0 = session/context prologue; 1 = stage body;
// 2 = on-device backend (deferred commit); 3 = response emission;
// 90 = error path. Error requests diverge exactly as §4.4 describes.
type pageStageProgram struct {
	u     *pageUnit
	stage int
}

func (p pageStageProgram) Name() string {
	return fmt.Sprintf("rhythm_%s_%s_s%d", p.u.pc.w.name, p.u.pc.def.Name, p.stage)
}

func (pageStageProgram) Entry() simt.BlockID { return 0 }

// LaunchFootprint declares the shared host state a stage kernel touches
// while executing: the group's session array, per the type's
// SessionMode. All backend-store access happens inside Thread.Defer
// (replayed serially at end-of-launch) and needs no declaration.
// SessionCreates types conservatively declare a write at every stage —
// the creating stage is workload code the kit cannot see into.
func (p pageStageProgram) LaunchFootprint() simt.Footprint {
	def := p.u.pc.def
	switch {
	case def.Session == SessionCreates:
		return simt.Footprint{Writes: []any{p.u.sessions}}
	case p.stage == 0 && (def.Session == SessionOptional || def.Session == SessionRequired):
		return simt.Footprint{Reads: []any{p.u.sessions}}
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
			ctx := &Ctx{Page: NewPageBuilder(pc.w.costs)}
			pc.w.initCtx(ctx, def, &pc.reqs[r], u.sessions, true)
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
			return 2
		}
		return 3
	case 2: // on-device backend: price now, commit deferred
		breq := simt.LoadColumn(t, pc.breqBuf, r, pc.size, BackendRequestSlot)
		t.Compute(besimDeviceOps)
		// The store's cost is content-independent (always the full
		// slot), so price it now and defer the execution: the store
		// mutates shared state and must commit in canonical serial order
		// for the rendered bytes to match a serial run's. The response
		// is only read by the NEXT stage kernel, so materializing it at
		// end-of-launch is unobservable.
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
// column-major response buffer.
func (p pageStageProgram) emit(t *simt.Thread, r int, ctx *Ctx) {
	pc := p.u.pc
	buf := pc.scratch.Get().([]byte)
	defer pc.scratch.Put(buf)
	resp := pc.w.Render(ctx, buf)
	simt.StoreColumn(t, pc.respCol, r, pc.size, 0, resp)
}
