package service

import (
	"bytes"
	"fmt"

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
//
// The kernels price that layout and do not re-enact it: a backend slot's
// bytes live once, in its row-major twin in device memory — one pair per
// execution slot, shared by every size class and workload the slot
// binds; every column-major image, and the responses' row-major one, is
// reserved address space, per class, whose loads, stores and transposes
// are charged exactly as if the bytes moved (simt/column.go); and a
// response is not rendered by the kernel that prices its store. A
// rendered page is always its class's size, so what the store costs
// needs no bytes: the lane's context holds the finished page, and
// whoever reads the response — Responses for the caller, Response for
// one lane in place — renders it from there.

// Device-side cost constants: on-device backend lookups (Titan B/C run
// Besim as a device kernel, §5.3.2) and session-array work beyond the
// atomics.
const (
	besimDeviceOps = 8000
	sessionOps     = 64
)

// Platform selects the emulated system of §5.3.2: what surrounds a
// cohort's stage chain. The zero value is Titan B.
type Platform int

// The three Rhythm platforms.
const (
	// TitanB emulates an SoC-style integrated NIC with the Besim backend
	// running on the device.
	TitanB Platform = iota
	// TitanA is a discrete GPU behind PCIe 3.0: the backend runs on host
	// worker threads across the bus, and responses ship over it.
	TitanA
	// TitanC is TitanB plus a specialized unit that performs the
	// response transpose off the device's critical path, for no device
	// time.
	TitanC
)

func (p Platform) String() string {
	switch p {
	case TitanA:
		return "Titan A"
	case TitanB:
		return "Titan B"
	case TitanC:
		return "Titan C"
	}
	return "unknown"
}

// Variant fixes, at slot creation, the three values the paper's
// evaluation varies around and under the stage kernels. Live serving
// runs Live; internal/pipeline takes the others from its Options for
// Table 3's platforms and the §6.4 ablations.
type Variant struct {
	// Platform is what Run puts around the stage kernels; on Titan A
	// they leave each backend request for the host round trip.
	Platform Platform
	// Padding enables §4.3.2 whitespace alignment.
	Padding bool
	// ColMajor keeps response buffers word-interleaved on the device
	// (the cohort buffer transpose optimisation); off, each thread
	// stores its response row-major.
	ColMajor bool
}

// Live is the variant live serving runs: Titan B, padded, column-major.
var Live = Variant{Padding: true, ColMajor: true}

// pageCohort is the device-resident geometry of one typed cohort,
// allocated per (execution slot, workload, buffer class) and rebound
// across types of the class, over its execution slot's shared lane state.
type pageCohort struct {
	w     *PageWorkload
	v     Variant
	local int
	def   *SvcDef
	count int
	class int

	// Device buffers: the word-interleaved column images the device holds
	// and the responses' row-major image. All are reserved address space,
	// priced and never backed, and each class reserves its own, so every
	// priced access has its own 256-aligned base. respRow — what the
	// response transpose produces (§4.3.2) and what row-major mode stores
	// to — holds no bytes: responses are rendered when they are read.
	// The backend slots' bytes live in the execution slot's row-major
	// twins.
	breqBuf  mem.Addr
	brespBuf mem.Addr
	respCol  mem.Addr
	respRow  mem.Addr

	// page is the one class-byte buffer Response renders a lane into.
	page []byte

	// execSlot is the slot's, shared with every cohort bound on it.
	*execSlot

	// be is the bound cohort's backend, and commits[r] lane r's deferred
	// backend commit: made once per lane with the cohort, it reads the
	// bound state when the launch's serial phase runs it.
	be      Backend
	commits []func()
}

// execSlot is what one execution slot keeps whatever cohort it binds —
// of any size class, and in a registry's slot set of any workload: the
// host mirror of its lanes and the backend slots' row-major twins. A
// slot binds one cohort at a time and a unit is valid only until the
// slot's next Bind, so one set serves every cohort (§4.2: a context's
// buffers are set aside once and reused by every cohort it serves).
// Bind resets or overwrites the lane mirrors; the twins keep their zero
// tails because every write of a backend slot clears what the lane's
// previous live bytes left (fillSlot).
type execSlot struct {
	dev  *simt.Device
	size int

	// breqRow/brespRow, backed at the slot's first Bind, hold the backend
	// slots' bytes, request r's at byte r × slot size: what a host
	// backend's transposes ship over the bus (§5.3.2) and what a device
	// backend reads in place. breqLen[r] and brespLen[r] are the live
	// bytes of lane r's slots; the rest of a slot is zero. Stage
	// functions and backends are handed exactly the live bytes, as on the
	// host path.
	breqRow  mem.Addr
	brespRow mem.Addr
	breqLen  []int
	brespLen []int

	reqs []httpx.Request
	ctxs []*Ctx
	// scratch[r] is lane r's execution context, created on the lane's
	// first request and reused by every later cohort.
	scratch []*Scratch
	// stageInstr tracks each request's charged instructions at the last
	// stage boundary so stage kernels charge only their delta.
	stageInstr []int64
}

// SlotDeviceBytes reports the backed device memory one execution slot
// of cohortSize lanes needs, whatever it serves: its backend request and
// response slots' row-major twins. The column images and the response
// buffers are reserved address space and take no backing.
func SlotDeviceBytes(cohortSize int) int64 {
	return int64(cohortSize) * (BackendRequestSlot + BackendResponseSlot)
}

// back sets the slot's state aside on its first Bind, so a slot that
// never binds backs no device memory.
func (e *execSlot) back() {
	if e.reqs != nil {
		return
	}
	e.breqRow = e.dev.Mem.Alloc(e.size*BackendRequestSlot, 256)
	e.brespRow = e.dev.Mem.Alloc(e.size*BackendResponseSlot, 256)
	e.breqLen = make([]int, e.size)
	e.brespLen = make([]int, e.size)
	e.reqs = make([]httpx.Request, e.size)
	e.ctxs = make([]*Ctx, e.size)
	e.scratch = make([]*Scratch, e.size)
	e.stageInstr = make([]int64, e.size)
}

func newPageCohort(w *PageWorkload, v Variant, class int, e *execSlot) *pageCohort {
	pc := &pageCohort{w: w, v: v, class: class, execSlot: e}
	m := e.dev.Mem
	pc.breqBuf = m.Reserve(e.size*BackendRequestSlot, 256)
	pc.brespBuf = m.Reserve(e.size*BackendResponseSlot, 256)
	pc.respCol = m.Reserve(e.size*class, 256)
	pc.respRow = m.Reserve(e.size*class, 256)
	pc.commits = make([]func(), e.size)
	for r := range pc.commits {
		pc.commits[r] = func() { pc.commit(r) }
	}
	return pc
}

// commit runs lane r's backend request against the bound backend and
// fills its response slot (block 2's deferred half).
func (pc *pageCohort) commit(r int) {
	breq := pc.row(pc.breqRow, r, BackendRequestSlot)[:pc.breqLen[r]]
	bresp := pc.row(pc.brespRow, r, BackendResponseSlot)
	pc.brespLen[r] = fillSlot(bresp, handle(pc.be, breq), pc.brespLen[r])
}

// row returns request r's slot of a backend slot's row-major twin.
func (e *execSlot) row(twin mem.Addr, r, slot int) []byte {
	return e.dev.Mem.Bytes(twin+mem.Addr(r*slot), slot)
}

// fillSlot copies data, which fits, into a backend slot that held old
// live bytes, zeroes what is left of those, and returns the new length.
func fillSlot(slot, data []byte, old int) int {
	n := copy(slot, data)
	if old > n {
		clear(slot[n:old])
	}
	return n
}

// bind points the cohort at local type `local` (one of its size class),
// a new batch of requests and their backend.
func (pc *pageCohort) bind(local int, reqs []httpx.Request, be Backend) {
	count := len(reqs)
	if count <= 0 || count > pc.size {
		panic(fmt.Sprintf("service: cohort count %d out of range (size %d)", count, pc.size))
	}
	pc.local = local
	pc.def = &pc.w.defs[local]
	pc.count = count
	pc.be = be
	copy(pc.reqs, reqs)
	for i := 0; i < count; i++ {
		pc.ctxs[i] = nil
		pc.stageInstr[i] = 0
	}
}

// Slot is one execution slot's cohort state for one workload, owned by
// a single device worker goroutine: buffers are keyed by response-buffer
// size class and rebound across types, allocated on first use (device
// memory is never freed, so this is equivalent to the paper's
// preallocation at first launch, §4.2). Every class shares the execution
// slot's lane mirrors and backend-slot twins, and so does every workload's
// Slot of a Registry.NewSlots set.
type Slot struct {
	w       *PageWorkload
	v       Variant
	byClass map[int]*pageCohort
	*execSlot
}

// Bind prepares the slot for a cohort of requests of one local type and
// returns the launchable unit, valid until the next Bind on this slot —
// or, in a Registry.NewSlots set, on any workload's Slot of it.
func (s *Slot) Bind(local int, reqs []httpx.Request, sessions *session.Array, be Backend) *PageUnit {
	class := s.w.defs[local].BufferBytes
	pc, ok := s.byClass[class]
	if !ok {
		s.back()
		pc = newPageCohort(s.w, s.v, class, s.execSlot)
		s.byClass[class] = pc
	}
	pc.bind(local, reqs, be)
	return &PageUnit{pc: pc, sessions: sessions}
}

// PageUnit is a bound cohort of one page-workload type, ready to run:
// Run sequences its Backends+1 stage kernels and what its slot's platform
// puts between and after them; Responses and Response read the pages
// once it is done. Failed reports the lanes that took the error path,
// and Active, Fail and BackendRequest are what internal/pipeline's
// Titan A round trip needs to serve lanes and shed stragglers.
type PageUnit struct {
	pc       *pageCohort
	sessions *session.Array
}

// Stage returns stage k's kernel. The program implements
// simt.Footprinter: declared footprints are what let independent
// launches overlap (DESIGN.md §13).
func (u *PageUnit) Stage(k int) simt.Program {
	if k < 0 || k > u.pc.def.Backends {
		panic(fmt.Sprintf("service: stage %d out of range for %s", k, u.pc.def.Name))
	}
	return pageStageProgram{u: u, stage: k}
}

// chain is what Run sequences: the stage kernels, and the transposes
// and copies that move a cohort's buffers between them. *PageUnit
// prices them; the write-through reference the tests compare it against
// moves every byte.
type chain interface {
	Stage(k int) simt.Program
	writeback(stream *simt.Stream)
	backendRequestsD2H(stream *simt.Stream, fn func(image []byte))
	backendResponsesH2D(stream *simt.Stream, image []byte)
}

// Run enqueues the cohort's chain on stream (§3.1, §4.3.2): each stage
// kernel launches when the previous one completes, and staged, if
// non-nil, receives its statistics first. Between stages a Titan A
// cohort ships its backend requests to the host, where roundTrip serves
// them: it receives the count × BackendRequestSlot image, to be cut with
// BackendRequest, and hands reply the count × BackendResponseSlot image
// of responses, in any later event; the next stage launches once that
// is back on the device. After the final stage comes the response
// transpose (Titan C's transpose unit does it for no device time), then
// the responses' trip over the bus on Titan A or a barrier on Titan B
// and C, and then done. Off Titan A roundTrip is never called; staged
// and done may be nil.
func (u *PageUnit) Run(stream *simt.Stream, roundTrip func(image []byte, reply func(resp []byte)), staged func(simt.LaunchStats), done func()) {
	run(u, u.pc, stream, roundTrip, staged, done)
}

// run is Run over c: the unit itself, or its write-through reference.
func run(c chain, pc *pageCohort, stream *simt.Stream, roundTrip func(image []byte, reply func(resp []byte)), staged func(simt.LaunchStats), done func()) {
	var next func(k int)
	next = func(k int) {
		stream.Launch(c.Stage(k), pc.count, func(ls simt.LaunchStats) {
			if staged != nil {
				staged(ls)
			}
			switch {
			case k == pc.def.Backends:
				if pc.v.Platform != TitanC {
					c.writeback(stream)
				}
				if pc.v.Platform == TitanA {
					// Priced only: Responses and Response render the pages
					// on the host when they are read.
					stream.ChargeD2H(pc.count*pc.class, done)
				} else {
					stream.Barrier(done)
				}
			case pc.v.Platform == TitanA:
				c.backendRequestsD2H(stream, func(image []byte) {
					roundTrip(image, func(resp []byte) {
						c.backendResponsesH2D(stream, resp)
						stream.Barrier(func() { next(k + 1) })
					})
				})
			default:
				// The backend lookup ran chained inside the kernel.
				next(k + 1)
			}
		})
	}
	next(0)
}

// writeback enqueues the response transpose on stream: column-major
// responses to row-major for extraction (row-major slots store them
// there).
func (u *PageUnit) writeback(stream *simt.Stream) {
	pc := u.pc
	if pc.v.ColMajor {
		stream.ChargeTranspose(pc.class/4, pc.size, 4, nil)
	}
}

// Responses renders every request's response, in request order, each
// into a fresh class-byte row, on the device's host workers (a cohort's
// pages are tens of KB each, too much to render on the one device
// goroutine). Valid after the final stage kernel has run and until the
// slot's next Bind, in any order with Response and any number of times.
// The rows are the caller's: the unit keeps no reference and never
// writes them again, so they may be kept for any length of time and
// handed to other goroutines. Each is capped at its own length, so
// appending to one never reaches another.
func (u *PageUnit) Responses() [][]byte {
	pc := u.pc
	out := make([][]byte, pc.count)
	pc.dev.ForEachLane(pc.count, func(r int) {
		out[r] = pc.ctxs[r].Render(make([]byte, pc.class))
	})
	return out
}

// Response renders request i's response into a buffer the unit keeps
// and reuses: valid until the next Response call or the slot's next
// Bind, and, like Responses, only after the final stage kernel has run.
func (u *PageUnit) Response(i int) []byte {
	pc := u.pc
	if i < 0 || i >= pc.count {
		panic(fmt.Sprintf("service: response row %d out of range (count %d)", i, pc.count))
	}
	if pc.page == nil {
		pc.page = make([]byte, pc.class)
	}
	return pc.ctxs[i].Render(pc.page)
}

// Failed reports whether request i took the kernel error path.
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

// backendRequestsD2H starts a Titan A round trip: transpose the
// request slots to row-major and ship them to the host; fn receives the
// count × BackendRequestSlot image.
func (u *PageUnit) backendRequestsD2H(stream *simt.Stream, fn func(image []byte)) {
	pc := u.pc
	stream.ChargeTranspose(BackendRequestSlot/4, pc.size, 4, nil)
	stream.MemcpyD2H(pc.breqRow, pc.count*BackendRequestSlot, fn)
}

// BackendRequest is request r's backend request in the image Run hands
// roundTrip: the live bytes of its slot.
func (u *PageUnit) BackendRequest(image []byte, r int) []byte {
	return image[r*BackendRequestSlot:][:u.pc.breqLen[r]]
}

// backendResponsesH2D completes the round trip: ship the count ×
// BackendResponseSlot image to the device and transpose it into the
// column the next stage kernel loads. The image carries no lengths, so
// each slot's live bytes are found here, once, as what precedes its zero
// tail.
func (u *PageUnit) backendResponsesH2D(stream *simt.Stream, image []byte) {
	pc := u.pc
	stream.MemcpyH2D(pc.brespRow, image, func() { pc.measureResponses(image) })
	stream.ChargeTranspose(pc.size, BackendResponseSlot/4, 4, nil)
}

// measureResponses sets every lane's backend response length from a
// host backend's image.
func (pc *pageCohort) measureResponses(image []byte) {
	for r := 0; r < pc.count; r++ {
		slot := image[r*BackendResponseSlot : (r+1)*BackendResponseSlot]
		pc.brespLen[r] = len(bytes.TrimRight(slot, "\x00"))
	}
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

func (p pageStageProgram) Name() string { return p.u.pc.def.kernels[p.stage] }

func (pageStageProgram) Entry() simt.BlockID { return 0 }

// LaunchFootprint declares the one piece of shared host state a stage
// kernel touches while executing: the group's session array, per the
// type's SessionMode and SessionStage. Cohort contexts, device columns,
// and response buffers are private to the launch's own cohort, and all
// backend-store access happens inside Thread.Defer (replayed serially at
// end-of-launch), so they need no declaration (simt.Footprinter;
// DESIGN.md §13). The session stage of a creating or deleting type
// writes the array; stage 0 of a type that resolves a cookie reads it;
// every other stage touches nothing (Ctx.CreateSession and
// Ctx.DeleteSession panic outside the declared stage).
func (p pageStageProgram) LaunchFootprint() simt.Footprint {
	def := p.u.pc.def
	switch {
	case (def.Session == SessionCreates || def.Session == SessionDeletes) && p.stage == def.SessionStage:
		// Which slot a create takes, and whether it finds one, depends on
		// the creates before it: they must run in lane order.
		return simt.Footprint{Writes: []any{p.u.sessions}, Ordered: true}
	case def.Session != SessionNone && def.Session != SessionCreates && p.stage == 0:
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
			sc := pc.scratch[r]
			if sc == nil {
				sc = NewScratch()
				pc.scratch[r] = sc
			}
			sc.page.Reset()
			pc.w.initCtx(&sc.ctx, pc.local, &pc.reqs[r], u.sessions, pc.v.Padding)
			pc.ctxs[r] = &sc.ctx
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
			simt.ChargeColumn(t, pc.brespBuf, r, pc.size, 0, BackendResponseSlot)
			bresp = pc.row(pc.brespRow, r, BackendResponseSlot)[:pc.brespLen[r]]
		}
		breq := ctx.runStage(p.stage, bresp)
		p.chargeDelta(t, r)
		if ctx.Err != "" {
			return 90
		}
		if ctx.Done {
			return 3 // early completion: emit now (variable stages)
		}
		if p.stage < def.Backends {
			if !requestFits(ctx, breq) {
				return 90
			}
			simt.ChargeColumn(t, pc.breqBuf, r, pc.size, 0, BackendRequestSlot)
			pc.breqLen[r] = fillSlot(pc.row(pc.breqRow, r, BackendRequestSlot), breq, pc.breqLen[r])
			if pc.v.Platform == TitanA {
				return simt.Halt // host backend round trip follows
			}
			return 2
		}
		return 3
	case 2: // on-device backend: price now, commit deferred
		simt.ChargeColumn(t, pc.breqBuf, r, pc.size, 0, BackendRequestSlot)
		t.Compute(besimDeviceOps)
		// The response store's cost is content-independent (always the
		// full slot), so price it now and defer the execution: the
		// backend mutates shared state and must commit in canonical
		// serial order for the rendered bytes (balances, confirmation
		// ids) to match a serial run's. The response is only read by the
		// NEXT stage kernel, so materializing it at end-of-launch is
		// unobservable. See DESIGN.md "Host parallelism".
		simt.ChargeColumn(t, pc.brespBuf, r, pc.size, 0, BackendResponseSlot)
		t.Defer(pc.commits[r])
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

// emit charges the store of the lane's full fixed-size response into
// the response buffer, and renders nothing: the page is always class
// bytes, so its price needs no bytes, and Responses or Response renders
// it when it is read. What would make the render panic — a header of
// other than the type's fixed width, a body that outgrows the class — is
// checked here, so a mis-sized page fails in the kernel that emits it.
// A padded page goes out as one store: every lane writes the same
// offsets, so the accesses coalesce. With padding off the page is stored
// section by section, each starting at the lane's own alignment mark;
// the marks drift from lane to lane and the stores scatter (§4.3.2).
func (p pageStageProgram) emit(t *simt.Thread, r int, ctx *Ctx) {
	pc := p.u.pc
	ctx.checkGeometry()
	lo := 0
	if !pc.v.Padding {
		for _, m := range ctx.Page.Marks() {
			hi := ctx.Def.headerLen + m
			pc.chargeStore(t, r, lo, hi-lo)
			lo = hi
		}
	}
	pc.chargeStore(t, r, lo, pc.class-lo)
}

// chargeStore prices the store of n bytes at byte offset start of
// request r's response slot: into its column, or row-major the per-word
// loop a thread would execute.
func (pc *pageCohort) chargeStore(t *simt.Thread, r, start, n int) {
	if pc.v.ColMajor {
		simt.ChargeColumn(t, pc.respCol, r, pc.size, start, n)
		return
	}
	simt.ChargeRow(t, pc.respRow+mem.Addr(r*pc.class+start), n)
}
