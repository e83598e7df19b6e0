package service

import (
	"bytes"

	"rhythm/internal/mem"
	"rhythm/internal/simt"
)

// Def returns local type i's definition.
func (w *PageWorkload) Def(local int) *SvcDef { return &w.defs[local] }

// Scratches counts the distinct lane execution contexts s holds over
// all its size classes.
func (s *Slot) Scratches() int {
	seen := map[*Scratch]bool{}
	for _, pc := range s.byClass {
		for _, sc := range pc.scratch {
			if sc != nil {
				seen[sc] = true
			}
		}
	}
	return len(seen)
}

// ExecSlots counts the distinct execution slots — lane mirrors and
// backend buffers — the cohorts of ss (one slot set) bind, over all
// their size classes.
func ExecSlots(ss ...*Slot) int {
	seen := map[*execSlot]bool{}
	for _, s := range ss {
		for _, pc := range s.byClass {
			seen[pc.execSlot] = true
		}
	}
	return len(seen)
}

// BackendResponseCap is the capacity of the buffer lane r keeps its
// backend response in.
func (u *PageUnit) BackendResponseCap(r int) int { return cap(u.pc.bresps[r]) }

// RefUnit is the write-through reference build of a PageUnit: its column
// images, its response buffer and the backend slots' row-major images
// are backed, its stage kernel renders into scratch and moves every byte
// the layout implies — StoreColumn into the columns, LoadColumn back out
// of them, a scatter from the deferred backend commit, Titan A's backend
// slots across the bus both ways — its transposes are TransposeLive, and
// its responses are read back out of device memory. The production kit
// prices exactly these accesses and moves none of them, so every
// simulated number and every response byte must agree between the two.
// The lanes' backend buffers carry only each slot's live length; its
// bytes come out of device memory.
type RefUnit struct {
	*PageUnit
	breqRow, brespRow mem.Addr
}

// Reference rebuilds u, bound on a fresh slot, as its reference.
func Reference(u *PageUnit) RefUnit {
	pc, m := u.pc, u.pc.dev.Mem
	pc.breqBuf = m.Alloc(pc.size*BackendRequestSlot, 256)
	pc.brespBuf = m.Alloc(pc.size*BackendResponseSlot, 256)
	pc.respCol = m.Alloc(pc.size*pc.class, 256)
	pc.respRow = m.Alloc(pc.size*pc.class, 256)
	return RefUnit{
		PageUnit: u,
		breqRow:  m.Alloc(pc.size*BackendRequestSlot, 256),
		brespRow: m.Alloc(pc.size*BackendResponseSlot, 256),
	}
}

func (u RefUnit) Responses() [][]byte {
	pc := u.pc
	slab := pc.dev.Mem.Read(pc.respRow, pc.count*pc.class)
	out := make([][]byte, pc.count)
	for i := range out {
		out[i] = slab[i*pc.class : (i+1)*pc.class]
	}
	return out
}

// Run is PageUnit.Run over the reference's stage kernels and
// transposes. On Titan C the platform's transpose unit moves the
// responses to row-major when the chain ends, for no device time.
func (u RefUnit) Run(stream *simt.Stream, roundTrip func(reply func()), staged func(simt.LaunchStats), done func()) {
	pc := u.pc
	if pc.v.Platform == TitanC && pc.v.ColMajor {
		finish := done
		done = func() {
			mem.TransposeElemsRange(pc.dev.Mem, pc.respRow, pc.respCol, pc.class/4, pc.size, 4, pc.class/4, pc.count)
			if finish != nil {
				finish()
			}
		}
	}
	run(u, pc, stream, roundTrip, staged, done)
}

func (u RefUnit) Stage(k int) simt.Program {
	return refStage{u.PageUnit.Stage(k).(pageStageProgram)}
}

func (u RefUnit) writeback(stream *simt.Stream) {
	pc := u.pc
	if pc.v.ColMajor {
		stream.TransposeLive(pc.respRow, pc.respCol, pc.class/4, pc.size, 4, pc.class/4, pc.count, nil)
	}
}

// backendRequestsD2H moves the request slots to the host, where each
// lane's request is what crossed the bus.
func (u RefUnit) backendRequestsD2H(stream *simt.Stream, done func()) {
	pc := u.pc
	stream.TransposeLive(u.breqRow, pc.breqBuf, BackendRequestSlot/4, pc.size, 4, BackendRequestSlot/4, pc.count, nil)
	stream.MemcpyD2H(u.breqRow, pc.count*BackendRequestSlot, func(image []byte) {
		for r := 0; r < pc.count; r++ {
			pc.breqs[r] = image[r*BackendRequestSlot:][:len(pc.breqs[r])]
		}
		done()
	})
}

// backendResponsesH2D packs the lanes' answers into slots and moves them
// into the column the next stage loads.
func (u RefUnit) backendResponsesH2D(stream *simt.Stream) {
	pc := u.pc
	image := make([]byte, pc.count*BackendResponseSlot)
	for r := 0; r < pc.count; r++ {
		copy(image[r*BackendResponseSlot:], pc.bresps[r])
	}
	stream.MemcpyH2D(u.brespRow, image, nil)
	stream.TransposeLive(pc.brespBuf, u.brespRow, pc.size, BackendResponseSlot/4, 4, pc.count, BackendResponseSlot/4, nil)
}

// refStage is pageStageProgram with every block that touches a cohort
// buffer rewritten to move the bytes through the column images.
type refStage struct{ pageStageProgram }

func (p refStage) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	u := p.u
	pc := u.pc
	def := pc.def
	r := t.ID
	switch b {
	case 1:
		ctx := pc.ctxs[r]
		var bresp []byte
		if p.stage > 0 {
			// The warp's gather buffer is the next lane's; the
			// stage may keep what it parses out of the response.
			bresp = bytes.Clone(simt.LoadColumn(t, pc.brespBuf, r, pc.size, BackendResponseSlot)[:len(pc.bresps[r])])
		}
		breq := def.Stage(ctx, p.stage, bresp)
		p.chargeDelta(t, r)
		if ctx.Err != "" {
			return 90
		}
		if ctx.Done {
			return 3
		}
		if p.stage < def.Backends {
			if !requestFits(ctx, breq) {
				return 90
			}
			slot := make([]byte, BackendRequestSlot)
			pc.breqs[r] = slot[:copy(slot, breq)]
			simt.StoreColumn(t, pc.breqBuf, r, pc.size, 0, slot)
			if pc.v.Platform == TitanA {
				return simt.Halt
			}
			return 2
		}
		return 3
	case 2:
		breq := bytes.Clone(simt.LoadColumn(t, pc.breqBuf, r, pc.size, BackendRequestSlot)[:len(pc.breqs[r])])
		t.Compute(besimDeviceOps)
		// A blank slot is stored for its price; the deferred commit
		// overwrites it, unpriced.
		simt.StoreColumn(t, pc.brespBuf, r, pc.size, 0, make([]byte, BackendResponseSlot))
		m := pc.dev.Mem
		t.Defer(func() {
			pc.breqs[r] = breq
			pc.commit(r)
			slot := make([]byte, BackendResponseSlot)
			copy(slot, pc.bresps[r])
			col := m.Bytes(simt.ColumnBase(pc.brespBuf, r), (BackendResponseSlot/simt.WordSize-1)*simt.WordSize*pc.size+simt.WordSize)
			mem.ScatterWords(col, slot, simt.WordSize*pc.size)
		})
		return simt.Halt
	case 3:
		p.emit(t, r, pc.ctxs[r])
		return simt.Halt
	case 90:
		if p.stage < def.Backends {
			return simt.Halt
		}
		ctx := pc.ctxs[r]
		buildErrorPage(ctx)
		p.chargeDelta(t, r)
		p.emit(t, r, ctx)
		return simt.Halt
	}
	return p.pageStageProgram.Exec(b, t) // the prologue touches no buffer
}

func (p refStage) emit(t *simt.Thread, r int, ctx *Ctx) {
	pc := p.u.pc
	resp := ctx.Render(make([]byte, pc.class))
	store := func(start int, data []byte) {
		if pc.v.ColMajor {
			simt.StoreColumn(t, pc.respCol, r, pc.size, start, data)
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
	lo := 0
	if !pc.v.Padding {
		for _, m := range ctx.Page.Marks() {
			hi := ctx.Def.headerLen + m
			store(lo, resp[lo:hi])
			lo = hi
		}
	}
	store(lo, resp[lo:])
}
