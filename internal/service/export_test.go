package service

import "rhythm/internal/simt"

// blankStoreStage is pageStageProgram with the device-backend block as
// it was before ChargeColumn: store a zeroed response slot to price it,
// then overwrite it from the deferred callback.
type blankStoreStage struct{ pageStageProgram }

func (p blankStoreStage) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	if b != 2 {
		return p.pageStageProgram.Exec(b, t)
	}
	pc, be, r := p.u.pc, p.u.be, t.ID
	breq := simt.LoadColumn(t, pc.breqBuf, r, pc.size, BackendRequestSlot)
	t.Compute(besimDeviceOps)
	simt.StoreColumn(t, pc.brespBuf, r, pc.size, 0, make([]byte, BackendResponseSlot))
	m := t.Mem()
	t.Defer(func() {
		slot := make([]byte, BackendResponseSlot)
		copy(slot, be.Handle(breq))
		simt.WriteColumnRaw(m, pc.brespBuf, r, pc.size, slot)
	})
	return simt.Halt
}

// BlankStoreStage returns u's stage-k kernel with the blank-store
// backend block, the reference the price-only store is tested against.
func BlankStoreStage(u Unit, k int) simt.Program {
	return blankStoreStage{u.Stage(k).(pageStageProgram)}
}
