// Package mem models the accelerator's device memory: a flat linear
// address space — backed by real bytes where the simulation reads them
// back (a stage kernel's backend slots, the parser's request image),
// reserved but unbacked where a buffer is only priced —
// preallocated pools that are recycled across cohorts (the paper
// allocates all pipeline memory at startup, §4.6), and the 2-D buffer
// transpose between row-major and column-major layouts that gives Rhythm
// coalesced accesses (§4.3.2).
package mem

import "fmt"

// Addr is a device virtual address (byte offset into device memory).
type Addr uint64

// Memory is a flat device memory. All kernel loads and stores resolve into
// it, so responses generated "on the device" are real bytes that can be
// validated.
//
// Above the backed bytes lies reserve-only address space (Reserve): it
// has addresses, so accesses to it coalesce and are priced like any
// other, and no bytes. A cohort buffer's column-major image lives there
// — the device would hold it, the simulation only prices it — and so
// does the whole response buffer, whose bytes are Go rows the bound unit
// owns and hands to its caller (internal/service/kernels.go). What a
// stage kernel keeps in backed memory is its backend slots' row-major
// twins.
//
// Concurrency contract (simt.Config.HostParallelism > 1): concurrently
// simulated warps may Read/Write/Bytes disjoint byte ranges of the data
// without synchronization — Rhythm's cohort buffers are partitioned
// per-thread, and every lane of a stage kernel writes only its own
// request's slot of each row-major twin (a kernel that moves bytes into
// a backed column image writes only its own word column), so kernel
// accesses never overlap across threads. Alloc and Reserve (which move
// the bump pointers) and any overlapping access are host-side operations
// and must only happen from the event-loop thread, i.e. outside a
// running kernel.
type Memory struct {
	data []byte
	brk  Addr // bump pointer for Alloc
	rbrk Addr // bump pointer for Reserve; reserved space starts at len(data)
}

// New returns a device memory of the given size in bytes.
func New(size int) *Memory {
	if size <= 0 {
		panic("mem: size must be positive")
	}
	return &Memory{data: make([]byte, size)}
}

// Size reports the backed capacity in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Allocated reports how many bytes have been handed out by Alloc.
func (m *Memory) Allocated() int { return int(m.brk) }

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address. Like the paper's startup-time pools, allocations are never
// individually freed; use Pool for recycling.
func (m *Memory) Alloc(n, align int) Addr {
	a := alignUp(m.brk, n, align)
	if int(a)+n > len(m.data) {
		panic(fmt.Sprintf("mem: out of device memory (%d requested at brk %d, capacity %d)", n, m.brk, len(m.data)))
	}
	m.brk = a + Addr(n)
	return a
}

// Reserve hands out n bytes of address space aligned to align, above
// every backed byte, with nothing behind them: Check accepts accesses to
// the range, Bytes panics on it.
func (m *Memory) Reserve(n, align int) Addr {
	a := alignUp(max(m.rbrk, Addr(len(m.data))), n, align)
	m.rbrk = a + Addr(n)
	return a
}

// alignUp validates an allocation request and rounds brk up to align.
func alignUp(brk Addr, n, align int) Addr {
	if n < 0 {
		panic("mem: negative allocation")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	return (brk + Addr(align-1)) &^ Addr(align-1)
}

// Bytes returns the live slice [addr, addr+n). Mutating it mutates device
// memory; this is how kernels and host copies touch data.
func (m *Memory) Bytes(addr Addr, n int) []byte {
	if int(addr)+n > len(m.data) || n < 0 {
		if int(addr) >= len(m.data) && addr < m.rbrk {
			panic(fmt.Sprintf("mem: [%d,%d) is reserved address space with no bytes behind it", addr, int(addr)+n))
		}
		panic(fmt.Sprintf("mem: access [%d,%d) out of bounds (capacity %d)", addr, int(addr)+n, len(m.data)))
	}
	return m.data[addr : int(addr)+n]
}

// Check bounds-checks an access to [addr, addr+n) that touches no bytes:
// the range must lie wholly in backed memory or wholly in reserved
// address space.
func (m *Memory) Check(addr Addr, n int) {
	end := int(addr) + n
	if n < 0 || end > len(m.data) && (int(addr) < len(m.data) || end > int(m.rbrk)) {
		panic(fmt.Sprintf("mem: access [%d,%d) out of bounds (capacity %d, reserved to %d)", addr, end, len(m.data), m.rbrk))
	}
}

// Write copies p into device memory at addr.
func (m *Memory) Write(addr Addr, p []byte) { copy(m.Bytes(addr, len(p)), p) }

// Read copies n bytes starting at addr into a fresh slice (appended to
// nil: the allocation is not zeroed first).
func (m *Memory) Read(addr Addr, n int) []byte {
	return append([]byte(nil), m.Bytes(addr, n)...)
}

// Zero clears [addr, addr+n).
func (m *Memory) Zero(addr Addr, n int) {
	b := m.Bytes(addr, n)
	for i := range b {
		b[i] = 0
	}
}

// Pool is a fixed-size-slot recycling allocator carved out of Memory at
// startup, mirroring the paper's "memory pools are created at startup to
// avoid allocation and synchronization overheads, and memory is recycled"
// (§4.6). Get/Put are O(1).
type Pool struct {
	slot  int
	free  []Addr
	total int
}

// NewPool carves count slots of slotSize bytes (each aligned to align)
// from m.
func NewPool(m *Memory, count, slotSize, align int) *Pool {
	if count <= 0 || slotSize <= 0 {
		panic("mem: pool needs positive count and slot size")
	}
	p := &Pool{slot: slotSize, free: make([]Addr, 0, count), total: count}
	for i := 0; i < count; i++ {
		p.free = append(p.free, m.Alloc(slotSize, align))
	}
	return p
}

// SlotSize reports the size of each slot in bytes.
func (p *Pool) SlotSize() int { return p.slot }

// Free reports the number of available slots.
func (p *Pool) Free() int { return len(p.free) }

// Total reports the pool capacity in slots.
func (p *Pool) Total() int { return p.total }

// Get pops a free slot. The second result is false when the pool is
// exhausted — a structural hazard that stalls the Rhythm pipeline.
func (p *Pool) Get() (Addr, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	a := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return a, true
}

// Put returns a slot to the pool.
func (p *Pool) Put(a Addr) {
	if len(p.free) >= p.total {
		panic("mem: pool overflow (double Put?)")
	}
	p.free = append(p.free, a)
}
