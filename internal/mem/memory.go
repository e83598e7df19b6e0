// Package mem models the accelerator's device memory: a flat linear
// address space — backed by real bytes where the simulation reads them
// back (the parser's request images), reserved but unbacked where a
// buffer is only priced (every stage kernel's) — allocated once
// at startup (the paper allocates all pipeline memory then, §4.6), and
// the 2-D buffer transpose between row-major and column-major layouts
// that gives Rhythm coalesced accesses (§4.3.2).
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
// other, and no bytes. Every buffer of a stage kernel lives there: a
// cohort buffer's column-major image — the device would hold it, the
// simulation only prices it — the backend slots' row-major images, and
// the whole response buffer, whose pages are rendered from the lanes'
// contexts when they are read (internal/service/kernels.go). A stage
// kernel backs no bytes: a lane's backend request and response are host
// buffers holding only their live bytes.
//
// Concurrency contract (simt.Config.HostParallelism > 1): concurrently
// simulated warps may Read/Write/Bytes disjoint byte ranges of the data
// without synchronization — Rhythm's cohort buffers are partitioned
// per-thread, and a kernel that moves bytes into a backed column image
// writes only its own word column, so kernel accesses never overlap
// across threads. Alloc and Reserve (which move
// the bump pointers) and any overlapping access are host-side operations
// and must only happen from the event-loop thread, i.e. outside a
// running kernel.
type Memory struct {
	data []byte
	brk  Addr // bump pointer for Alloc
	rbrk Addr // bump pointer for Reserve; reserved space starts at len(data)
}

// New returns a device memory that backs size bytes (0: none; its
// address space is all Reserve's).
func New(size int) *Memory {
	if size < 0 {
		panic("mem: negative size")
	}
	return &Memory{data: make([]byte, size)}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address. Like the paper's startup-time pools, allocations are never
// individually freed.
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
