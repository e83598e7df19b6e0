package simt

import (
	"fmt"

	"rhythm/internal/mem"
)

// BlockID names a basic block of a Program. Blocks should be numbered in
// (roughly) topological order: the warp scheduler picks the minimum
// pending block among diverged lanes, which makes lanes reconverge at the
// next common block — the standard min-PC reconvergence heuristic.
type BlockID int

// Halt is the pseudo-block a thread returns to terminate.
const Halt BlockID = -1

// Program is a SIMT kernel: a basic-block state machine executed by every
// thread of a launch. Exec runs block b for thread t and returns the
// successor block. Control flow may branch and loop; divergence across a
// warp's lanes is serialized by the simulator exactly as SIMT hardware
// serializes it.
type Program interface {
	// Name identifies the kernel in stats and error messages.
	Name() string
	// Entry is the first block every thread executes.
	Entry() BlockID
	// Exec executes block b for thread t.
	Exec(b BlockID, t *Thread) BlockID
}

// FuncProgram adapts a single function into a one-block Program, for
// kernels with no interesting control flow (e.g., memset-style kernels).
type FuncProgram struct {
	Label string
	Body  func(t *Thread)
}

// Name implements Program.
func (p FuncProgram) Name() string { return p.Label }

// Entry implements Program.
func (p FuncProgram) Entry() BlockID { return 0 }

// Exec implements Program.
func (p FuncProgram) Exec(_ BlockID, t *Thread) BlockID {
	p.Body(t)
	return Halt
}

// access records one memory instruction issued by a lane within a block.
// Lockstep lanes' accesses are zipped by issue index and coalesced
// together.
type access struct {
	addr    mem.Addr
	elem    int // element size in bytes (simple: total size; strided: per element)
	count   int // number of elements (1 for a simple access)
	stride  int // byte stride between elements (strided only)
	strided bool
}

// Thread is the per-lane execution context handed to Program.Exec. All
// loads and stores go through it so the simulator can account coalescing
// and so the bytes actually land in device memory.
type Thread struct {
	// ID is the global thread index within the launch.
	ID int
	// Lane is the index within the warp [0, WarpSize).
	Lane int

	mem      *mem.Memory
	warp     *warpShared
	ops      int64 // compute ops charged in the current block
	accesses []access
}

// warpShared is the state a warp's lanes share.
type warpShared struct {
	// deferred collects Thread.Defer and Thread.DeferCommuting
	// callbacks in the exact order the warp's lanes issued them (the
	// serial execution order within the warp), for the end-of-launch
	// commit phase; ordered is set once any of them came from Defer.
	deferred []func()
	ordered  bool
	// gather is the buffer LoadStrided returns; a warp's lanes run
	// one at a time, so each lane's load overwrites the last one's.
	gather []byte
}

// Compute charges n ALU operations to the current block. Lanes of a warp
// executing the same block issue in lockstep, so the warp pays
// max-across-lanes, amortizing fetch/decode across the warp — the effect
// the paper's efficiency argument rests on (§2.1).
func (t *Thread) Compute(n int) {
	if n < 0 {
		panic("simt: negative compute charge")
	}
	t.ops += int64(n)
}

// Load reads n bytes at addr from device memory as one memory instruction.
// The returned slice aliases device memory and must not be retained across
// blocks.
func (t *Thread) Load(addr mem.Addr, n int) []byte {
	t.charge(addr, n)
	return t.mem.Bytes(addr, n)
}

// Store writes p to device memory at addr as one memory instruction. p
// may be reused as soon as Store returns.
func (t *Thread) Store(addr mem.Addr, p []byte) {
	t.charge(addr, len(p))
	t.mem.Write(addr, p)
}

// charge records one simple access of n bytes at addr — its coalescing,
// issue slot and traffic — and touches no bytes, so addr may lie in
// reserved address space.
func (t *Thread) charge(addr mem.Addr, n int) {
	t.mem.Check(addr, n)
	t.accesses = append(t.accesses, access{addr: addr, elem: n, count: 1})
}

// StoreStrided writes p in elem-byte words at addresses
// addr, addr+stride, addr+2*stride, ... — the access pattern of a thread
// writing its column of a transposed (column-major, word-interleaved)
// cohort buffer. len(p) must be a multiple of elem. The simulator
// coalesces each step across the warp's lanes, which is where the
// transpose optimization's benefit shows up: lanes' words at one step are
// adjacent in column-major layout and merge into one transaction. p may
// be reused as soon as StoreStrided returns.
func (t *Thread) StoreStrided(addr mem.Addr, p []byte, elem, stride int) {
	count := stridedCount(len(p), elem, stride)
	if count == 0 {
		return
	}
	t.chargeStrided(addr, count, elem, stride)
	b := t.mem.Bytes(addr, (count-1)*stride+elem)
	if elem == WordSize {
		mem.ScatterWords(b, p, stride)
		return
	}
	for i := 0; i < count; i++ {
		copy(b[i*stride:i*stride+elem], p[i*elem:(i+1)*elem])
	}
}

// chargeStrided is charge for one strided access of count elem-byte
// words (count > 0).
func (t *Thread) chargeStrided(addr mem.Addr, count, elem, stride int) {
	t.mem.Check(addr, (count-1)*stride+elem)
	t.accesses = append(t.accesses, access{addr: addr, elem: elem, count: count, stride: stride, strided: true})
}

// LoadStrided reads count elem-byte words at stride intervals starting at
// addr, mirroring StoreStrided for column-major request buffers. The
// returned slice is the warp's gather buffer, which the next
// LoadStrided of any of its lanes overwrites: copy what must outlive
// the call's block.
func (t *Thread) LoadStrided(addr mem.Addr, count, elem, stride int) []byte {
	if stride <= 0 || elem <= 0 || elem > stride {
		panic("simt: bad strided access shape")
	}
	if count == 0 {
		return nil
	}
	t.chargeStrided(addr, count, elem, stride)
	b := t.mem.Bytes(addr, (count-1)*stride+elem)
	var out []byte
	if t.warp != nil {
		t.warp.gather = resized(t.warp.gather, count*elem)
		out = t.warp.gather
	} else {
		out = make([]byte, count*elem)
	}
	if elem == WordSize {
		mem.GatherWords(out, b, stride)
		return out
	}
	for i := 0; i < count; i++ {
		copy(out[i*elem:(i+1)*elem], b[i*stride:i*stride+elem])
	}
	return out
}

func stridedCount(n, elem, stride int) int {
	if stride <= 0 || elem <= 0 || elem > stride {
		panic("simt: bad strided access shape")
	}
	if n%elem != 0 {
		panic("simt: strided payload not a multiple of element size")
	}
	return n / elem
}

// Atomic charges an atomic read-modify-write on device memory (one
// transaction-sized access plus serialization cost of n conflicting
// lanes). Rhythm uses atomics for lock-free session/cohort pool updates.
func (t *Thread) Atomic(addr mem.Addr) {
	t.accesses = append(t.accesses, access{addr: addr, elem: 4, count: 1})
	t.ops += 2
}

// Defer schedules fn to run after every warp of the current launch has
// executed, on the host thread that issued the launch. Deferred
// callbacks run in (warp index, issue order within the warp) order —
// exactly the order a fully serial simulation would have reached them —
// so kernels use Defer for functional side effects on genuinely shared
// host state (the device backend database) whose outcome depends on
// operation order. The cost of the operation must still be charged
// inline (Compute/Store/Atomic) from the kernel block that defers it;
// Defer itself is free and purely functional.
func (t *Thread) Defer(fn func()) {
	if t.warp == nil {
		// Detached thread (unit-test harnesses build Threads without
		// runWarp); run inline, which is trivially serial order.
		fn()
		return
	}
	t.warp.deferred = append(t.warp.deferred, fn)
	t.warp.ordered = true
}

// DeferCommuting is Defer for a callback that commutes with every other
// commuting callback of its launch: it reads shared host state that no
// commuting callback changes (a pure backend read) and writes only what
// its own lane owns. A launch that deferred nothing but commuting
// callbacks runs them concurrently on the host workers, at the launch's
// place in the batch's commit order; one ordinary Defer anywhere in the
// launch commits all of its callbacks serially in (warp, issue) order,
// as Defer alone does.
func (t *Thread) DeferCommuting(fn func()) {
	if t.warp == nil {
		fn()
		return
	}
	t.warp.deferred = append(t.warp.deferred, fn)
}

func (t *Thread) reset() {
	t.ops = 0
	t.accesses = t.accesses[:0]
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread(id=%d lane=%d)", t.ID, t.Lane)
}
