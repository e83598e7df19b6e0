package simt

import (
	"fmt"
	"slices"
	"sync"

	"rhythm/internal/mem"
)

// warpStats accumulates the cost of executing one warp to completion.
type warpStats struct {
	issueCycles   int64 // warp-instruction issue slots consumed
	memBytes      int64 // bytes moved in global-memory transactions
	transactions  int64 // coalesced transaction count
	accessBytes   int64 // bytes the lanes actually requested (ideal-coalescing floor)
	blockExecs    int64 // basic-block executions (full or partial mask)
	divergentExec int64 // block executions with a partial active mask
	maxThreadOps  int64 // serial ops of the busiest thread (critical path)
}

// maxBlockExecsPerThread guards against runaway kernels.
const maxBlockExecsPerThread = 1 << 22

// warpScratch is everything one warp's execution needs besides its
// program: the lanes' Threads, the scheduler's per-lane state and the
// coalescer's segment list. A launch takes one per warp from
// warpScratches and returns it once flushPending has run the launch's
// deferred commits — a Defer closure may hold what its lane computed,
// but never sees a Thread reused by a later launch — so the steady
// state allocates none of it, and a Thread's access list keeps its
// capacity from launch to launch.
type warpScratch struct {
	threads      []Thread  // backing storage for lanes
	lanes        []*Thread // the warp's live lanes, in lane order
	pcs          []BlockID
	perThreadOps []int64
	active       []*Thread
	activeIdx    []int
	shared       warpShared
	segs         []mem.Addr
}

var warpScratches = sync.Pool{New: func() any { return new(warpScratch) }}

// getWarpScratch takes a scratch from the pool and binds lanes to
// threads first..first+n-1 of a launch over m.
func getWarpScratch(m *mem.Memory, first, n int) *warpScratch {
	sc := warpScratches.Get().(*warpScratch)
	if cap(sc.threads) < n {
		sc.threads = make([]Thread, n)
	}
	sc.threads = sc.threads[:n]
	sc.lanes = sc.lanes[:0]
	for lane := range sc.threads {
		t := &sc.threads[lane]
		*t = Thread{ID: first + lane, Lane: lane, mem: m, accesses: t.accesses[:0]}
		sc.lanes = append(sc.lanes, t)
	}
	return sc
}

// release returns sc to the pool, dropping what it points into: the
// launch's memory and its deferred closures.
func (sc *warpScratch) release() {
	for i := range sc.threads {
		sc.threads[i].mem, sc.threads[i].warp = nil, nil
	}
	clear(sc.shared.deferred)
	sc.shared.deferred, sc.shared.ordered = sc.shared.deferred[:0], false
	warpScratches.Put(sc)
}

// resized returns s with length n, reusing its storage when it can.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runWarp executes prog for sc's lanes (<= WarpSize of them) in SIMT
// fashion: at each step the scheduler picks the minimum pending block
// among live lanes, executes it for exactly the lanes waiting at it
// (the active mask), and charges the warp max-ops across those lanes plus
// the coalesced memory traffic of their zipped accesses. Lanes that
// branched elsewhere are masked off and pay nothing, but the warp as a
// whole serializes over the distinct blocks — divergence is lost
// throughput, exactly as on hardware. The warp's Thread.Defer and
// DeferCommuting callbacks collect in sc.shared.deferred in issue order,
// to be committed once every warp of the launch has finished.
func runWarp(cfg Config, prog Program, sc *warpScratch) warpStats {
	var ws warpStats
	threads := sc.lanes
	n := len(threads)
	sc.shared.deferred, sc.shared.ordered = sc.shared.deferred[:0], false
	if n == 0 {
		return ws
	}
	if n > cfg.WarpSize {
		panic(fmt.Sprintf("simt: %d threads exceed warp size %d", n, cfg.WarpSize))
	}
	pcs := resized(sc.pcs, n)
	perThreadOps := resized(sc.perThreadOps, n)
	clear(perThreadOps)
	sc.pcs, sc.perThreadOps = pcs, perThreadOps
	for i := range pcs {
		pcs[i] = prog.Entry()
		threads[i].warp = &sc.shared
	}
	var execs int64
	active := sc.active[:0]
	activeIdx := sc.activeIdx[:0]
	for {
		// Find the minimum pending block among live lanes.
		cur := Halt
		live := 0
		for _, pc := range pcs {
			if pc == Halt {
				continue
			}
			live++
			if cur == Halt || pc < cur {
				cur = pc
			}
		}
		if cur == Halt {
			break
		}
		active = active[:0]
		activeIdx = activeIdx[:0]
		for i, pc := range pcs {
			if pc == cur {
				active = append(active, threads[i])
				activeIdx = append(activeIdx, i)
			}
		}
		// Execute the block for the active mask.
		var blockOps int64
		for k, t := range active {
			t.reset()
			pcs[activeIdx[k]] = prog.Exec(cur, t)
			if t.ops > blockOps {
				blockOps = t.ops
			}
			perThreadOps[activeIdx[k]] += t.ops
		}
		ws.blockExecs++
		if len(active) < live {
			ws.divergentExec++
		}
		// Issue cost: one slot per ALU op (max across lanes — lockstep),
		// plus one slot per memory instruction step.
		ws.issueCycles += blockOps
		steps, bytes, txns := sc.coalesce(cfg, active)
		ws.issueCycles += steps
		ws.memBytes += bytes
		ws.transactions += txns
		for _, t := range active {
			for _, a := range t.accesses {
				ws.accessBytes += int64(a.elem * a.count)
			}
		}
		execs++
		if execs > maxBlockExecsPerThread {
			panic(fmt.Sprintf("simt: kernel %s exceeded %d block executions (runaway loop?)", prog.Name(), execs))
		}
	}
	sc.active, sc.activeIdx = active, activeIdx
	for _, ops := range perThreadOps {
		if ops > ws.maxThreadOps {
			ws.maxThreadOps = ops
		}
	}
	return ws
}

// coalesce zips the active lanes' access lists by issue index and counts
// the unique SegmentBytes-aligned segments each lockstep access touches.
// It returns the number of memory instruction steps, the bytes moved
// (transactions × segment size), and the transaction count.
func (sc *warpScratch) coalesce(cfg Config, lanes []*Thread) (steps, bytes, txns int64) {
	maxLen := 0
	for _, t := range lanes {
		if len(t.accesses) > maxLen {
			maxLen = len(t.accesses)
		}
	}
	if maxLen == 0 {
		return 0, 0, 0
	}
	seg := mem.Addr(cfg.SegmentBytes)
	segs := sc.segs[:0]
	for k := 0; k < maxLen; k++ {
		// Determine the zipped access at step k. Strided accesses expand
		// into `count` lockstep steps.
		var maxCount int64 = 1
		for _, t := range lanes {
			if k < len(t.accesses) && t.accesses[k].strided && int64(t.accesses[k].count) > maxCount {
				maxCount = int64(t.accesses[k].count)
			}
		}
		if s, b, x, ok := coalesceUniformStrided(cfg, lanes, k, maxCount); ok {
			steps += s
			bytes += b
			txns += x
			continue
		}
		if maxCount == 1 {
			// Simple zipped access: coalesce lanes' ranges.
			segs = segs[:0]
			for _, t := range lanes {
				if k >= len(t.accesses) {
					continue
				}
				a := t.accesses[k]
				sz := a.elem * a.count
				if a.strided {
					sz = 1 + (a.count-1)*a.stride
					if a.count == 1 {
						sz = a.elem
					}
				}
				first := a.addr / seg
				last := (a.addr + mem.Addr(sz-1)) / seg
				for s := first; s <= last; s++ {
					segs = append(segs, s)
				}
			}
			u := uniqueSegs(segs)
			steps++
			txns += u
			bytes += u * int64(cfg.SegmentBytes)
			continue
		}
		// Strided lockstep expansion: step i of every lane accesses
		// addr_l + i*stride_l. Count unique segments per expanded step.
		for i := int64(0); i < maxCount; i++ {
			segs = segs[:0]
			for _, t := range lanes {
				if k >= len(t.accesses) {
					continue
				}
				a := t.accesses[k]
				var at mem.Addr
				var sz int
				if a.strided {
					if i >= int64(a.count) {
						continue
					}
					at = a.addr + mem.Addr(i)*mem.Addr(a.stride)
					sz = a.elem
				} else {
					if i > 0 {
						continue
					}
					at = a.addr
					sz = a.elem * a.count
				}
				first := at / seg
				last := (at + mem.Addr(sz-1)) / seg
				for s := first; s <= last; s++ {
					segs = append(segs, s)
				}
			}
			u := uniqueSegs(segs)
			steps++
			txns += u
			bytes += u * int64(cfg.SegmentBytes)
		}
	}
	sc.segs = segs
	return steps, bytes, txns
}

// coalesceUniformStrided is the fast path for the overwhelmingly common
// kernel pattern: every active lane issues the same strided access shape
// at step k, with bases packed contiguously lane-to-lane (a fully aligned
// column-major cohort store). Transactions are then computable in closed
// form instead of per-step set operations. ok is false when the shape
// does not match and the general path must run.
func coalesceUniformStrided(cfg Config, lanes []*Thread, k int, maxCount int64) (steps, bytes, txns int64, ok bool) {
	if maxCount <= 1 || len(lanes) == 0 {
		return 0, 0, 0, false
	}
	var ref access
	for i, t := range lanes {
		if k >= len(t.accesses) {
			return 0, 0, 0, false
		}
		a := t.accesses[k]
		if !a.strided {
			return 0, 0, 0, false
		}
		if i == 0 {
			ref = a
			continue
		}
		if a.elem != ref.elem || a.stride != ref.stride || a.count != ref.count {
			return 0, 0, 0, false
		}
		// Lane bases must be packed: base_i = base_0 + i*elem.
		if a.addr != ref.addr+mem.Addr(i*ref.elem) {
			return 0, 0, 0, false
		}
	}
	span := len(lanes) * ref.elem // contiguous bytes per step
	if ref.stride < span {
		return 0, 0, 0, false // steps overlap; let the general path handle it
	}
	// Step i touches the segments of [at_i, at_i+span) with at_i = addr +
	// i*stride, a count that depends only on at_i mod seg. That offset
	// repeats with period seg / gcd(stride mod seg, seg) — 1 for the
	// cohort layouts, whose stride is a whole number of segments — so sum
	// one period, multiply by the whole periods, and walk the remainder.
	seg := cfg.SegmentBytes
	period := seg / gcd(ref.stride%seg, seg)
	whole, rest := ref.count/period, ref.count%period
	var perPeriod, tail int64
	for i := 0; i < min(period, ref.count); i++ {
		n := segmentsSpanned(ref.addr+mem.Addr(i*ref.stride), span, seg)
		if i < rest {
			tail += n
		}
		perPeriod += n
	}
	txns = int64(whole)*perPeriod + tail
	return int64(ref.count), txns * int64(seg), txns, true
}

// segmentsSpanned counts the seg-byte segments [at, at+n) touches (n > 0).
func segmentsSpanned(at mem.Addr, n, seg int) int64 {
	s := mem.Addr(seg)
	return int64((at+mem.Addr(n-1))/s - at/s + 1)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// uniqueSegs counts distinct values in segs (small slices; sort in place).
func uniqueSegs(segs []mem.Addr) int64 {
	if len(segs) == 0 {
		return 0
	}
	slices.Sort(segs)
	var n int64 = 1
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1] {
			n++
		}
	}
	return n
}
