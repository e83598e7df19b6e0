package simt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the host-side execution backend for warp-parallel kernel
// simulation. Warps of one launch are independent given the kernel
// safety contract (see DESIGN.md "Host parallelism"): each warp owns its
// thread scratch and warpShared scratchpad, kernels write disjoint
// per-thread ranges of device memory, and anything genuinely shared is
// either internally synchronized (the session array) or deferred to the
// end-of-launch commit phase — serial in (warp, issue) order for
// Thread.Defer, fanned out over these same workers for a launch whose
// callbacks all commute (Thread.DeferCommuting). The request-image
// transpose runs its column bands here too. Pricing stays deterministic
// because per-warp stats are reduced in warp-index order after the
// parallel section.

// hostPool is the process-wide persistent worker pool. Workers are
// spawned lazily up to the largest parallelism any device has requested
// and then reused by every launch, so steady-state kernel execution
// never pays goroutine startup.
var hostPool = struct {
	mu      sync.Mutex
	jobs    chan func()
	workers int
}{jobs: make(chan func(), 256)}

// ensureHostWorkers grows the pool to at least n workers.
func ensureHostWorkers(n int) {
	hostPool.mu.Lock()
	defer hostPool.mu.Unlock()
	for hostPool.workers < n {
		hostPool.workers++
		go func() {
			for job := range hostPool.jobs {
				job()
			}
		}()
	}
}

// parallelFor executes fn(0..n-1) across up to `workers` host threads.
// workers <= 1 runs the loop inline (the serial path — no goroutines, no
// atomics). Otherwise the calling goroutine participates alongside
// pool workers, so progress never depends on pool availability.
// Iterations are claimed with an atomic counter (work-stealing order),
// so fn must not care which worker runs which index or in what order.
//
// The call returns when every ITERATION has completed, not when every
// helper has run: helpers that are still queued when the caller's own
// loop finishes the work become no-ops whenever the pool gets to them.
// That distinction is what makes nesting (launch-level parallelFor over
// conflict groups, each group's kernels running warp-level parallelFor)
// deadlock-free — a helper stuck behind busy pool workers can never be
// something the caller is waiting FOR, because the caller participates
// and can always drive the iteration count to n alone; it only ever
// waits on helpers that are actively running fn.
func parallelFor(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ensureHostWorkers(workers - 1)
	var next, completed atomic.Int64
	done := make(chan struct{})
	loop := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
			if completed.Add(1) == int64(n) {
				close(done)
			}
		}
	}
	for w := 0; w < workers-1; w++ {
		select {
		case hostPool.jobs <- loop:
		default:
			// Queue full: every pool worker is busy and backlogged. The
			// caller's own loop below still guarantees completion.
		}
	}
	loop()
	<-done
}

// hostWorkers resolves the configured host parallelism for one launch:
// 0 (the default) uses every available core, 1 forces the serial path,
// and any larger value is an explicit worker cap.
func (c Config) hostWorkers() int {
	switch {
	case c.HostParallelism == 0:
		return runtime.GOMAXPROCS(0)
	case c.HostParallelism < 0:
		panic("simt: negative HostParallelism")
	default:
		return c.HostParallelism
	}
}

// simWorkers resolves the configured launch-level parallelism for one
// epoch batch, with the same 0 = all cores / 1 = serial convention as
// hostWorkers. Batch execution nests warp-level parallelFor calls inside
// launch-level ones; both draw from the shared host pool, whose
// caller-participation rule keeps nesting deadlock-free.
func (c Config) simWorkers() int {
	switch {
	case c.SimParallelism == 0:
		return runtime.GOMAXPROCS(0)
	case c.SimParallelism < 0:
		panic("simt: negative SimParallelism")
	default:
		return c.SimParallelism
	}
}
