package simt

import (
	"fmt"
	"math"
	"sort"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// LaunchStats reports the measured cost of one kernel launch.
type LaunchStats struct {
	Kernel        string
	Threads       int
	Warps         int
	IssueCycles   int64 // total warp-instruction issue slots
	MemBytes      int64 // global-memory traffic (transactions × segment)
	Transactions  int64
	IdealTxns     int64 // perfectly-coalesced transaction floor
	BlockExecs    int64
	DivergentExec int64 // block executions under a partial mask
	Duration      sim.Time
	// Seq is the profiler's launch-record sequence number (0 when
	// profiling is off), linking this launch to Device.Profile().
	Seq uint64
	// Occupancy is the issue-slot occupancy (min(warps, slots)/slots).
	Occupancy float64
	// EnergyJ is the modeled dynamic energy of the launch.
	EnergyJ float64
}

// DeviceStats aggregates device activity over a run.
type DeviceStats struct {
	Launches      uint64
	Copies        uint64
	CopiedBytes   uint64
	IssueCycles   int64
	MemBytes      int64
	Transactions  int64
	IdealTxns     int64 // perfectly-coalesced transaction floor
	DivergentExec int64
	BlockExecs    int64
	EnergyJ       float64  // modeled dynamic energy of all launches
	BusyTime      sim.Time // time the compute engine spent executing
}

// Device is a modeled SIMT accelerator attached to a simulation engine.
// Operations are issued through Streams; the device serializes execution
// on its compute engine and charges virtual time from the roofline cost
// model, while performing all work functionally on real bytes in Mem.
type Device struct {
	Cfg Config
	// Mem is the device memory. All kernel accesses resolve into it.
	Mem *mem.Memory
	// Bus is the host↔device interconnect used by MemcpyH2D/D2H. When nil
	// (an integrated SoC-style platform, as Titan B/C emulate), copies
	// complete in zero time.
	Bus *sim.Pipe

	eng     *sim.Engine
	compute *warpPool
	queues  []*hwQueue
	nextQ   int
	nextSID int
	stats   DeviceStats
	prof    *launchRing // nil when Cfg.ProfileOff

	// pending accumulates launches whose stream/queue gates have fired
	// but whose kernels have not executed yet; flushPending drains it at
	// the next engine drain point (epoch boundary). launchSeq is the
	// device-wide arrival counter breaking canonical-order ties.
	pending   []pendingLaunch
	launchSeq uint64
}

// pendingLaunch is one gate-released kernel launch awaiting its epoch's
// batch execution.
type pendingLaunch struct {
	stream   *Stream
	seq      uint64 // device-wide arrival order
	prog     Program
	n        int
	done     func(LaunchStats)
	complete func()
}

// warpPool models the device's execution capacity as warp-issue slots:
// a kernel occupies min(its warps, capacity) slots for its priced
// duration, so small kernels from independent streams genuinely overlap
// while a cohort-sized kernel (128 warps on a 56-slot Titan) owns the
// machine. Transposes occupy every slot — they saturate memory bandwidth
// and create the pipeline bubbles §6.1.2 describes. Admission is FIFO.
type warpPool struct {
	eng       *sim.Engine
	capacity  int
	available int
	queue     []pendingWork
	slotBusy  float64 // slot-nanoseconds of completed + running work
}

type pendingWork struct {
	slots int
	dur   sim.Time
	done  func()
}

func newWarpPool(eng *sim.Engine, capacity int) *warpPool {
	return &warpPool{eng: eng, capacity: capacity, available: capacity}
}

// submit enqueues work needing `slots` issue slots for dur.
func (p *warpPool) submit(slots int, dur sim.Time, done func()) {
	if slots > p.capacity {
		slots = p.capacity
	}
	if slots <= 0 {
		slots = 1
	}
	p.queue = append(p.queue, pendingWork{slots: slots, dur: dur, done: done})
	p.pump()
}

func (p *warpPool) pump() {
	for len(p.queue) > 0 && p.queue[0].slots <= p.available {
		w := p.queue[0]
		p.queue = p.queue[1:]
		p.available -= w.slots
		p.slotBusy += float64(w.slots) * float64(w.dur)
		p.eng.After(w.dur, func() {
			p.available += w.slots
			if w.done != nil {
				w.done()
			}
			p.pump()
		})
	}
}

// utilization reports the slot-weighted busy fraction over [0, now].
func (p *warpPool) utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return p.slotBusy / (float64(p.capacity) * float64(now))
}

// idle reports whether the pool has nothing running and nothing queued.
func (p *warpPool) idle() bool {
	return p.available == p.capacity && len(p.queue) == 0
}

// hwQueue is one hardware work queue. With a single queue (GTX690-style),
// operations from independent streams serialize behind each other —
// the false dependencies of §6.4. With 32 queues (HyperQ), streams map to
// distinct queues and only true stream order constrains them.
type hwQueue struct {
	tail *gate
}

// gate is a one-shot completion signal with waiters.
type gate struct {
	fired   bool
	waiters []func()
}

func newGate() *gate { return &gate{} }

func firedGate() *gate { return &gate{fired: true} }

func (g *gate) fire() {
	if g.fired {
		panic("simt: gate fired twice")
	}
	g.fired = true
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		w()
	}
}

func (g *gate) wait(f func()) {
	if g.fired {
		f()
		return
	}
	g.waiters = append(g.waiters, f)
}

// when runs f once both gates have fired.
func when(a, b *gate, f func()) {
	a.wait(func() { b.wait(f) })
}

// NewDevice creates a device with the given memory capacity (the backing
// store; Cfg.MemBytes is the nominal card capacity used for §6.3 checks).
func NewDevice(eng *sim.Engine, cfg Config, memBytes int, bus *sim.Pipe) *Device {
	cfg.validate()
	d := &Device{
		Cfg:     cfg,
		Mem:     mem.New(memBytes),
		Bus:     bus,
		eng:     eng,
		compute: newWarpPool(eng, cfg.maxConcurrentWarps()),
		queues:  make([]*hwQueue, cfg.Queues),
	}
	for i := range d.queues {
		d.queues[i] = &hwQueue{tail: firedGate()}
	}
	if !cfg.ProfileOff {
		ring := cfg.ProfileRing
		if ring == 0 {
			ring = defaultProfileRing
		}
		d.prof = newLaunchRing(ring)
	}
	// Epoch boundaries: flush batched launches whenever the engine would
	// otherwise advance the clock while this device's compute pool is
	// idle (the launches could have started), or when the event queue
	// drains entirely. Both triggers depend only on virtual event
	// structure, never on host scheduling, so batch membership — and
	// with it every simulated number — is identical at every
	// SimParallelism setting.
	eng.OnDrain(func(idle bool) bool {
		if len(d.pending) == 0 {
			return false
		}
		if !idle && !d.compute.idle() {
			return false
		}
		return d.flushPending()
	})
	return d
}

// Engine returns the simulation engine the device is bound to.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Stats returns a snapshot of accumulated device statistics.
func (d *Device) Stats() DeviceStats { return d.stats }

// Utilization reports the slot-weighted busy fraction of the device's
// issue capacity.
func (d *Device) Utilization() float64 { return d.compute.utilization(d.eng.Now()) }

// Stream is an ordered queue of device operations. Operations within a
// stream serialize; operations in different streams may overlap, subject
// to the hardware queue mapping and the compute engine.
type Stream struct {
	dev  *Device
	q    *hwQueue
	id   int
	tail *gate
}

// NewStream creates a stream, mapping it round-robin onto a hardware
// queue.
func (d *Device) NewStream() *Stream {
	q := d.queues[d.nextQ%len(d.queues)]
	d.nextQ++
	s := &Stream{dev: d, q: q, id: d.nextSID, tail: firedGate()}
	d.nextSID++
	return s
}

// enqueue chains op behind the stream tail and the hardware queue tail.
// op must invoke its argument exactly once when the operation completes.
func (s *Stream) enqueue(op func(complete func())) {
	done := newGate()
	sPrev, qPrev := s.tail, s.q.tail
	s.tail = done
	s.q.tail = done
	when(sPrev, qPrev, func() {
		op(done.fire)
	})
}

// Launch enqueues a kernel over n threads. done (optional) receives the
// launch statistics at kernel completion.
//
// Functional execution happens at the epoch boundary that closes over
// the launch (the next engine drain point after its stream gates fire),
// in canonical (stream, seq) batch order — streams only model time.
// This is safe because Rhythm's pipeline never reads a buffer before
// the completion callback of the op that wrote it, and completion
// callbacks are only scheduled at batch flush. See DESIGN.md §13.
func (s *Stream) Launch(prog Program, n int, done func(LaunchStats)) {
	if n <= 0 {
		panic("simt: launch needs at least one thread")
	}
	d := s.dev
	s.enqueue(func(complete func()) {
		d.pending = append(d.pending, pendingLaunch{
			stream:   s,
			seq:      d.launchSeq,
			prog:     prog,
			n:        n,
			done:     done,
			complete: complete,
		})
		d.launchSeq++
	})
}

// PendingLaunches reports how many gate-released launches are waiting
// for the next epoch flush. Drivers that poll Engine.Pending to decide
// whether the device still has work must OR it with this (an engine can
// be momentarily out of events while launches wait for their batch).
func (d *Device) PendingLaunches() int { return len(d.pending) }

// flushPending executes every accumulated launch as one epoch batch and
// reports whether it did anything. The sequence is the determinism
// contract (DESIGN.md §13):
//
//  1. Sort the batch canonically by (stream id, arrival seq). Batch
//     membership and order depend only on virtual event structure.
//  2. Partition into conflict groups from declared Footprints. Groups
//     execute concurrently on up to Cfg.SimParallelism host workers;
//     launches within a group run serially in canonical order. Each
//     launch's warps still fan out over Cfg.HostParallelism workers.
//  3. Commit serially in canonical order: replay deferred side effects
//     (Thread.Defer — Besim writes) and return the launch's warp scratch
//     to the pool, accumulate DeviceStats, and submit
//     to the compute pool, which schedules the profiler record, done
//     callback, and stream-gate completion at virtual finish time.
func (d *Device) flushPending() bool {
	if len(d.pending) == 0 {
		return false
	}
	batch := d.pending
	d.pending = nil
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].stream.id != batch[j].stream.id {
			return batch[i].stream.id < batch[j].stream.id
		}
		return batch[i].seq < batch[j].seq
	})
	groups := conflictGroups(batch)
	results := make([]kernelExec, len(batch))
	parallelFor(d.Cfg.simWorkers(), len(groups), func(g int) {
		for _, i := range groups[reorder(g, len(groups))] {
			results[i] = d.execKernel(batch[i].prog, batch[i].n)
		}
	})
	for i := range batch {
		pl := batch[i]
		st := results[i].stats
		results[i].commit()
		d.stats.Launches++
		d.stats.IssueCycles += st.IssueCycles
		d.stats.MemBytes += st.MemBytes
		d.stats.Transactions += st.Transactions
		d.stats.IdealTxns += st.IdealTxns
		d.stats.DivergentExec += st.DivergentExec
		d.stats.BlockExecs += st.BlockExecs
		d.stats.EnergyJ += st.EnergyJ
		d.stats.BusyTime += st.Duration
		start := d.eng.Now()
		done, complete, streamID := pl.done, pl.complete, pl.stream.id
		d.compute.submit(st.Warps, st.Duration, func() {
			if d.prof != nil {
				st.Seq = d.prof.add(LaunchRecord{
					Kernel:            st.Kernel,
					Stream:            streamID,
					Threads:           st.Threads,
					Warps:             st.Warps,
					Start:             start,
					End:               d.eng.Now(),
					IssueCycles:       st.IssueCycles,
					BlockExecs:        st.BlockExecs,
					DivergentExec:     st.DivergentExec,
					Transactions:      st.Transactions,
					IdealTransactions: st.IdealTxns,
					MemBytes:          st.MemBytes,
					Occupancy:         st.Occupancy,
					EnergyJ:           st.EnergyJ,
				})
			}
			if done != nil {
				done(st)
			}
			complete()
		})
	}
	return true
}

// MemcpyH2D enqueues a host-to-device copy of p to dst.
func (s *Stream) MemcpyH2D(dst mem.Addr, p []byte, done func()) {
	s.transfer(len(p), func() { s.dev.Mem.Write(dst, p) }, done)
}

// MemcpyD2H enqueues a device-to-host copy; the data is delivered to the
// done callback to mirror asynchronous CUDA semantics.
func (s *Stream) MemcpyD2H(src mem.Addr, n int, done func(data []byte)) {
	var data []byte
	s.transfer(n, func() { data = s.dev.Mem.Read(src, n) }, func() {
		if done != nil {
			done(data)
		}
	})
}

// ChargeD2H prices MemcpyD2H of n bytes — the copy count, the bytes and
// the bus time — and moves nothing: for a buffer whose device image is
// priced address space and whose bytes the host already holds.
func (s *Stream) ChargeD2H(n int, done func()) {
	s.transfer(n, nil, done)
}

// transfer enqueues an n-byte copy across the bus: move (optional) does
// the functional part when the operation starts, the rest is its cost.
func (s *Stream) transfer(n int, move, done func()) {
	d := s.dev
	s.enqueue(func(complete func()) {
		if move != nil {
			move()
		}
		d.stats.Copies++
		d.stats.CopiedBytes += uint64(n)
		after := func() {
			if done != nil {
				done()
			}
			complete()
		}
		if d.Bus == nil {
			after()
			return
		}
		d.Bus.Transfer(n, after)
	})
}

// Transpose enqueues an on-device transpose of a rows×cols matrix of
// elem-byte elements from src to dst. It is modeled as a
// bandwidth-bound kernel (one read + one write of every byte), matching
// the optimized CUDA transpose the paper builds on [48].
func (s *Stream) Transpose(dst, src mem.Addr, rows, cols, elem int, done func()) {
	s.TransposeLive(dst, src, rows, cols, elem, rows, cols, done)
}

// TransposeLive is Transpose for a partially filled fixed-geometry
// buffer: the device streams (and is charged for) the whole rows×cols
// matrix, but only the [0,liveRows)×[0,liveCols) corner holds meaningful
// data, so only it is moved functionally.
func (s *Stream) TransposeLive(dst, src mem.Addr, rows, cols, elem, liveRows, liveCols int, done func()) {
	s.transpose(rows, cols, elem, done, func() {
		mem.TransposeElemsRange(s.dev.Mem, dst, src, rows, cols, elem, liveRows, liveCols)
	})
}

// ChargeTranspose prices Transpose — the launch, its duration, traffic,
// energy and profiler record — and moves nothing: for a buffer whose
// column-major image is priced address space and whose bytes already lie
// in its row-major twin (column.go).
func (s *Stream) ChargeTranspose(rows, cols, elem int, done func()) {
	if rows <= 0 || cols <= 0 || elem <= 0 {
		panic("simt: bad transpose shape")
	}
	s.transpose(rows, cols, elem, done, nil)
}

// transpose enqueues a rows×cols×elem transpose: move (optional) does
// the functional part when the operation starts, the rest is its cost.
func (s *Stream) transpose(rows, cols, elem int, done, move func()) {
	d := s.dev
	s.enqueue(func(complete func()) {
		if move != nil {
			move()
		}
		bytes := int64(mem.TransposeBytes(rows, cols*elem))
		dur := sim.Time(float64(bytes)/d.Cfg.MemBandwidth*1e9) + sim.Time(d.Cfg.LaunchOverhead)
		txns := (bytes + int64(d.Cfg.SegmentBytes) - 1) / int64(d.Cfg.SegmentBytes)
		slots := d.Cfg.maxConcurrentWarps()
		energy := d.energyOf(slots, 0, bytes, dur)
		d.stats.Launches++
		d.stats.MemBytes += bytes
		d.stats.Transactions += txns
		d.stats.IdealTxns += txns // streams full segments: already ideal
		d.stats.EnergyJ += energy
		d.stats.BusyTime += dur
		start := d.eng.Now()
		// A transpose saturates the memory system: it owns every slot,
		// creating the pipeline bubbles the paper observes (§6.1.2).
		d.compute.submit(slots, dur, func() {
			if d.prof != nil {
				d.prof.add(LaunchRecord{
					Kernel:            "transpose",
					Stream:            s.id,
					Warps:             slots,
					Start:             start,
					End:               d.eng.Now(),
					Transactions:      txns,
					IdealTransactions: txns,
					MemBytes:          bytes,
					Occupancy:         1,
					EnergyJ:           energy,
				})
			}
			if done != nil {
				done()
			}
			complete()
		})
	})
}

// Barrier invokes done when every operation enqueued on the stream so far
// has completed (cudaStreamSynchronize analogue, but asynchronous).
func (s *Stream) Barrier(done func()) {
	s.enqueue(func(complete func()) {
		if done != nil {
			done()
		}
		complete()
	})
}

// kernelExec is one launch's execution-phase outcome: the priced stats
// plus its warps' scratch, whose deferred side effects await the batch's
// serial commit phase in (warp, issue) order.
type kernelExec struct {
	stats LaunchStats
	warps []*warpScratch
}

// commit runs the launch's deferred side effects in (warp, issue) order
// and returns every warp's scratch to the pool: nothing the launch's
// closures captured is reused before they have run.
func (k kernelExec) commit() {
	for _, sc := range k.warps {
		for _, fn := range sc.shared.deferred {
			fn()
		}
		sc.release()
	}
}

// execKernel executes every warp of the launch functionally and prices
// the launch with the roofline model. Warps run concurrently on up to
// Cfg.HostParallelism host workers (see hostpool.go); simulated results
// are identical to the serial path because each warp owns its scratch
// and per-warp stats are reduced in warp-index order below. A launch
// whose footprint is Ordered runs its warps serially instead.
// Order-sensitive side effects (Thread.Defer) are NOT run here: they
// stay in the warps' scratch for flushPending's serial commit phase,
// which also keeps them off the concurrent path when several launches of
// one epoch batch execute in parallel.
func (d *Device) execKernel(prog Program, n int) kernelExec {
	cfg := d.Cfg
	warps := (n + cfg.WarpSize - 1) / cfg.WarpSize
	results := make([]warpStats, warps)
	scratch := make([]*warpScratch, warps)
	workers, ordered := cfg.hostWorkers(), false
	if fp, ok := prog.(Footprinter); ok && fp.LaunchFootprint().Ordered {
		workers, ordered = 1, true
	}
	parallelFor(workers, warps, func(w int) {
		if !ordered {
			w = reorder(w, warps)
		}
		// Every warp takes its own scratch — sharing one across warps
		// would let a kernel's captured *Thread pointers be overwritten by
		// the next warp, serial or not.
		first := w * cfg.WarpSize
		scratch[w] = getWarpScratch(d.Mem, first, min(cfg.WarpSize, n-first))
		results[w] = runWarp(cfg, prog, scratch[w])
	})
	// Reduce in warp-index order. The stats are integer counters, so the
	// sums are exact regardless of order, but fixed order keeps the
	// reduction trivially schedule-independent.
	var total warpStats
	var maxWarpCycles int64
	for _, ws := range results {
		total.issueCycles += ws.issueCycles
		total.memBytes += ws.memBytes
		total.transactions += ws.transactions
		total.accessBytes += ws.accessBytes
		total.blockExecs += ws.blockExecs
		total.divergentExec += ws.divergentExec
		if ws.issueCycles > maxWarpCycles {
			maxWarpCycles = ws.issueCycles
		}
	}
	dur := d.price(warps, total.issueCycles, maxWarpCycles, total.memBytes)
	// The ideal-coalescing floor: the transactions a kernel requesting
	// the same bytes would issue if every access merged perfectly into
	// full segments. Actual/ideal is the coalescing efficiency the
	// column-major transpose optimization (§4.3) buys back.
	seg := int64(cfg.SegmentBytes)
	idealTxns := (total.accessBytes + seg - 1) / seg
	return kernelExec{
		stats: LaunchStats{
			Kernel:        prog.Name(),
			Threads:       n,
			Warps:         warps,
			IssueCycles:   total.issueCycles,
			MemBytes:      total.memBytes,
			Transactions:  total.transactions,
			IdealTxns:     idealTxns,
			BlockExecs:    total.blockExecs,
			DivergentExec: total.divergentExec,
			Duration:      dur,
			Occupancy:     d.occupancyOf(warps),
			EnergyJ:       d.energyOf(warps, total.issueCycles, total.memBytes, dur),
		},
		warps: scratch,
	}
}

// ForEachLane runs fn(0..n-1) on the device's host workers
// (Cfg.HostParallelism), the way a launch's warps run: host-side work
// per lane that the simulation does not price, such as materializing
// what a launch only priced. fn must not care which worker runs which
// lane or in what order.
func (d *Device) ForEachLane(n int, fn func(lane int)) {
	if reordered {
		inOrder := fn
		fn = func(lane int) { inOrder(reorder(lane, n)) }
	}
	parallelFor(d.Cfg.hostWorkers(), n, fn)
}

// reorder maps the i-th of n iterations whose order the host schedule
// may choose to the one to run: i itself, or n-1-i in the simtorder
// build.
func reorder(i, n int) int {
	if reordered {
		return n - 1 - i
	}
	return i
}

// price applies the roofline model: kernel time is the larger of the
// issue-bound time (total issue cycles spread over the device's issue
// slots, floored by the slowest warp's serial critical path) and the
// bandwidth-bound time, plus the fixed launch overhead.
func (d *Device) price(warps int, issueCycles, maxWarpCycles, memBytes int64) sim.Time {
	cfg := d.Cfg
	parallel := cfg.maxConcurrentWarps()
	if warps < parallel {
		parallel = warps
	}
	if parallel == 0 {
		parallel = 1
	}
	computeSec := float64(issueCycles) / (float64(parallel) * cfg.ClockHz)
	critical := float64(maxWarpCycles) / cfg.ClockHz
	if critical > computeSec {
		computeSec = critical
	}
	memSec := float64(memBytes) / cfg.MemBandwidth
	sec := math.Max(computeSec, memSec)
	return sim.Time(sec*1e9) + sim.Time(cfg.LaunchOverhead)
}

func (d *Device) String() string {
	return fmt.Sprintf("%s (%d SMs, %d queues)", d.Cfg.Name, d.Cfg.SMs, d.Cfg.Queues)
}
