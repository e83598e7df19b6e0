package cluster

import (
	"time"

	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// Health is a device's state in the pool's health model.
type Health int

// Device health states. Stalled devices still accept and execute work
// (slowly); Dead devices never launch again and their groups fail over.
const (
	Healthy Health = iota
	Stalled
	Dead
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Stalled:
		return "stalled"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// drainPoll is how often a worker with nothing local to do re-checks
// the pool-wide in-flight count while the cluster drains.
const drainPoll = 500 * time.Microsecond

// device is one pool member: a modeled SIMT device plus the single
// worker goroutine that owns it. Fields split three ways — worker-only
// (engine, device, slots, backlog, fault state), channel (ch carries
// dispatched units in), and cl.statsMu-guarded (health and the mirrored
// counters every other goroutine reads).
type device struct {
	cl  *Cluster
	id  int
	eng *sim.Engine
	// dev is the modeled device, built with its streams and slots by the
	// first unit the worker launches (build), so a pool that only ever
	// executes host units backs no device memory. The worker writes it
	// once, under cl.statsMu; other goroutines read it under that lock.
	dev *simt.Device

	// Worker-owned execution state. slots[s] holds execution slot s's
	// per-workload cohort state (service.Slot, by workload index) —
	// every registered workload can bind cohorts on every slot.
	streams   []*simt.Stream
	slots     [][]service.Slot
	freeSlots []int
	backlog   []*Unit
	stray     *groupState // state for Group -1 units (never touched by them)
	faults    faultCursor
	unitsSeen int
	deadFlag  bool  // a loss fault (or escalated launch error) fired
	deadUnit  *Unit // the un-launched unit that tripped it
	stopped   bool

	ch chan *Unit

	// Guarded by cl.statsMu. The simt.Device's own counters and the
	// engine clock are worker-confined, so the worker mirrors them here
	// (mirrorLocked) at every unit completion for Snapshot to read.
	health       Health
	outstanding  int
	unitsDone    uint64
	hostUnits    uint64
	launchErrors uint64
	stalls       uint64
	snapStats    simt.DeviceStats
	snapProfiled uint64
	virtNow      sim.Time
}

func newDevice(c *Cluster, id int) *device {
	d := &device{
		cl:  c,
		id:  id,
		eng: sim.NewEngine(),
		// One session node and a store set: the stray state only has to
		// be non-nil.
		stray:  newGroupState(c.cfg.Registry, 1, 1),
		faults: faultCursor{faults: c.cfg.Faults.forDevice(id)},
		ch:     make(chan *Unit, c.cfg.QueueDepth),
	}
	for i := 0; i < c.cfg.SlotsPerDevice; i++ {
		d.freeSlots = append(d.freeSlots, i)
	}
	return d
}

// build backs the modeled device: its memory, one stream and one slot
// set per execution slot. Nothing has run on the engine before it, so a
// device built at its first launch simulates exactly as one built with
// the pool.
func (d *device) build() {
	reg := d.cl.cfg.Registry
	memBytes := int(int64(d.cl.cfg.SlotsPerDevice)*reg.DeviceBytes(d.cl.cfg.CohortSize)) + 1<<20 // alignment slack
	dev := simt.NewDevice(d.eng, d.cl.cfg.Simt, memBytes, nil)
	for i := 0; i < d.cl.cfg.SlotsPerDevice; i++ {
		d.streams = append(d.streams, dev.NewStream())
		d.slots = append(d.slots, reg.NewSlots(dev, d.cl.cfg.CohortSize, service.TitanB))
	}
	d.cl.statsMu.Lock()
	d.dev = dev
	d.cl.statsMu.Unlock()
}

// published returns the modeled device, nil until the worker has built
// it. Safe from any goroutine.
func (d *device) published() *simt.Device {
	d.cl.statsMu.Lock()
	defer d.cl.statsMu.Unlock()
	return d.dev
}

// run is the worker loop. It is the only goroutine that steps the
// engine or touches device memory. Shape: launch backlog onto free
// slots in FIFO order; while engine work is pending, prefer draining arrivals
// over stepping (Go select takes a ready case before default, so a
// prefilled queue is fully absorbed before virtual time advances —
// the manual-mode determinism contract); once stopped, exit when the
// whole pool is quiescent.
func (d *device) run() {
	defer d.cl.wg.Done()
	stop := d.cl.stopCh
	for {
		for len(d.backlog) > 0 && len(d.freeSlots) > 0 && !d.deadFlag {
			u := d.backlog[0]
			d.backlog = d.backlog[1:]
			d.tryLaunch(u)
		}
		if d.deadFlag {
			d.die(stop)
			return
		}
		if d.pendingWork() {
			select {
			case u := <-d.ch:
				d.backlog = append(d.backlog, u)
			case <-stop:
				stop = nil
				d.stopped = true
			default:
				d.step()
			}
			continue
		}
		d.cl.aligner.idle(d.id)
		if d.stopped {
			if len(d.ch) == 0 && len(d.backlog) == 0 && d.cl.totalInFlight() == 0 {
				d.cl.statsMu.Lock()
				d.mirrorLocked()
				d.cl.statsMu.Unlock()
				return
			}
			// Another device may still transfer work here (its dying
			// worker reserved a slot in the in-flight count first), so
			// poll rather than block.
			select {
			case u := <-d.ch:
				d.backlog = append(d.backlog, u)
			case <-time.After(drainPoll):
			}
			continue
		}
		select {
		case u := <-d.ch:
			d.backlog = append(d.backlog, u)
		case <-stop:
			stop = nil
			d.stopped = true
		}
	}
}

// tryLaunch consumes one backlog unit: consult the fault schedule, then
// either execute it on a free slot or take the fault path. Launch
// errors retry locally (the unit stays on this device, at the backlog
// head); MaxAttempts consecutive errors escalate to device death so the
// unit can fail over — cross-device retry is only safe after this
// device has quiesced, because until then its in-flight kernels still
// touch the groups it owns.
func (d *device) tryLaunch(u *Unit) {
	d.unitsSeen++
	if f := d.faults.next(d.unitsSeen); f != nil {
		switch f.Kind {
		case KindLoss:
			d.deadFlag = true
			d.deadUnit = u
			return
		case KindLaunchError:
			u.attempts++
			d.cl.statsMu.Lock()
			d.launchErrors++
			d.cl.retries++
			d.cl.statsMu.Unlock()
			if u.attempts >= d.cl.cfg.MaxAttempts {
				d.deadFlag = true
				d.deadUnit = u
				return
			}
			d.backlog = append([]*Unit{u}, d.backlog...)
			return
		case KindStall:
			d.cl.statsMu.Lock()
			d.stalls++
			d.health = Stalled
			d.cl.statsMu.Unlock()
			time.Sleep(f.duration())
			d.cl.statsMu.Lock()
			if d.health == Stalled {
				d.health = Healthy
			}
			d.cl.statsMu.Unlock()
			// Stalls lose nothing; fall through to the launch.
		}
	}
	slot := d.freeSlots[len(d.freeSlots)-1]
	d.freeSlots = d.freeSlots[:len(d.freeSlots)-1]
	d.execute(u, slot)
}

// die finalizes a lost device. Ordering is the failover/idempotency
// contract (DESIGN.md §11): backend writes commit at unit launch, so
// every launched unit has committed and must complete and deliver —
// step the engine until the in-flight slots drain. Only then is Dead
// published (under statsMu, after which no new unit can route here and
// group ownership may move), and only un-launched work — whose writes
// never happened — is re-dispatched. The displaced units therefore
// execute exactly once, and re-execution on the new owner reads the
// same host-authoritative group state the old owner left behind.
func (d *device) die(stop chan struct{}) {
	d.cl.aligner.leave(d.id)
	for d.pendingWork() {
		d.step()
	}
	d.cl.statsMu.Lock()
	d.health = Dead
	d.mirrorLocked()
	d.cl.statsMu.Unlock()
	if d.deadUnit != nil {
		d.cl.transfer(d.deadUnit, d.id, true)
		d.deadUnit = nil
	}
	for _, u := range d.backlog {
		d.cl.transfer(u, d.id, false)
	}
	d.backlog = nil
	// Drain: units that were enqueued before Dead was published may
	// still sit in ch; units mid-transfer from another dying device may
	// yet arrive (their senders picked this device while it was alive).
	// Forward everything until the pool is quiescent and stopped.
	for {
		if d.stopped && len(d.ch) == 0 && d.cl.totalInFlight() == 0 {
			return
		}
		select {
		case u := <-d.ch:
			d.cl.transfer(u, d.id, false)
		case <-stop:
			stop = nil
			d.stopped = true
		case <-time.After(drainPoll):
		}
	}
}

// stateFor resolves the group state a unit executes against. Group -1
// units carry no usable affinity, so their kernels fail before touching
// state; the per-device stray set exists only so the bind has non-nil
// stores and sessions to hand them, and holds one session node.
func (d *device) stateFor(g int) *groupState {
	if g >= 0 {
		return d.cl.groups[g]
	}
	return d.stray
}

// execute runs a unit's stage-kernel chain on slot's stream: the
// workload binds the cohort onto the slot, then its n backend + n+1
// process stage kernels launch back-to-back, then the response
// transpose and writeback. Identical to the single-device server's
// chain except that sessions and backends come from the unit's shard
// group.
func (d *device) execute(u *Unit, slot int) {
	if d.dev == nil {
		d.build()
	}
	st := d.stateFor(u.Group)
	reg := d.cl.cfg.Registry
	sp := reg.Spec(u.Type)
	widx := reg.WorkloadIndex(u.Type)
	unit := d.slots[slot][widx].Bind(sp.Local, u.Reqs, st.sessions, st.commits[widx])
	count := len(u.Reqs)
	stream := d.streams[slot]
	launchStart := d.eng.Now()
	res := &Result{Device: d.id, Attempts: u.attempts + 1, Hops: u.hops}
	stages := unit.Stages()
	var nextStage func(k int)
	nextStage = func(k int) {
		wallStart := time.Now()
		stream.Launch(unit.Stage(k), count, func(ls simt.LaunchStats) {
			res.Stages = append(res.Stages, StageExec{Stats: ls, Start: wallStart, Dur: time.Since(wallStart)})
			if k < stages-1 {
				nextStage(k + 1)
				return
			}
			d.writeback(u, unit, stream, slot, count, launchStart, res)
		})
	}
	nextStage(0)
}

// lockedBackend is the backend a device cohort binds: one of its group's
// stores behind the group's mutex. Each Handle — one lane's deferred
// commit — runs the store call and copies the response into buf under
// the lock, since the store reuses its response buffer on the next
// Handle, which a concurrent host unit of the group may make. buf is the
// lane's to read until the group's next commit, and a group's commits
// run serially on the worker of the device that owns it.
type lockedBackend struct {
	g   *groupState
	w   int // workload index
	buf []byte
}

// Handle implements service.Backend.
func (l *lockedBackend) Handle(req []byte) []byte {
	l.g.mu.Lock()
	l.buf = append(l.buf[:0], l.g.bes[l.w].Handle(req)...)
	l.g.mu.Unlock()
	return l.buf
}

// SetWriteHook implements service.Backend by registering on the store.
func (l *lockedBackend) SetWriteHook(fn func(uid uint64)) { l.g.bes[l.w].SetWriteHook(fn) }

// writeback transposes the responses to row-major, copies them out of
// device memory, and completes the unit.
func (d *device) writeback(u *Unit, unit service.Unit, stream *simt.Stream, slot, count int, launchStart sim.Time, res *Result) {
	unit.Writeback(stream)
	stream.Barrier(func() {
		res.RenderStart = time.Now()
		res.Resps = unit.Responses()
		for i := 0; i < count; i++ {
			if unit.Failed(i) {
				res.KernelErrs++
			}
		}
		res.RenderDur = time.Since(res.RenderStart)
		res.DeviceTime = d.eng.Now() - launchStart
		d.freeSlots = append(d.freeSlots, slot)
		d.cl.statsMu.Lock()
		d.outstanding--
		d.unitsDone++
		d.mirrorLocked()
		d.cl.statsMu.Unlock()
		u.Done(res)
	})
}

// pendingWork reports whether the device's simulation still has
// anything to do: scheduled engine events, or gate-released kernel
// launches waiting for their epoch flush (those produce no engine
// events until the flush — see simt.Device.PendingLaunches).
func (d *device) pendingWork() bool {
	return d.eng.Pending() > 0 || (d.dev != nil && d.dev.PendingLaunches() > 0)
}

// step advances this device's engine by one event under the pool's
// epoch aligner: when per-epoch virtual-clock alignment is enabled, the
// worker first waits until its clock is within one epoch of the
// slowest busy device, then steps and publishes its new clock.
func (d *device) step() {
	d.cl.aligner.gate(d.id, d.eng.Now())
	d.eng.Step()
	d.cl.aligner.report(d.id, d.eng.Now())
}

// mirrorLocked refreshes the statsMu-guarded copies of the
// worker-confined device counters (zero until the device is built).
// Caller holds cl.statsMu.
func (d *device) mirrorLocked() {
	if d.dev == nil {
		return
	}
	d.snapStats = d.dev.Stats()
	d.snapProfiled = d.dev.ProfiledLaunches()
	d.virtNow = d.eng.Now()
}
