package simt

// Launch-level parallelism needs to know which kernel launches of one
// epoch batch may execute concurrently. Gate independence (no stream or
// hardware-queue ordering between them) already guarantees that batched
// launches touch disjoint DEVICE memory — Rhythm's pipeline never lets
// two un-ordered operations share a buffer. What gates cannot see is
// shared HOST state a kernel touches during execution: the session
// array a login kernel creates entries in, for example. Footprints make
// that state explicit so the batch scheduler can build conflict groups:
// launches whose footprints conflict serialize in canonical (stream,
// seq) order; everything else runs concurrently.
//
// Programs that do not declare a footprint are conservatively assumed
// to conflict with every other launch — correct for arbitrary kernels,
// it just forfeits launch-level overlap for their batches. Deferred
// side effects (Thread.Defer, Thread.DeferCommuting) never need
// declaring: they run in the commit phase, launch by launch in
// canonical order, regardless (see Device.flushPending).

// Footprint declares the shared host state one kernel launch reads and
// writes during execution. Tokens are compared with Go equality, so use
// pointers to the shared structures themselves (a *session.Array, a
// *backend.DB) as tokens. The zero Footprint declares "touches no
// shared state": such launches conflict with nothing.
type Footprint struct {
	// Reads lists shared state the kernel only observes. Readers of a
	// token conflict with its writers but not with other readers.
	Reads []any
	// Writes lists shared state the kernel mutates. A token's writer
	// conflicts with every other launch that reads or writes it.
	Writes []any
	// Ordered marks writes that do not commute across the launch's own
	// lanes — two creates contending for a table's last free slot — so
	// that what a lane gets must depend on lane order alone: the
	// launch's warps run one after another on one host worker, in warp
	// order, which is lane order.
	Ordered bool
}

// Footprinter is implemented by Programs that declare their shared-state
// footprint, opting in to concurrent execution with other launches of
// the same epoch batch.
type Footprinter interface {
	LaunchFootprint() Footprint
}

// conflictGroups partitions a canonically ordered batch into groups of
// mutually conflicting launches using a union-find over footprint
// tokens. The result is deterministic for a given batch order: groups
// are emitted in order of their first (lowest-index) member, and each
// group lists member indexes ascending — so serial in-group execution
// visits launches in canonical order.
func conflictGroups(batch []pendingLaunch) [][]int {
	n := len(batch)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	// Token table: every launch touching a token is recorded; if any of
	// them writes it, all of them conflict.
	type tokenUse struct {
		members []int
		written bool
	}
	tokens := map[any]*tokenUse{}
	use := func(i int, tok any, write bool) {
		tu, ok := tokens[tok]
		if !ok {
			tu = &tokenUse{}
			tokens[tok] = tu
		}
		tu.members = append(tu.members, i)
		tu.written = tu.written || write
	}
	unknown := -1 // first launch with no declared footprint
	for i := range batch {
		fp, ok := batch[i].prog.(Footprinter)
		if !ok {
			// No declaration: conflicts with everything. Chain all
			// unknowns together and mark the batch for full merge below.
			if unknown < 0 {
				unknown = i
			} else {
				union(unknown, i)
			}
			continue
		}
		f := fp.LaunchFootprint()
		for _, tok := range f.Reads {
			use(i, tok, false)
		}
		for _, tok := range f.Writes {
			use(i, tok, true)
		}
	}
	for _, tu := range tokens {
		if !tu.written {
			continue
		}
		for _, m := range tu.members[1:] {
			union(tu.members[0], m)
		}
	}
	if unknown >= 0 {
		// An undeclared launch may touch anything: serialize the whole
		// batch into one canonical-order group.
		for i := 1; i < n; i++ {
			union(0, i)
		}
	}

	groupOf := map[int]int{} // root -> index into groups
	var groups [][]int
	for i := 0; i < n; i++ {
		r := find(i)
		g, ok := groupOf[r]
		if !ok {
			g = len(groups)
			groupOf[r] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}
