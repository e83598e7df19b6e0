package session

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCreateLookupDelete(t *testing.T) {
	a := NewArray(64, 8)
	id, _, ok := a.Create(1001)
	if !ok {
		t.Fatal("Create failed")
	}
	uid, ok := a.Lookup(id)
	if !ok || uid != 1001 {
		t.Fatalf("Lookup = %d, %v", uid, ok)
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d", a.Len())
	}
	if !a.Delete(id) {
		t.Fatal("Delete failed")
	}
	if _, ok := a.Lookup(id); ok {
		t.Fatal("Lookup succeeded after Delete")
	}
	if a.Delete(id) {
		t.Fatal("double Delete succeeded")
	}
	if a.Len() != 0 {
		t.Fatalf("Len after delete = %d", a.Len())
	}
}

func TestIDCookieRoundTrip(t *testing.T) {
	a := NewArray(4096, 16)
	id, _, _ := a.Create(42)
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("cookie %q not 16 hex chars", s)
	}
	back, ok := ParseID(s)
	if !ok || back != id {
		t.Fatalf("ParseID(%q) = %v, %v", s, back, ok)
	}
}

func TestParseIDRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "xyz", "123", "zzzzzzzzzzzzzzzz", "0123456789abcdef0"} {
		if _, ok := ParseID(s); ok {
			t.Errorf("ParseID(%q) accepted", s)
		}
	}
}

func TestLookupRejectsForgedIDs(t *testing.T) {
	a := NewArray(8, 2)
	for _, forged := range []ID{0, 1, ^ID(0), ID(salt)} {
		if _, ok := a.Lookup(forged); ok {
			// Forged IDs may decode in-range; they must then hit an
			// unused node.
			t.Errorf("forged ID %v resolved", forged)
		}
	}
}

// TestBucketFullFails: a bucket whose every node was touched at the
// create's own time has no idle node to reclaim.
func TestBucketFullFails(t *testing.T) {
	a := NewArray(1, 4)
	a.SetClock(func() int64 { return 0 })
	var ids []ID
	for i := 0; i < 4; i++ {
		id, _, ok := a.Create(uint64(i))
		if !ok {
			t.Fatalf("Create %d failed early", i)
		}
		ids = append(ids, id)
	}
	if _, _, ok := a.Create(99); ok {
		t.Fatal("Create succeeded on full bucket")
	}
	a.Delete(ids[2])
	if _, _, ok := a.Create(99); !ok {
		t.Fatal("Create failed after a slot freed")
	}
}

func TestDistinctUsersGetDistinctIDs(t *testing.T) {
	a := NewArray(256, 64)
	seen := make(map[ID]bool)
	for i := 0; i < 4096; i++ {
		id, _, ok := a.Create(uint64(i))
		if !ok {
			t.Fatalf("Create %d failed", i)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id] = true
	}
	if a.Len() != 4096 {
		t.Fatalf("Len = %d", a.Len())
	}
}

// TestCollisionsCounted: packing one bucket forces creates past their
// first candidate slot, and every one still lands on a free node.
func TestCollisionsCounted(t *testing.T) {
	a := NewArray(1, 8)
	a.SetClock(func() int64 { return 0 })
	nodes := map[int]bool{}
	collisions := 0
	for i := 0; i < 8; i++ {
		uid := uint64(i * 977)
		id, _, ok := a.Create(uid)
		if !ok {
			t.Fatalf("create %d failed with free nodes left", i)
		}
		_, n, _, _ := a.decode(id)
		if nodes[n] {
			t.Fatalf("node %d handed out twice", n)
		}
		nodes[n] = true
		if n != int((hash(uid)>>32)%uint64(a.perB)) {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatal("packing one bucket must record collisions")
	}
	if _, _, ok := a.Create(99); ok {
		t.Fatal("a full bucket of nodes touched this instant accepted a ninth session")
	}
}

func TestCreateLookupProperty(t *testing.T) {
	// Property: any created session resolves to its user until deleted.
	a := NewArray(512, 32)
	f := func(uid uint64) bool {
		id, _, ok := a.Create(uid)
		if !ok {
			return true // bucket full is legal
		}
		got, ok := a.Lookup(id)
		if !ok || got != uid {
			return false
		}
		return a.Delete(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperCapacityScenario(t *testing.T) {
	// §6.3: 16M live sessions in a 64M-slot array keeps collision chance
	// ~25%. Scale down 1024×: 16K sessions in 64K slots, cohort-sized
	// bucket count.
	a := NewArray(4096, 16)
	created, collisions := 0, 0
	for i := 0; created < 16384 && i < 100000; i++ {
		uid := hashMix(uint64(i))
		if id, _, ok := a.Create(uid); ok {
			created++
			// A collision: the session did not land on its first
			// candidate slot.
			if _, n, _, _ := a.decode(id); n != int((hash(uid)>>32)%uint64(a.perB)) {
				collisions++
			}
		}
	}
	if created != 16384 {
		t.Fatalf("only created %d sessions", created)
	}
	frac := float64(collisions) / 16384
	if frac > 0.40 {
		t.Fatalf("collision fraction %.2f too high for 25%% load", frac)
	}
}

func hashMix(x uint64) uint64 { return hash(x ^ 0xabcdef) }

func TestNewArrayValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero buckets did not panic")
		}
	}()
	NewArray(0, 4)
}

// TestFullBucketReclaimsLongestIdle: a create into a full bucket takes
// the node idle longest, ties to the lowest node index, pays a bucket's
// node reads for it, and the reclaimed session's ID stops resolving.
func TestFullBucketReclaimsLongestIdle(t *testing.T) {
	var now int64
	a := NewArray(1, 4)
	a.SetClock(func() int64 { return now })
	ids := make([]ID, 4)
	for i := range ids {
		now = int64(i) * 1000
		var reads int
		ids[i], reads, _ = a.Create(uint64(i))
		if reads != 0 {
			t.Fatalf("create %d into a free node read %d extra nodes", i, reads)
		}
	}
	now = 10_000
	a.Lookup(ids[0]) // ids[1] is now the longest idle
	id, reads, ok := a.Create(100)
	if !ok || reads != 4 {
		t.Fatalf("create into a full bucket: ok %v, %d extra reads", ok, reads)
	}
	if _, ok := a.Lookup(ids[1]); ok {
		t.Fatal("the reclaimed session still resolves")
	}
	for _, i := range []int{0, 2, 3} {
		if uid, ok := a.Lookup(ids[i]); !ok || uid != uint64(i) {
			t.Fatalf("session %d lost: %d, %v", i, uid, ok)
		}
	}
	if uid, _ := a.Lookup(id); uid != 100 || a.Len() != 4 {
		t.Fatalf("new session resolves to %d, Len %d", uid, a.Len())
	}
	// Every node is now stamped 10µs: a create at the same instant
	// fails, one a microsecond later takes the lowest node index.
	if _, _, ok := a.Create(101); ok {
		t.Fatal("reclaimed a node touched this instant")
	}
	now = 11_000
	id, _, _ = a.Create(102)
	if _, n, _, _ := a.decode(id); n != 0 {
		t.Fatalf("tie went to node %d, want 0", n)
	}
}

// TestWallClockReclaims: an array without a clock keeps wall time, read
// only when a create finds its bucket full.
func TestWallClockReclaims(t *testing.T) {
	a := NewArray(1, 2)
	first, _, _ := a.Create(1)
	second, _, _ := a.Create(2)
	if a.wall.Load() != 0 || a.idle.Load() != nil {
		t.Fatal("a create into a free node read the clock or backed the stamps")
	}
	if _, _, ok := a.Create(3); !ok {
		t.Fatal("a full bucket on the wall clock refused a create")
	}
	_, ok1 := a.Lookup(first)
	_, ok2 := a.Lookup(second)
	if ok1 == ok2 || a.Len() != 2 || a.wall.Load() == 0 {
		t.Fatalf("after a reclaim: first resolves %v, second %v, Len %d", ok1, ok2, a.Len())
	}
}

// TestFirstGenerationIDs: a node's first session has the ID of its
// bucket and node alone, so IDs of a table that never reclaims are what
// they always were.
func TestFirstGenerationIDs(t *testing.T) {
	a := NewArray(64, 8)
	id, _, _ := a.Create(7)
	b, n, gen, _ := a.decode(id)
	if gen != 0 || id != ID((uint64(n)<<32|uint64(b))^salt) {
		t.Fatalf("first session's ID %v carries generation %d", id, gen)
	}
}

// TestNodesPerBucketHoldsTheFullestBucket: the rule's room is four
// times a load that the fullest bucket of a seeded table stays under.
func TestNodesPerBucketHoldsTheFullestBucket(t *testing.T) {
	for _, c := range []struct{ live, buckets, want int }{
		{4096, 1024, 68},      // NewSimServer at the benchmark's geometry
		{1024 + 512, 256, 80}, // newWorkload at the reduced geometry
		{0, 256, 4},
	} {
		if got := NodesPerBucket(c.live, c.buckets); got != c.want {
			t.Errorf("NodesPerBucket(%d, %d) = %d, want %d", c.live, c.buckets, got, c.want)
		}
		load := make([]int, c.buckets)
		for i := 0; i < c.live; i++ {
			load[BucketFor(hashMix(uint64(i)), c.buckets)]++
		}
		if m := slices.Max(load); 4*m > NodesPerBucket(c.live, c.buckets) {
			t.Errorf("%d live in %d buckets: fullest holds %d, over the rule's %d/4", c.live, c.buckets, m, NodesPerBucket(c.live, c.buckets))
		}
	}
}

// FuzzSessionArray drives random creates, lookups and deletes with an
// advancing clock on small tables and checks the table's invariants:
// Len counts the used nodes, an ID reclaimed or deleted never resolves,
// no ID resolves to a user other than its own, and a create into a
// bucket with an idle node never fails.
func FuzzSessionArray(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0, 0, 4, 40, 8, 12, 16, 20, 24, 28, 32, 36, 1, 5, 9, 2, 6, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 || len(ops) > 4096 {
			return
		}
		var now int64
		a := NewArray(1+int(ops[0]%4), 1+int(ops[1]%4))
		a.SetClock(func() int64 { return now })
		owner := map[ID]uint64{} // every live ID and its user
		ended := map[ID]bool{}   // IDs deleted or reclaimed
		end := func(id ID) { delete(owner, id); ended[id] = true }
		for i, op := range ops[2:] {
			uid := uint64(op >> 2)
			switch op & 3 {
			case 0: // a microsecond passes
				now += 1000
			case 1: // create
				b := BucketFor(uid, a.buckets)
				idle := false
				for idx := b * a.perB; idx < (b+1)*a.perB; idx++ {
					idle = idle || a.gens[idx]&1 == 0 || a.stamps()[idx] != micros(now)
				}
				id, _, ok := a.Create(uid)
				if !ok {
					if idle {
						t.Fatalf("op %d: create into bucket %d, which has an idle node, failed", i, b)
					}
					continue
				}
				nb, nn, _, _ := a.decode(id)
				for old := range owner {
					if ob, on, _, _ := a.decode(old); ob == nb && on == nn {
						end(old) // reclaimed
					}
				}
				owner[id] = uid
			case 2: // look up a live ID
				for id, u := range owner {
					if got, ok := a.Lookup(id); !ok || got != u {
						t.Fatalf("op %d: live ID %v resolves to %d, %v; want %d", i, id, got, ok, u)
					}
					break
				}
			case 3: // delete a live ID
				for id := range owner {
					if !a.Delete(id) {
						t.Fatalf("op %d: delete of live ID %v failed", i, id)
					}
					end(id)
					break
				}
			}
			for id := range ended {
				if _, ok := a.Lookup(id); ok {
					t.Fatalf("op %d: ended ID %v resolves", i, id)
				}
			}
			for id, u := range owner {
				b, n, gen, _ := a.decode(id)
				if idx := b*a.perB + n; a.gens[idx] != gen<<1|1 || a.users[idx] != u {
					t.Fatalf("op %d: live ID %v does not resolve to its user %d", i, id, u)
				}
			}
			used := 0
			for _, g := range a.gens {
				used += int(g & 1)
			}
			if a.Len() != used || used != len(owner) {
				t.Fatalf("op %d: Len %d, used nodes %d, live IDs %d", i, a.Len(), used, len(owner))
			}
		}
	})
}
