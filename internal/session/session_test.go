package session

import (
	"testing"
	"testing/quick"
)

func TestCreateLookupDelete(t *testing.T) {
	a := NewArray(64, 8)
	id, ok := a.Create(1001)
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
	id, _ := a.Create(42)
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

func TestBucketFullFails(t *testing.T) {
	a := NewArray(1, 4)
	var ids []ID
	for i := 0; i < 4; i++ {
		id, ok := a.Create(uint64(i))
		if !ok {
			t.Fatalf("Create %d failed early", i)
		}
		ids = append(ids, id)
	}
	if _, ok := a.Create(99); ok {
		t.Fatal("Create succeeded on full bucket")
	}
	a.Delete(ids[2])
	if _, ok := a.Create(99); !ok {
		t.Fatal("Create failed after a slot freed")
	}
}

func TestDistinctUsersGetDistinctIDs(t *testing.T) {
	a := NewArray(256, 64)
	seen := make(map[ID]bool)
	for i := 0; i < 4096; i++ {
		id, ok := a.Create(uint64(i))
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
	nodes := map[int]bool{}
	collisions := 0
	for i := 0; i < 8; i++ {
		uid := uint64(i * 977)
		id, ok := a.Create(uid)
		if !ok {
			t.Fatalf("create %d failed with free nodes left", i)
		}
		_, n, _ := a.decode(id)
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
	if _, ok := a.Create(99); ok {
		t.Fatal("a full bucket accepted a ninth session")
	}
}

func TestCreateLookupProperty(t *testing.T) {
	// Property: any created session resolves to its user until deleted.
	a := NewArray(512, 32)
	f := func(uid uint64) bool {
		id, ok := a.Create(uid)
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
		if id, ok := a.Create(uid); ok {
			created++
			// A collision: the session did not land on its first
			// candidate slot.
			if _, n, _ := a.decode(id); n != int((hash(uid)>>32)%uint64(a.perB)) {
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
