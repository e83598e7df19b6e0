// Package session implements Rhythm's device-resident HTTP session array
// (§4.3.1): a hash table whose bucket count equals the cohort size so
// that every request thread of a cohort touches a distinct bucket
// (conflict-free SIMT access). Session identifiers encode the (bucket,
// node) pair, giving O(1) lookup and deletion; insertion linearly probes
// within the bucket for a free node.
package session

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// NodeBytes is the modeled per-session storage (paper §6.3: "at 40B per
// session").
const NodeBytes = 40

// ID is an opaque session identifier handed to clients as a cookie. It
// encodes bucket and node indexes XOR-folded with a salt, mirroring the
// paper's "hash of the node index and the bucket index".
type ID uint64

const salt = 0x5bd1e995_9e3779b9

// String formats the ID as the 16-hex-digit cookie value.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID decodes a cookie value. It reports false on malformed input.
func ParseID(s string) (ID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return ID(v), true
}

// BucketFor reports the bucket index userID would hash to in a table of
// n buckets — the same reduction Create applies. The cluster dispatcher
// uses it to pin a login (which will Create a session for userID) to the
// shard group owning that bucket, so the session lands in the same
// (bucket, node) slot a single shared array would have used and the
// cookie bytes stay identical to the host path's.
func BucketFor(userID uint64, n int) int {
	return int(hash(userID) % uint64(n))
}

// Bucket decodes the bucket index an ID names, reduced mod n. For a
// well-formed ID issued by an n-bucket array the reduction is the
// identity; for garbage cookies it still yields a stable value in
// [0, n), which is all the dispatcher needs — any shard renders the same
// error page. This is how session affinity is recovered from a cookie
// without consulting any array.
func (id ID) Bucket(n int) int {
	return int(((uint64(id) ^ salt) & 0xffffffff) % uint64(n))
}

// Array is the session table. It is internally synchronized at bucket
// granularity: concurrently simulated warps (simt.Config.HostParallelism
// > 1) create, look up and delete sessions from multiple host threads,
// so each bucket carries a host mutex standing in for the per-bucket
// atomics the device implementation uses (whose device-side cost the
// SIMT layer charges separately via Thread.Atomic). Creates do not
// commute — the node a create takes, and whether a full bucket fails
// it, depend on the creates before it — so the stage kernels that
// create or delete sessions run their lanes in order (simt.Footprint
// Ordered; see DESIGN.md "Host parallelism").
type Array struct {
	buckets int
	perB    int
	// Node i is users[i] and used[i]: two arrays at 9 bytes a node where
	// one of {used, userID} structs pads to 16 — the table is the largest
	// fixed allocation of a host server (4 MB of its 7 at 2^18 nodes).
	users []uint64
	used  []bool
	locks []sync.Mutex // one per bucket
	live  atomic.Int64
}

// NewArray builds a table of buckets × nodesPerBucket slots. The paper
// sizes buckets to the cohort size (4096) and total capacity to 4× the
// expected live sessions to keep collision probability near 25% (§6.3).
func NewArray(buckets, nodesPerBucket int) *Array {
	if buckets <= 0 || nodesPerBucket <= 0 {
		panic("session: dimensions must be positive")
	}
	return &Array{
		buckets: buckets,
		perB:    nodesPerBucket,
		users:   make([]uint64, buckets*nodesPerBucket),
		used:    make([]bool, buckets*nodesPerBucket),
		locks:   make([]sync.Mutex, buckets),
	}
}

// Len reports live sessions.
func (a *Array) Len() int { return int(a.live.Load()) }

// hash is a 64-bit mix (splitmix64 finalizer) used for bucket and slot
// selection.
func hash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Create inserts a session for userID and returns its ID. It reports
// false when the user's bucket is full (the table's structural limit —
// the caller surfaces a server-busy error, a rare divergent path).
func (a *Array) Create(userID uint64) (ID, bool) {
	h := hash(userID)
	b := int(h % uint64(a.buckets))
	start := int((h >> 32) % uint64(a.perB))
	a.locks[b].Lock()
	defer a.locks[b].Unlock()
	for i := 0; i < a.perB; i++ {
		n := (start + i) % a.perB
		idx := b*a.perB + n
		if !a.used[idx] {
			a.users[idx], a.used[idx] = userID, true
			a.live.Add(1)
			return encode(b, n), true
		}
	}
	return 0, false
}

// Lookup resolves a session ID to its user. O(1): the ID names the slot.
func (a *Array) Lookup(id ID) (userID uint64, ok bool) {
	b, n, ok := a.decode(id)
	if !ok {
		return 0, false
	}
	idx := b*a.perB + n
	a.locks[b].Lock()
	userID, ok = a.users[idx], a.used[idx]
	a.locks[b].Unlock()
	if !ok {
		return 0, false
	}
	return userID, true
}

// Delete removes a session. O(1). It reports whether a session existed.
func (a *Array) Delete(id ID) bool {
	b, n, ok := a.decode(id)
	if !ok {
		return false
	}
	idx := b*a.perB + n
	a.locks[b].Lock()
	defer a.locks[b].Unlock()
	if !a.used[idx] {
		return false
	}
	a.users[idx], a.used[idx] = 0, false
	a.live.Add(-1)
	return true
}

func encode(bucket, n int) ID {
	return ID((uint64(n)<<32 | uint64(bucket)) ^ salt)
}

func (a *Array) decode(id ID) (bucket, n int, ok bool) {
	v := uint64(id) ^ salt
	bucket = int(v & 0xffffffff)
	n = int(v >> 32)
	if bucket < 0 || bucket >= a.buckets || n < 0 || n >= a.perB {
		return 0, 0, false
	}
	return bucket, n, true
}
