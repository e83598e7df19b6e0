// Package session implements Rhythm's device-resident HTTP session array
// (§4.3.1): a hash table whose bucket count equals the cohort size so
// that every request thread of a cohort touches a distinct bucket
// (conflict-free SIMT access). Session identifiers encode the (bucket,
// node) pair, giving O(1) lookup and deletion; insertion linearly probes
// within the bucket for a free node, and reclaims the bucket's
// longest-idle node when none is free.
package session

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// NodeBytes is the modeled per-session storage (paper §6.3: "at 40B per
// session").
const NodeBytes = 40

// ID is an opaque session identifier handed to clients as a cookie. It
// encodes bucket and node indexes XOR-folded with a salt, mirroring the
// paper's "hash of the node index and the bucket index", and the node's
// generation, so an ID stops resolving once its node is reclaimed.
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
//
// The table is fixed, so sessions are reclaimed: every create and
// lookup stamps its node with the time, and a create that finds its
// bucket full takes the node idle longest (ties to the lowest node
// index). A node stamped at the create's own time is not idle, so a
// bucket whose every node was touched at that instant fails the create.
// A reclaimed node's generation moves on, and the IDs it issued before
// stop resolving.
type Array struct {
	buckets int
	perB    int
	// Node i is users[i], gens[i] and idle[i]: 10 bytes a node in two
	// arrays, 14 in three once idle is backed, where one struct would pad
	// to 16 — the table is the largest fixed allocation of a host server.
	users []uint64
	// gens is odd while the node holds a session; gens>>1 is the
	// generation its ID carries.
	gens  []uint16
	locks []sync.Mutex // one per bucket
	live  atomic.Int64
	// clock, when set, is the time in nanoseconds: a simulator's
	// virtual time, read by every create and lookup. Unset, the array
	// keeps wall time and reads the clock only when a create finds its
	// bucket full; every other create and lookup stamps the time that
	// read last (wall).
	clock func() int64
	wall  atomic.Int64
	// idle holds the microsecond each node was last created or looked
	// up. On the wall clock every stamp reads 0 until a create first
	// finds its bucket full, so the array backs idle only then (under
	// grow): a table that never fills keeps 10 bytes a node.
	idle atomic.Pointer[[]uint32]
	grow sync.Mutex
}

// NewArray builds a table of buckets × nodesPerBucket slots. The paper
// sizes buckets to the cohort size (4096) and total capacity to 4× the
// expected live sessions to keep collision probability near 25% (§6.3);
// NodesPerBucket applies that rule to a simulated table.
func NewArray(buckets, nodesPerBucket int) *Array {
	if buckets <= 0 || nodesPerBucket <= 0 {
		panic("session: dimensions must be positive")
	}
	if buckets > math.MaxUint32 || nodesPerBucket > math.MaxUint16 {
		panic("session: an ID holds 32 bits of bucket and 16 of node")
	}
	return &Array{
		buckets: buckets,
		perB:    nodesPerBucket,
		users:   make([]uint64, buckets*nodesPerBucket),
		gens:    make([]uint16, buckets*nodesPerBucket),
		locks:   make([]sync.Mutex, buckets),
	}
}

// NodesPerBucket is the one sizing rule of a simulated session table:
// the paper's 4× room (§6.3) over the load of the fullest bucket, not
// the mean. Live sessions spread over buckets by hash, so a bucket's
// load is Poisson with mean live/buckets; the fullest bucket's is taken
// as the smallest k that fewer than one table in a thousand exceeds
// anywhere. A full bucket reclaims its longest-idle session rather than
// fail a login, and the room keeps reclaims on sessions no request will
// name: at 4096 live sessions in 1024 buckets, 68 nodes a bucket.
func NodesPerBucket(live, buckets int) int {
	lambda := float64(live) / float64(buckets)
	k, cdf := 0, 0.0
	for lambda > 0 {
		lg, _ := math.Lgamma(float64(k + 1))
		cdf += math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
		if float64(buckets)*(1-cdf) < 1e-3 {
			break
		}
		k++
	}
	return 4 * max(k, 1)
}

// SetClock makes the array stamp nodes with now(), in nanoseconds. A
// simulator passes its engine's virtual time, which every lane of one
// kernel launch reads alike; set it before the first create.
func (a *Array) SetClock(now func() int64) {
	a.clock = now
	a.stamps()
}

// stamps returns idle, backing it first if need be.
func (a *Array) stamps() []uint32 {
	if p := a.idle.Load(); p != nil {
		return *p
	}
	a.grow.Lock()
	defer a.grow.Unlock()
	if p := a.idle.Load(); p != nil {
		return *p
	}
	idle := make([]uint32, len(a.users))
	a.idle.Store(&idle)
	return idle
}

// stamp records that node idx was touched at now, once idle is backed.
func (a *Array) stamp(idx int, now uint32) {
	if p := a.idle.Load(); p != nil {
		(*p)[idx] = now
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

// epoch anchors the wall clock's stamps.
var epoch = time.Now()

// micros is the stamp of t nanoseconds: the microsecond, modulo 2^32.
// Ages compare by unsigned difference, so they stay right for an hour.
func micros(t int64) uint32 { return uint32(t / 1000) }

// now is the stamp a lookup or a create into a free node records.
func (a *Array) now() uint32 {
	if a.clock != nil {
		return micros(a.clock())
	}
	return micros(a.wall.Load())
}

// readWall reads the wall clock for a create that found its bucket
// full, and keeps the reading for the stamps after it.
func (a *Array) readWall() uint32 {
	t := int64(time.Since(epoch))
	for old := a.wall.Load(); t > old && !a.wall.CompareAndSwap(old, t); old = a.wall.Load() {
	}
	return micros(t)
}

// Create inserts a session for userID and returns its ID and the node
// reads a reclaim added: none when a free node took it, a bucket's
// worth when the bucket was full and its longest-idle node was
// reclaimed. It reports false when every node of the user's bucket was
// touched at this very time (the caller surfaces a server-busy error, a
// rare divergent path).
func (a *Array) Create(userID uint64) (ID, int, bool) {
	now := a.now()
	h := hash(userID)
	b := int(h % uint64(a.buckets))
	start := int((h >> 32) % uint64(a.perB))
	base := b * a.perB
	a.locks[b].Lock()
	defer a.locks[b].Unlock()
	for i := 0; i < a.perB; i++ {
		n := (start + i) % a.perB
		if a.gens[base+n]&1 == 0 {
			a.gens[base+n]++
			a.live.Add(1)
			return a.take(b, n, userID, now), 0, true
		}
	}
	if a.clock == nil {
		now = a.readWall()
	}
	idle := a.stamps()
	victim, oldest := -1, uint32(0)
	for n := 0; n < a.perB; n++ {
		if age := now - idle[base+n]; age > oldest {
			victim, oldest = n, age
		}
	}
	if victim < 0 {
		return 0, a.perB, false
	}
	a.gens[base+victim] += 2
	return a.take(b, victim, userID, now), a.perB, true
}

// take gives node n of bucket b, already marked in use, to userID.
func (a *Array) take(b, n int, userID uint64, now uint32) ID {
	idx := b*a.perB + n
	a.users[idx] = userID
	a.stamp(idx, now)
	return encode(b, n, a.gens[idx]>>1)
}

// Lookup resolves a session ID to its user and stamps the node. O(1):
// the ID names the slot.
func (a *Array) Lookup(id ID) (userID uint64, ok bool) {
	b, n, gen, ok := a.decode(id)
	if !ok {
		return 0, false
	}
	idx := b*a.perB + n
	a.locks[b].Lock()
	if ok = a.gens[idx] == gen<<1|1; ok {
		userID = a.users[idx]
		a.stamp(idx, a.now())
	}
	a.locks[b].Unlock()
	return userID, ok
}

// Delete removes a session. O(1). It reports whether a session existed.
func (a *Array) Delete(id ID) bool {
	b, n, gen, ok := a.decode(id)
	if !ok {
		return false
	}
	idx := b*a.perB + n
	a.locks[b].Lock()
	defer a.locks[b].Unlock()
	if a.gens[idx] != gen<<1|1 {
		return false
	}
	a.users[idx] = 0
	a.gens[idx]++
	a.live.Add(-1)
	return true
}

// encode packs bucket, node and generation. A node's first session
// carries generation 0, so its ID is the paper's hash of the node index
// and the bucket index alone.
func encode(bucket, n int, gen uint16) ID {
	return ID((uint64(gen)<<48 | uint64(n)<<32 | uint64(bucket)) ^ salt)
}

func (a *Array) decode(id ID) (bucket, n int, gen uint16, ok bool) {
	v := uint64(id) ^ salt
	bucket = int(v & 0xffffffff)
	n = int(v >> 32 & 0xffff)
	gen = uint16(v >> 48)
	if bucket >= a.buckets || n >= a.perB || gen > math.MaxUint16>>1 {
		return 0, 0, 0, false
	}
	return bucket, n, gen, true
}
