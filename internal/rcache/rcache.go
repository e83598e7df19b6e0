// Package rcache is the whole-page render cache of ROADMAP item 4: it
// stores finished responses keyed by (workload-qualified request type,
// session, user, request bytes) and a per-user session-state version, so
// a repeated read-only request is answered from memory — bypassing
// cohort formation and kernel launch entirely — while staying
// byte-identical to a fresh render. Which types are eligible is
// declared by the workload registry (service.Spec.Cacheable), not here.
//
// An entry holds a page's live bytes — the page less its trailing run
// of spaces (httpx.LiveLen), the §4.3.2 padding that only keeps the
// device's per-lane stores aligned — as the runs where they differ from
// its type's reference page. §4.3.2's whitespace alignment gives every
// page of a type one fixed layout, so two pages of a type differ only
// inside their dynamic sections. The reference is the first page Put
// encodes for its type: copied once, never replaced or evicted. An
// entry's runs are one allocation of RunHeader bytes of position and
// length per run followed by that run's bytes; runs closer than minGap
// equal bytes are merged. A page unlike its reference is encoded the
// same way, as more runs, and no encoding exceeds the live bytes plus
// one RunHeader. A hit decodes in one pass (AppendPage): the reference
// between runs, the run bytes inside them. The cache does not know the
// pad; whoever serves a hit restores it (httpx.AppendSpaces) from what
// it knows of the type. Stats.Bytes counts every entry's runs and every
// reference page.
//
// # Consistency protocol
//
// Every user has a monotonically increasing state version, bumped by
// the backend write hook whenever a Besim deferred write commits for
// that user (backend.DB.SetWriteHook). The serving path captures the
// version BEFORE executing a request and passes it to Get and Put. A
// user's version and pages sit in one shard under one lock, and the
// cache holds a page only while its user's version is the one it was
// rendered at: Invalidate bumps the version and drops every page of
// that user, and Put refuses, without copying anything, a page whose
// captured version is no longer current (a write landed between
// capture and insert). Because versions only grow, renders are
// serialized with the mutations of their own user (single writer per
// session group), and the hook fires after the mutation commits, no
// page rendered before a write is ever served after it. A user's
// version record is never deleted, even when it holds no pages: a
// deleted record would read 0 again and accept a Put captured before
// the write that moved it.
//
// A user's pages are a list threaded through the entries and headed
// from the version record, so Invalidate costs O(that user's pages)
// and a Put allocates nothing for the index.
//
// # Capacity
//
// The cache holds at most Budget pages over all its shards, so users
// that hash unevenly over the shards do not shrink it. When it is full,
// a new page takes the place of an arbitrary page of its own shard or,
// if that shard holds none, is not stored: a call takes no lock but its
// user's shard lock. Invalidate runs from the backend write hook, under
// the backend's write lock, so no cache call may take a backend lock.
//
// # Key safety
//
// A session ID carries its node's generation, so a reclaimed node's
// old IDs stop resolving. But the generation wraps, and a node's first
// session carries generation 0 in every session array, so one ID can
// still name different users over time or across shard groups. The
// resolved user ID is therefore part of the key: a session ID that
// names another user than it did can never serve the prior owner's
// pages. The request's method, path, and parameters are hashed into the
// key and additionally stored for full equality checking on lookup, so
// a hash collision degrades to a miss, never to a wrong page.
package rcache

import (
	"bytes"
	"sync"
	"sync/atomic"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// The cache is split into 1<<shardBits shards by user.
const (
	shardBits = 6
	shards    = 1 << shardBits
)

// Key identifies one cached page. All fields are fixed-size and
// comparable; the variable-length request content is folded into H and
// verified against the stored entry on lookup.
type Key struct {
	T   service.TypeID
	SID session.ID
	UID uint64
	H   uint64 // FNV-1a over method, path, params
}

// user is one user's record in its shard: the state version and the
// head of the list of the pages held for it, all at that version.
type user struct {
	ver   uint64
	pages *entry
}

type entry struct {
	key        Key
	u          *user
	prev, next *entry // neighbours in u's page list
	method     httpx.Method
	path       string
	params     []httpx.Param
	ref        []byte // its type's reference page
	live       int    // the page's live length
	runs       []byte // where the live bytes differ from ref (encode)
}

type shard struct {
	mu    sync.RWMutex
	pages map[Key]*entry
	users map[uint64]*user // never deleted from: versions only grow
}

// Cache is a whole-page render cache sharded by user. All methods are
// safe for concurrent use.
type Cache struct {
	shards [shards]shard
	budget int64

	// refs maps a type to its reference page, set by the type's first
	// Put and never replaced.
	refMu sync.Mutex
	refs  map[service.TypeID][]byte

	entries       atomic.Int64 // pages held (or reserved under a shard lock), ≤ budget
	hits          atomic.Uint64
	misses        atomic.Uint64
	inserts       atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
	bytes         atomic.Int64 // the entries' runs plus the reference pages
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Inserts       uint64 `json:"inserts"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Entries       uint64 `json:"entries"`
	Bytes         uint64 `json:"bytes"` // the entries' runs plus one reference page per type
}

// New returns a cache bounded to maxEntries pages (at least one).
func New(maxEntries int) *Cache {
	c := &Cache{budget: int64(max(maxEntries, 1)), refs: make(map[service.TypeID][]byte)}
	for i := range c.shards {
		c.shards[i].pages = make(map[Key]*entry)
		c.shards[i].users = make(map[uint64]*user)
	}
	return c
}

// Budget is the most entries the cache holds at once.
func (c *Cache) Budget() int { return int(c.budget) }

// shardOf is uid's shard: a Fibonacci hash, so that user ids with a
// common stride still spread over every shard.
func (c *Cache) shardOf(uid uint64) *shard {
	return &c.shards[(uid*0x9e3779b97f4a7c15)>>(64-shardBits)]
}

// Version returns uid's current state version. Capture it BEFORE
// executing the request; pass the captured value to Get and Put.
func (c *Cache) Version(uid uint64) uint64 {
	sh := c.shardOf(uid)
	sh.mu.RLock()
	var v uint64
	if u := sh.users[uid]; u != nil {
		v = u.ver
	}
	sh.mu.RUnlock()
	return v
}

// Invalidate bumps uid's state version and drops every page cached for
// uid, each counted as an eviction. Wire it to backend.DB.SetWriteHook
// so a committed Besim deferred write invalidates exactly the affected
// user's pages. It takes only uid's shard lock, for O(uid's pages).
func (c *Cache) Invalidate(uid uint64) {
	sh := c.shardOf(uid)
	sh.mu.Lock()
	u := sh.users[uid]
	if u == nil {
		u = &user{}
		sh.users[uid] = u
	}
	u.ver++
	var n uint64
	var held int64
	for e := u.pages; e != nil; e = e.next {
		delete(sh.pages, e.key)
		n++
		held += int64(len(e.runs))
	}
	u.pages = nil
	c.entries.Add(-int64(n))
	c.bytes.Add(-held)
	sh.mu.Unlock()
	c.evictions.Add(n)
	c.invalidations.Add(1)
}

// unlink takes e out of its user's page list.
func unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		e.u.pages = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
}

// hashReq folds the request content into the key hash (FNV-1a).
func hashReq(req *httpx.Request) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h = (h ^ 0xff) * prime64 // field separator
	}
	h = (h ^ uint64(req.Method)) * prime64
	mix(req.Path)
	for _, p := range req.Params {
		mix(p.Key)
		mix(p.Value)
	}
	return h
}

// sameReq reports whether the stored entry was built from an identical
// request (exact method/path/param comparison, order-sensitive —
// conservative: a reordering is a miss, never a wrong page).
func sameReq(e *entry, req *httpx.Request) bool {
	if e.method != req.Method || e.path != req.Path || len(e.params) != len(req.Params) {
		return false
	}
	for i, p := range e.params {
		if p != req.Params[i] {
			return false
		}
	}
	return true
}

// AppendPage appends the live bytes of the cached page for (t, sid,
// uid, req) rendered at state version ver to dst — the page less its
// trailing run of spaces — and reports whether there was one. It grows
// dst at most once, so a dst with room for the page makes a hit
// allocate nothing.
func (c *Cache) AppendPage(dst []byte, t service.TypeID, sid session.ID, uid, ver uint64, req *httpx.Request) ([]byte, bool) {
	k := Key{T: t, SID: sid, UID: uid, H: hashReq(req)}
	sh := c.shardOf(uid)
	sh.mu.RLock()
	// A held entry is at its user's current version, so this compares
	// the caller's captured version with the current one.
	if e := sh.pages[k]; e != nil && e.u.ver == ver && sameReq(e, req) {
		// An entry never changes once made: decode it outside the lock.
		ref, runs, live := e.ref, e.runs, e.live
		sh.mu.RUnlock()
		c.hits.Add(1)
		return appendPage(dst, ref, runs, live), true
	}
	sh.mu.RUnlock()
	c.misses.Add(1)
	return dst, false
}

// Get is AppendPage into a fresh slice. The server decodes a hit into
// its write buffer with AppendPage; the benchmark's offline replay
// (benchmark/replay.go) calls Get.
func (c *Cache) Get(t service.TypeID, sid session.ID, uid, ver uint64, req *httpx.Request) ([]byte, bool) {
	return c.AppendPage(nil, t, sid, uid, ver, req)
}

// ref returns t's reference page, making a copy of live the reference
// if t has none yet.
func (c *Cache) ref(t service.TypeID, live []byte) []byte {
	c.refMu.Lock()
	defer c.refMu.Unlock()
	r, ok := c.refs[t]
	if !ok {
		r = bytes.Clone(live)
		c.refs[t] = r
		c.bytes.Add(int64(len(r)))
	}
	return r
}

// Put stores a rendered page for (t, sid, uid, req) at state version
// ver: it copies the request parameters and encodes the page's live
// bytes (its trailing run of spaces dropped) against t's reference page,
// so the entry is immune to arena reuse. The first page Put encodes for
// t becomes t's reference. ver must be the version captured before the
// request executed; if uid's version has moved since, Put stores and
// copies nothing.
func (c *Cache) Put(t service.TypeID, sid session.ID, uid, ver uint64, req *httpx.Request, resp []byte) {
	if c.Version(uid) != ver {
		return
	}
	live := resp[:httpx.LiveLen(resp)]
	ref := c.ref(t, live)
	e := &entry{
		key:    Key{T: t, SID: sid, UID: uid, H: hashReq(req)},
		method: req.Method,
		path:   req.Path,
		params: append([]httpx.Param(nil), req.Params...),
		ref:    ref,
		live:   len(live),
		runs:   encode(live, ref),
	}
	held := int64(len(e.runs))
	sh := c.shardOf(uid)
	sh.mu.Lock()
	u := sh.users[uid]
	if u == nil && ver == 0 {
		u = &user{}
		sh.users[uid] = u
	}
	if u == nil || u.ver != ver {
		// A write landed between the check above and the lock.
		sh.mu.Unlock()
		return
	}
	if old := sh.pages[e.key]; old != nil {
		unlink(old)
		held -= int64(len(old.runs))
	} else if !c.reserve() {
		// The cache is full: the page takes the place of an arbitrary
		// one of this shard, or, with the shard empty, is not stored.
		var victim *entry
		for _, victim = range sh.pages {
			break
		}
		if victim == nil {
			sh.mu.Unlock()
			return
		}
		delete(sh.pages, victim.key)
		unlink(victim)
		c.evictions.Add(1)
		held -= int64(len(victim.runs))
	}
	e.u, e.next = u, u.pages
	if u.pages != nil {
		u.pages.prev = e
	}
	u.pages = e
	sh.pages[e.key] = e
	// Under the shard lock, so a delete of e never lands before its add.
	c.bytes.Add(held)
	sh.mu.Unlock()
	c.inserts.Add(1)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Inserts:       c.inserts.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       uint64(c.entries.Load()),
		Bytes:         uint64(c.bytes.Load()),
	}
}

// reserve counts one more page held if the budget has room for it.
func (c *Cache) reserve() bool {
	for {
		n := c.entries.Load()
		if n >= c.budget {
			return false
		}
		if c.entries.CompareAndSwap(n, n+1) {
			return true
		}
	}
}
