// Package rcache is the whole-page render cache of ROADMAP item 4: it
// stores finished responses keyed by (workload-qualified request type,
// session, user, request bytes) and a per-user session-state version, so
// a repeated read-only request is answered from memory — bypassing
// cohort formation and kernel launch entirely — while staying
// byte-identical to a fresh render. Which types are eligible is
// declared by the workload registry (service.Spec.Cacheable), not here.
//
// An entry holds a page's live bytes: the page less its trailing run of
// spaces (httpx.LiveLen), the §4.3.2 padding that only keeps the
// device's per-lane stores aligned. The cache does not know the pad;
// whoever serves a hit restores it (httpx.AppendSpaces) from what it
// knows of the type.
//
// # Consistency protocol
//
// Every user has a monotonically increasing state version, bumped by
// the backend write hook whenever a Besim deferred write commits for
// that user (backend.DB.SetWriteHook). The serving path captures the
// version BEFORE executing a request and tags the inserted page with
// it; a lookup only hits when the entry's version equals the user's
// current version. Because versions only grow, renders are serialized
// with the mutations of their own user (single writer per session
// group), and the hook fires after the mutation commits, an entry
// tagged with a stale version can never be observed as current: a
// write between capture and insert leaves the entry keyed to a version
// that no lookup will present again. Stale entries are deleted lazily
// on the next lookup.
//
// # Key safety
//
// Session IDs encode (slot, bucket) with no generation nonce, so a
// logout + login can re-issue a previous session ID to a different
// user. The resolved user ID is therefore part of the key: an aliased
// session ID from a prior owner can never serve that owner's pages.
// The request's method, path, and parameters are hashed into the key
// and additionally stored for full equality checking on lookup, so a
// hash collision degrades to a miss, never to a wrong page.
package rcache

import (
	"sync"
	"sync/atomic"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

const shards = 64

// Key identifies one cached page. All fields are fixed-size and
// comparable; the variable-length request content is folded into H and
// verified against the stored entry on lookup.
type Key struct {
	T   service.TypeID
	SID session.ID
	UID uint64
	H   uint64 // FNV-1a over method, path, params
}

type entry struct {
	ver    uint64 // user state version the page was rendered at
	method httpx.Method
	path   string
	params []httpx.Param
	resp   []byte // live bytes: the page less its trailing spaces
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[Key]*entry
}

type verShard struct {
	mu sync.RWMutex
	m  map[uint64]uint64 // uid -> state version
}

// Cache is a sharded whole-page render cache. All methods are safe for
// concurrent use.
type Cache struct {
	shards   [shards]cacheShard
	vers     [shards]verShard
	perShard int // max entries per shard

	hits          atomic.Uint64
	misses        atomic.Uint64
	inserts       atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
	bytes         atomic.Int64 // live bytes held by the entries
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Inserts       uint64 `json:"inserts"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Entries       uint64 `json:"entries"`
	Bytes         uint64 `json:"bytes"` // live bytes held by the entries
}

// New returns a cache bounded to roughly maxEntries pages.
func New(maxEntries int) *Cache {
	if maxEntries < shards {
		maxEntries = shards
	}
	c := &Cache{perShard: maxEntries / shards}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*entry)
	}
	for i := range c.vers {
		c.vers[i].m = make(map[uint64]uint64)
	}
	return c
}

// Version returns uid's current state version. Capture it BEFORE
// executing the request; pass the captured value to Get and Put.
func (c *Cache) Version(uid uint64) uint64 {
	vs := &c.vers[uid%shards]
	vs.mu.RLock()
	v := vs.m[uid]
	vs.mu.RUnlock()
	return v
}

// Invalidate bumps uid's state version, making every cached page for
// uid unreachable. Wire it to backend.DB.SetWriteHook so a committed
// Besim deferred write invalidates exactly the affected user's pages.
func (c *Cache) Invalidate(uid uint64) {
	vs := &c.vers[uid%shards]
	vs.mu.Lock()
	vs.m[uid]++
	vs.mu.Unlock()
	c.invalidations.Add(1)
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

// Get returns the cached page for (t, sid, uid, req) rendered at state
// version ver, or nil. The returned slice is the page less its trailing
// run of spaces; it is shared and must be treated as read-only. Get
// never allocates on a hit.
func (c *Cache) Get(t service.TypeID, sid session.ID, uid, ver uint64, req *httpx.Request) ([]byte, bool) {
	k := Key{T: t, SID: sid, UID: uid, H: hashReq(req)}
	sh := &c.shards[(k.H^uid)%shards]
	sh.mu.RLock()
	e := sh.m[k]
	if e != nil && e.ver == ver && sameReq(e, req) {
		resp := e.resp
		sh.mu.RUnlock()
		c.hits.Add(1)
		return resp, true
	}
	stale := e != nil && e.ver != ver
	sh.mu.RUnlock()
	if stale {
		// Lazy eviction: the entry predates uid's last write and can
		// never hit again (versions only grow).
		sh.mu.Lock()
		if e2 := sh.m[k]; e2 != nil && e2.ver < ver {
			delete(sh.m, k)
			c.evictions.Add(1)
			c.bytes.Add(-int64(len(e2.resp)))
		}
		sh.mu.Unlock()
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores a rendered page for (t, sid, uid, req) at state version
// ver, copying both the request parameters and the page's live bytes
// (its trailing run of spaces dropped) so the entry is immune to arena
// reuse. ver must be the version captured before the request executed.
func (c *Cache) Put(t service.TypeID, sid session.ID, uid, ver uint64, req *httpx.Request, resp []byte) {
	k := Key{T: t, SID: sid, UID: uid, H: hashReq(req)}
	e := &entry{
		ver:    ver,
		method: req.Method,
		path:   req.Path,
		params: append([]httpx.Param(nil), req.Params...),
		resp:   append([]byte(nil), resp[:httpx.LiveLen(resp)]...),
	}
	held := int64(len(e.resp))
	sh := &c.shards[(k.H^uid)%shards]
	sh.mu.Lock()
	if old, exists := sh.m[k]; exists {
		held -= int64(len(old.resp))
	} else if len(sh.m) >= c.perShard {
		// Evict one arbitrary entry to stay within budget.
		for victim, ve := range sh.m {
			delete(sh.m, victim)
			c.evictions.Add(1)
			held -= int64(len(ve.resp))
			break
		}
	}
	sh.m[k] = e
	// Under the shard lock, so a delete of e never lands before its add.
	c.bytes.Add(held)
	sh.mu.Unlock()
	c.inserts.Add(1)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Inserts:       c.inserts.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Bytes:         uint64(c.bytes.Load()),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		s.Entries += uint64(len(sh.m))
		sh.mu.RUnlock()
	}
	return s
}
