package rcache

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// The cache is type-agnostic: these stand in for registry-assigned
// workload-qualified type ids.
const (
	tSummary service.TypeID = iota
	tDetail
	tProfile
	tBillPay
	tOrderCheck
	tTransfer
)

func testReq(path string, params ...httpx.Param) *httpx.Request {
	return &httpx.Request{Method: httpx.GET, Path: path, Params: params}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1024)
	req := testReq("/account_summary.php")
	sid := session.ID(0x1234)
	resp := []byte("page-one")

	if _, hit := c.Get(tSummary, sid, 7, c.Version(7), req); hit {
		t.Fatal("hit on empty cache")
	}
	ver := c.Version(7)
	c.Put(tSummary, sid, 7, ver, req, resp)
	got, hit := c.Get(tSummary, sid, 7, ver, req)
	if !hit || string(got) != "page-one" {
		t.Fatalf("Get = %q, %v; want page-one, true", got, hit)
	}

	// The stored response is a copy: mutating the inserted slice must not
	// reach the cache.
	resp[0] = 'X'
	got, _ = c.Get(tSummary, sid, 7, ver, req)
	if string(got) != "page-one" {
		t.Fatalf("cache shares the caller's response buffer: %q", got)
	}
}

func TestParamsCopiedFromArena(t *testing.T) {
	c := New(1024)
	params := []httpx.Param{{Key: "acct", Value: "1"}}
	req := &httpx.Request{Method: httpx.GET, Path: "/check_detail_html.php", Params: params}
	ver := c.Version(3)
	c.Put(tDetail, 1, 3, ver, req, []byte("detail"))

	// Recycle the arena request: same backing array, different values —
	// what ParseInto does between requests on one connection.
	params[0] = httpx.Param{Key: "acct", Value: "2"}
	fresh := testReq("/check_detail_html.php", httpx.Param{Key: "acct", Value: "1"})
	if _, hit := c.Get(tDetail, 1, 3, ver, fresh); !hit {
		t.Fatal("entry should have copied its params out of the arena")
	}
	changed := testReq("/check_detail_html.php", httpx.Param{Key: "acct", Value: "2"})
	if _, hit := c.Get(tDetail, 1, 3, ver, changed); hit {
		t.Fatal("different params must miss")
	}
}

func TestInvalidateBumpsOnlyThatUser(t *testing.T) {
	c := New(1024)
	req := testReq("/profile.php")
	verA, verB := c.Version(1), c.Version(2)
	c.Put(tProfile, 10, 1, verA, req, []byte("user-a"))
	c.Put(tProfile, 20, 2, verB, req, []byte("user-b"))

	c.Invalidate(1)
	if _, hit := c.Get(tProfile, 10, 1, c.Version(1), req); hit {
		t.Fatal("user 1's page survived its invalidation")
	}
	if got, hit := c.Get(tProfile, 20, 2, c.Version(2), req); !hit || string(got) != "user-b" {
		t.Fatal("user 2's page was collaterally invalidated")
	}
}

func TestSessionIDReuseAcrossUsers(t *testing.T) {
	// A session ID's generation wraps, and a node's first session has
	// the same ID in every array, so the same ID can belong to a
	// different user. The UID in the key must keep the old owner's pages
	// unreachable.
	c := New(1024)
	req := testReq("/account_summary.php")
	sid := session.ID(0xbeef)
	c.Put(tSummary, sid, 111, c.Version(111), req, []byte("old-owner"))

	if _, hit := c.Get(tSummary, sid, 222, c.Version(222), req); hit {
		t.Fatal("aliased session ID served the previous owner's page")
	}
}

func TestStaleVersionNeverHits(t *testing.T) {
	c := New(1024)
	req := testReq("/bill_pay.php")
	ver := c.Version(5)
	c.Put(tBillPay, 1, 5, ver, req, []byte("v0"))
	c.Invalidate(5)
	// An insert tagged with the captured-before-write version is
	// refused (the out-of-order Put case).
	c.Put(tBillPay, 1, 5, ver, req, []byte("still-v0"))
	if _, hit := c.Get(tBillPay, 1, 5, c.Version(5), req); hit {
		t.Fatal("stale-version entry served")
	}
	// A fresh render at the current version is served again.
	cur := c.Version(5)
	c.Put(tBillPay, 1, 5, cur, req, []byte("v1"))
	if got, hit := c.Get(tBillPay, 1, 5, cur, req); !hit || string(got) != "v1" {
		t.Fatalf("current-version entry missed: %q %v", got, hit)
	}
}

func TestEvictionBoundsEntries(t *testing.T) {
	c := New(64)
	for i := 0; i < 10_000; i++ {
		req := testReq(fmt.Sprintf("/p%d.php", i))
		c.Put(tProfile, session.ID(i), uint64(i), 0, req, []byte("x"))
	}
	st := c.Stats()
	if st.Entries > 64 {
		t.Fatalf("cache holds %d entries, budget 64", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

func TestHashCollisionDegradesToMiss(t *testing.T) {
	c := New(1024)
	req := testReq("/order_check.php", httpx.Param{Key: "style", Value: "a"})
	ver := c.Version(9)
	c.Put(tOrderCheck, 4, 9, ver, req, []byte("styled"))

	// Forge a request with the stored entry's key hash but different
	// content: sameReq must reject it.
	forged := testReq("/order_check.php", httpx.Param{Key: "style", Value: "b"})
	k := Key{T: tOrderCheck, SID: 4, UID: 9, H: hashReq(req)}
	sh := c.shardOf(9)
	sh.mu.RLock()
	e := sh.pages[k]
	sh.mu.RUnlock()
	if e == nil {
		t.Fatal("entry not stored")
	}
	if sameReq(e, forged) {
		t.Fatal("sameReq accepted a request with different params")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := testReq("/account_summary.php")
			uid := uint64(w % 4)
			for i := 0; i < 2000; i++ {
				ver := c.Version(uid)
				if _, hit := c.Get(tSummary, session.ID(uid), uid, ver, req); !hit {
					c.Put(tSummary, session.ID(uid), uid, ver, req, []byte("page"))
				}
				if i%97 == 0 {
					c.Invalidate(uid)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("expected traffic on every counter: %+v", st)
	}
}

// TestConcurrentBudget: inserts and writes from several goroutines into
// a full cache never take it past its budget, and Entries and Bytes
// agree with the pages held once they stop.
func TestConcurrentBudget(t *testing.T) {
	c := New(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				uid := uint64(w*1000 + i%97)
				c.Put(tProfile, session.ID(uid), uid, c.Version(uid), testReq(fmt.Sprintf("/p%d.php", i%5)), bytes.Repeat([]byte{'x'}, i%50))
				if i%13 == 0 {
					c.Invalidate(uid)
				}
				if st := c.Stats(); st.Entries > 32 {
					t.Errorf("Entries = %d, budget 32", st.Entries)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	n, held := walkHeld(c)
	if st := c.Stats(); st.Entries != n || st.Bytes != held || n > 32 {
		t.Fatalf("Stats %+v; the shards hold %d pages, %d bytes with the references", st, n, held)
	}
}

// walkHeld counts the entries the shards hold and the bytes they and
// the reference pages hold.
func walkHeld(c *Cache) (entries, held uint64) {
	for _, r := range c.refs {
		held += uint64(len(r))
	}
	for i := range c.shards {
		for _, e := range c.shards[i].pages {
			entries++
			held += uint64(len(e.runs))
		}
	}
	return entries, held
}

// TestGetHitAllocs: a hit decoded into a buffer with room for the page
// allocates nothing, and Get returns a fresh slice of its own.
func TestGetHitAllocs(t *testing.T) {
	c := New(1024)
	req := testReq("/transfer.php")
	ver := c.Version(2)
	c.Put(tTransfer, 7, 2, ver, req, []byte("<p>page one</p>   "))
	c.Put(tTransfer, 8, 2, ver, req, []byte("<p>page two</p>   "))
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(500, func() {
		if page, hit := c.AppendPage(buf, tTransfer, 8, 2, ver, req); !hit || string(page) != "<p>page two</p>" {
			panic("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendPage allocates %.1f objects per hit into a buffer with room, want 0", allocs)
	}
	page, _ := c.Get(tTransfer, 8, 2, ver, req)
	clear(page)
	if again, _ := c.Get(tTransfer, 8, 2, ver, req); string(again) != "<p>page two</p>" {
		t.Fatalf("a Get after writing over the last one's page returned %q", again)
	}
}

// TestEntryHoldsLiveBytes: an entry is the page less its trailing run of
// spaces, whatever the run's length or what precedes it, and appending
// the cut spaces back gives the page. The entry is a copy: reusing the
// inserted slice's backing array does not reach it. Bytes counts the
// first page's live bytes, which are the type's reference, and every
// entry's runs against them.
func TestEntryHoldsLiveBytes(t *testing.T) {
	pad := func(s string, n int) []byte { return append([]byte(s), bytes.Repeat([]byte{' '}, n)...) }
	pages := map[string][]byte{
		"no trailing spaces": pad("<p>done</p>", 0),
		"1 trailing":         pad("<p>done</p>", 1),
		"7 trailing":         pad("<p>done</p>", 7),
		"8 trailing":         pad("<p>done</p>", 8),
		"4095 trailing":      pad("<p>done</p>", 4095),
		"4096 trailing":      pad("<p>done</p>", 4096),
		"4097 trailing":      pad("<p>done</p>", 4097),
		"content ending in spaces before the pad": pad("<p>total:   ", 1024),
		"only spaces":  pad("", 4096+64),
		"interior run": pad("a"+strings.Repeat(" ", 600)+"b", 9),
	}
	c := New(1024)
	var (
		held uint64
		ref  []byte
	)
	uid := uint64(0)
	for name, p := range pages {
		uid++
		req := testReq("/" + name)
		ver := c.Version(uid)
		c.Put(tProfile, session.ID(uid), uid, ver, req, p)
		page := bytes.Clone(p)
		want := bytes.TrimRight(page, " ")
		if ref == nil {
			ref = want
			held += uint64(len(ref))
		}
		held += uint64(len(encode(want, ref)))
		for i := range p {
			p[i] = 'X' // the arena reuses the page's buffer
		}
		live, hit := c.Get(tProfile, session.ID(uid), uid, ver, req)
		if !hit || !bytes.Equal(live, want) {
			t.Errorf("%s: Get = %d bytes (hit %v), want the %d live bytes", name, len(live), hit, len(want))
			continue
		}
		if !bytes.Equal(httpx.AppendSpaces(bytes.Clone(live), len(page)-len(live)), page) {
			t.Errorf("%s: live bytes plus the cut spaces differ from the page", name)
		}
	}
	if got := c.Stats().Bytes; got != held {
		t.Fatalf("Bytes = %d, want %d", got, held)
	}
}

// TestBytesFollowsEntries: the byte count tracks replacement, capacity
// eviction and stale deletion, and falls to the reference page with the
// entries. The first page, "abc", is the type's reference: it encodes
// to no runs, a longer page to one run past the reference's end, and an
// unlike page to one run over the whole page.
func TestBytesFollowsEntries(t *testing.T) {
	c := New(64)
	req := testReq("/profile.php")
	c.Put(tProfile, 1, 1, 0, req, []byte("abc   "))
	if got := c.Stats().Bytes; got != 3 {
		t.Fatalf("after the first page Bytes = %d, want its 3 live bytes", got)
	}
	c.Put(tProfile, 1, 1, 0, req, []byte("abcdef  "))
	if got := c.Stats().Bytes; got != 3+RunHeader+3 {
		t.Fatalf("after replace Bytes = %d, want the reference's 3 and a run of 3", got)
	}
	c.Invalidate(1)
	if _, hit := c.Get(tProfile, 1, 1, c.Version(1), req); hit {
		t.Fatal("stale entry hit")
	}
	if st := c.Stats(); st.Bytes != 3 || st.Entries != 0 {
		t.Fatalf("after stale delete Bytes = %d, Entries = %d; want 3 (the reference), 0", st.Bytes, st.Entries)
	}
	for i := 0; i < 10_000; i++ {
		c.Put(tProfile, session.ID(i), uint64(i), 0, testReq(fmt.Sprintf("/p%d.php", i)), []byte("xy "))
	}
	if st := c.Stats(); st.Bytes != 3+(RunHeader+2)*st.Entries {
		t.Fatalf("after eviction Bytes = %d for %d entries of one two-byte run", st.Bytes, st.Entries)
	}
}

// TestInvalidateDropsPages: a write drops every page of its user at
// once, so Entries and Bytes fall by exactly that user's pages, each
// counted as an eviction, and the other users keep theirs.
func TestInvalidateDropsPages(t *testing.T) {
	c := New(1024)
	pages := map[uint64][]string{1: {"a  ", "bcd", "efghij    "}, 2: {"kl", "mnopq "}}
	var held1 uint64
	for _, uid := range []uint64{1, 2} {
		for i, p := range pages[uid] {
			c.Put(tProfile, session.ID(uid), uid, c.Version(uid), testReq(fmt.Sprintf("/p%d.php", i)), []byte(p))
			if uid == 1 {
				// User 1's first page, "a", is the type's reference.
				held1 += uint64(len(encode([]byte(p)[:httpx.LiveLen([]byte(p))], []byte("a"))))
			}
		}
	}
	before := c.Stats()
	c.Invalidate(1)
	after := c.Stats()
	if before.Entries-after.Entries != 3 || before.Bytes-after.Bytes != held1 {
		t.Fatalf("Invalidate(1): entries %d -> %d, bytes %d -> %d; want -3 entries and -%d bytes",
			before.Entries, after.Entries, before.Bytes, after.Bytes, held1)
	}
	if after.Evictions-before.Evictions != 3 {
		t.Fatalf("Invalidate(1) counted %d evictions, want 3", after.Evictions-before.Evictions)
	}
	for i, p := range pages[2] {
		if got, hit := c.Get(tProfile, 2, 2, c.Version(2), testReq(fmt.Sprintf("/p%d.php", i))); !hit || !bytes.Equal(got, bytes.TrimRight([]byte(p), " ")) {
			t.Fatalf("user 2's page %d lost to user 1's write: %q %v", i, got, hit)
		}
	}
	// An empty page set still bumps the version and drops nothing.
	c.Invalidate(1)
	if st := c.Stats(); st.Entries != after.Entries || st.Bytes != after.Bytes || c.Version(1) != 2 {
		t.Fatalf("second Invalidate(1): %+v, version %d", st, c.Version(1))
	}
}

// TestPutAtOldVersionStoresNothing: a Put captured before a write is
// refused whole: no entry, no bytes, no insert, and no copy made.
func TestPutAtOldVersionStoresNothing(t *testing.T) {
	c := New(1024)
	req := testReq("/bill_pay.php", httpx.Param{Key: "acct", Value: "1"})
	ver := c.Version(5)
	c.Invalidate(5)
	page := []byte("rendered before the write   ")
	c.Put(tBillPay, 1, 5, ver, req, page)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Inserts != 0 {
		t.Fatalf("stale Put stored something: %+v", st)
	}
	for _, v := range []uint64{ver, c.Version(5)} {
		if _, hit := c.Get(tBillPay, 1, 5, v, req); hit {
			t.Fatalf("Get at version %d hit after a refused Put", v)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Put(tBillPay, 1, 5, ver, req, page) }); allocs != 0 {
		t.Fatalf("a refused Put allocates %.1f objects, want 0", allocs)
	}
	// A user the cache has never seen is at version 0 and nothing else.
	c.Put(tBillPay, 1, 6, 1, req, page)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("Put at version 1 for a user at version 0 stored a page: %+v", st)
	}
}

// fuzzBase is what FuzzCache's pages are cut from and then changed in
// places, so a type's pages share bytes with its reference page the way
// the aligned pages of one type do.
const fuzzBase = "HTTP/1.1 200 OK\r\n\r\n<b>due</b> 12.50 <i>x</i>"

// fuzzPage builds the stamp-th page FuzzCache puts: fuzzBase's first n
// bytes (0–40) left as they are, with one byte or two short runs
// changed, or replaced whole by the stamp's letter, then pad spaces.
// Against its type's reference (the type's first page) a page can be
// longer, shorter, equal, entirely different, and with or without pad.
func fuzzPage(stamp byte, n, pad int) []byte {
	p := []byte(fuzzBase[:n])
	letter := 'a' + stamp%26
	if n > 0 {
		at := int(stamp) * 7 % n
		switch stamp % 4 {
		case 1:
			p[at] = letter
		case 2:
			for i := at; i < min(at+3, n); i++ {
				p[i] = letter
			}
			p[(at+9)%n] = letter
		case 3:
			for i := range p {
				p[i] = letter
			}
		}
	}
	return append(p, bytes.Repeat([]byte{' '}, pad)...)
}

// FuzzCache drives Version, Get, Put and Invalidate, chosen by the
// input's bytes, over four users (two of them in one shard), six keys a
// user, pages of 0–40 live bytes plus 0–7 spaces of pad (fuzzPage) and
// a budget of 1–6 pages or room for every key, and checks the cache
// against a reference model after every call:
//   - no Get hits a page rendered before its user's last Invalidate, and
//     a hit returns, byte for byte, the live bytes of the key's last
//     accepted Put;
//   - every held entry is at its user's current version, is linked into
//     that user's page list exactly once, decodes to the model's page
//     against its type's reference, and holds at most the page's live
//     bytes plus one RunHeader;
//   - Entries stays within the budget, and the held pages are exactly the
//     model's when the budget has room for every key;
//   - Bytes equals the held runs plus the reference pages.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 3, 0, 0, 1, 3, 0, 2, 0})
	f.Add([]byte{1, 0, 1, 6, 5, 2, 9, 1, 17, 2, 33, 3, 1, 2, 5, 3, 5})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 0, 4, 2, 4, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 513 {
			return // 256 calls are plenty for four users
		}
		roomy := ops[0]&1 == 0 // room for all 24 keys
		budget := 1 + int(ops[0]>>1)%6
		if roomy {
			budget = 1024
		}
		c := New(budget)
		uids := fuzzUsers(c)
		ver := map[uint64]uint64{}  // the model's current versions
		capt := map[uint64]uint64{} // the version each user last captured
		model := map[Key][]byte{}   // live bytes of the pages that may hit
		stamp := byte(0)
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			uid := uids[arg&3]
			typ := service.TypeID(arg >> 2 % 3)
			req := testReq(fmt.Sprintf("/p%d.php", arg>>4&1))
			sid := session.ID(uid)
			k := Key{T: typ, SID: sid, UID: uid, H: hashReq(req)}
			switch op & 3 {
			case 0: // capture the version, as the frontend does first
				capt[uid] = c.Version(uid)
				if capt[uid] != ver[uid] {
					t.Fatalf("Version(%d) = %d, model %d", uid, capt[uid], ver[uid])
				}
			case 1: // a committed write
				c.Invalidate(uid)
				ver[uid]++
				for mk := range model {
					if mk.UID == uid {
						delete(model, mk)
					}
				}
			case 2: // insert a render made at the captured version
				stamp++
				page := fuzzPage(stamp, int(op>>2)%41, int(arg>>5))
				c.Put(typ, sid, uid, capt[uid], req, page)
				if capt[uid] == ver[uid] {
					model[k] = bytes.TrimRight(page, " ")
				}
			case 3:
				got, hit := c.Get(typ, sid, uid, capt[uid], req)
				want, ok := model[k]
				ok = ok && capt[uid] == ver[uid]
				if hit && (!ok || !bytes.Equal(got, want)) {
					t.Fatalf("Get(uid %d) hit %q at captured version %d, user at %d; model %q", uid, got, capt[uid], ver[uid], want)
				}
				if roomy && ok && !hit {
					t.Fatalf("Get(uid %d) missed a page the model holds at version %d", uid, ver[uid])
				}
			}
			checkHeld(t, c, ver, model, roomy)
		}
	})
}

// fuzzUsers picks four user ids, the first two in one shard.
func fuzzUsers(c *Cache) [4]uint64 {
	us := [4]uint64{1, 0, 3, 4}
	for uid := uint64(5); us[1] == 0; uid++ {
		if c.shardOf(uid) == c.shardOf(us[0]) {
			us[1] = uid
		}
	}
	return us
}

// checkHeld walks every shard and holds the cache to the model: each
// user record is at the model's version; each held entry hangs off its
// user's record, is in that user's page list once, encodes against its
// type's reference, decodes to the model's bytes for its key and holds
// at most those plus one RunHeader; with exact, every model page is
// held; Entries is within the budget and Bytes is the sum of the held
// runs and the reference pages.
func checkHeld(t *testing.T, c *Cache, ver map[uint64]uint64, model map[Key][]byte, exact bool) {
	t.Helper()
	var entries, held uint64
	refs := c.refs
	for _, r := range refs {
		held += uint64(len(r))
	}
	for i := range c.shards {
		sh := &c.shards[i]
		listed := 0
		for uid, u := range sh.users {
			if u.ver != ver[uid] {
				t.Fatalf("user %d at version %d, model %d", uid, u.ver, ver[uid])
			}
			var prev *entry
			for e := u.pages; e != nil; e = e.next {
				if e.u != u || e.prev != prev || sh.pages[e.key] != e {
					t.Fatalf("user %d's page list is broken at %+v", uid, e.key)
				}
				prev = e
				listed++
			}
		}
		if listed != len(sh.pages) {
			t.Fatalf("shard %d: %d pages listed under users, %d in the map", i, listed, len(sh.pages))
		}
		for k, e := range sh.pages {
			if e.key != k || e.u != sh.users[k.UID] {
				t.Fatalf("%+v is held under another key or user", k)
			}
			if r, ok := refs[k.T]; !ok || !bytes.Equal(e.ref, r) {
				t.Fatalf("%+v is encoded against %q, its type's reference is %q", k, e.ref, r)
			}
			page := appendPage(nil, e.ref, e.runs, e.live)
			if live, ok := model[k]; !ok || !bytes.Equal(page, live) {
				t.Fatalf("cache holds %q for %+v at version %d; model %q, %v", page, k, e.u.ver, live, ok)
			}
			if len(e.runs) > e.live+RunHeader {
				t.Fatalf("%+v holds %d bytes of runs for a %d-byte page", k, len(e.runs), e.live)
			}
			entries++
			held += uint64(len(e.runs))
		}
	}
	st := c.Stats()
	if st.Entries != entries || entries > uint64(c.Budget()) || st.Bytes != held {
		t.Fatalf("Stats %+v; walked %d entries of %d bytes, budget %d", st, entries, held, c.Budget())
	}
	if exact && entries != uint64(len(model)) {
		t.Fatalf("cache holds %d pages, model %d", entries, len(model))
	}
}
