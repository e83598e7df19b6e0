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
	// Session IDs carry no generation nonce: after logout+login the same
	// ID can belong to a different user. The UID in the key must keep the
	// old owner's pages unreachable.
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
	// An insert tagged with the captured-before-write version lands
	// unreachable (the out-of-order Put case).
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
	c := New(64) // minimum: one entry per shard
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
	sh := &c.shards[(k.H^9)%shards]
	sh.mu.RLock()
	e := sh.m[k]
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

func TestGetHitAllocs(t *testing.T) {
	c := New(1024)
	req := testReq("/transfer.php")
	ver := c.Version(2)
	c.Put(tTransfer, 8, 2, ver, req, []byte("page"))
	allocs := testing.AllocsPerRun(500, func() {
		if _, hit := c.Get(tTransfer, 8, 2, ver, req); !hit {
			panic("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %.1f objects per hit, want 0", allocs)
	}
}

// TestEntryHoldsLiveBytes: an entry is the page less its trailing run of
// spaces, whatever the run's length or what precedes it, and appending
// the cut spaces back gives the page. The entry is a copy: reusing the
// inserted slice's backing array does not reach it. Bytes counts the
// live bytes held.
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
	var held uint64
	uid := uint64(0)
	for name, p := range pages {
		uid++
		req := testReq("/" + name)
		ver := c.Version(uid)
		c.Put(tProfile, session.ID(uid), uid, ver, req, p)
		page := bytes.Clone(p)
		want := bytes.TrimRight(page, " ")
		held += uint64(len(want))
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

// TestBytesFollowsEntries: the live-byte count tracks replacement,
// capacity eviction and stale deletion, and falls to zero with the
// entries.
func TestBytesFollowsEntries(t *testing.T) {
	c := New(64) // one entry per shard
	req := testReq("/profile.php")
	c.Put(tProfile, 1, 1, 0, req, []byte("abc   "))
	c.Put(tProfile, 1, 1, 0, req, []byte("abcdef  "))
	if got := c.Stats().Bytes; got != 6 {
		t.Fatalf("after replace Bytes = %d, want 6", got)
	}
	c.Invalidate(1)
	if _, hit := c.Get(tProfile, 1, 1, c.Version(1), req); hit {
		t.Fatal("stale entry hit")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("after stale delete Bytes = %d, Entries = %d; want 0, 0", st.Bytes, st.Entries)
	}
	for i := 0; i < 10_000; i++ {
		c.Put(tProfile, session.ID(i), uint64(i), 0, testReq(fmt.Sprintf("/p%d.php", i)), []byte("xy "))
	}
	if st := c.Stats(); st.Bytes != 2*st.Entries {
		t.Fatalf("after eviction Bytes = %d for %d two-byte entries", st.Bytes, st.Entries)
	}
}
