package rhythm

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strconv"
	"testing"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/httpx"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
)

// cacheDiffServer is the slice of the server the render-cache
// differential drive needs: it seeds users as the reference does and
// exposes its bound address.
type cacheDiffServer interface {
	Addr() net.Addr
	Seed(uid uint64) (uint64, string)
}

// cacheableGETs are the read-only pages the render cache may serve
// (rcache.Cacheable types), in the driveAllTypes order.
var cacheableGETs = []struct{ label, uri string }{
	{"account_summary", "/account_summary.php"},
	{"add_payee", "/add_payee.php"},
	{"bill_pay", "/bill_pay.php"},
	{"bill_pay_status_output", "/bill_pay_status_output.php"},
	{"change_profile", "/change_profile.php"},
	{"check_detail_html", "/check_detail_html.php?check_no=1234"},
	{"order_check", "/order_check.php"},
	{"profile", "/profile.php"},
	{"transfer", "/transfer.php"},
}

// driveRenderCacheDifferential runs the cache-sensitive sequence through
// the scalar reference and the cache-enabled server under test in lock
// step, asserting every response is byte-identical. Per user: login,
// every cacheable page twice back to back (the second pass must be
// served from the cache with the exact bytes a re-render would produce),
// every mutating POST (each fires the backend write hook), the cacheable
// pages again (a stale page here means an invalidation was missed), then
// logout and an expired-session probe. Serial lock-step keeps DB/session
// mutation order identical on both sides, so byte equality is the whole
// correctness statement: cache on/off may not be distinguishable from
// response bytes.
func driveRenderCacheDifferential(t *testing.T, cached cacheDiffServer, uids []uint64) {
	t.Helper()
	ls := newLockstep(t, cached)
	for _, uid := range uids {
		_, pw := ls.host.Seed(uid)
		if _, cpw := cached.Seed(uid); cpw != pw {
			t.Fatalf("uid %d: password mismatch: reference %q cached %q", uid, pw, cpw)
		}
		login := ls.exchange(fmt.Sprintf("login uid=%d", uid),
			rawPost("/login.php", "", fmt.Sprintf("userid=%d&passwd=%s", uid, pw)))
		cookie := cookieFrom(t, login, "MY_ID")
		for pass := 1; pass <= 2; pass++ {
			for _, p := range cacheableGETs {
				ls.exchange(fmt.Sprintf("%s uid=%d pass=%d", p.label, uid, pass), rawGet(p.uri, cookie))
			}
		}
		writes := []struct{ label, uri, body string }{
			{"place_check_order", "/place_check_order.php", "style=standard&quantity=100"},
			{"post_payee", "/post_payee.php", "name=Vendor0001&account=P-000001"},
			{"post_transfer", "/post_transfer.php", "from=0&to=1&amount=0.42"},
			{"quick_pay", "/quick_pay.php", "payee1=Vendor0001&amount1=2.00&payee2=Vendor0002&amount2=3.25"},
		}
		for _, w := range writes {
			ls.exchange(fmt.Sprintf("%s uid=%d", w.label, uid), rawPost(w.uri, cookie, w.body))
		}
		for _, p := range cacheableGETs {
			ls.exchange(fmt.Sprintf("%s uid=%d post-write", p.label, uid), rawGet(p.uri, cookie))
		}
		ls.exchange(fmt.Sprintf("logout uid=%d", uid), rawGet("/logout.php", cookie))
		ls.exchange(fmt.Sprintf("expired uid=%d", uid), rawGet("/profile.php", cookie))
	}
}

// startHostCached boots a server pinned to the host route with the
// render cache on, at the reference's session geometry.
func startHostCached(t *testing.T) *cohortServer {
	t.Helper()
	return startCohortServer(t, cohortOptions{MaxSessions: 4096, RenderCache: 4096, CrossoverRate: math.Inf(1)})
}

// newHostCached builds the same server without a listener, for tests
// that drive respond in-process, with a cache of entries pages.
func newHostCached(t *testing.T, entries int) *cohortServer {
	t.Helper()
	s, err := newCohortServer(cohortOptions{MaxSessions: 4096, RenderCache: entries, CrossoverRate: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) })
	return s
}

// TestHostRenderCacheDifferential: the host route with the render cache
// enabled must be byte-indistinguishable from the uncached reference,
// while actually serving from the cache (hits) and invalidating on
// backend writes.
func TestHostRenderCacheDifferential(t *testing.T) {
	s := startHostCached(t)
	driveRenderCacheDifferential(t, s, []uint64{9301, 9302})

	st := s.Stats()
	// Pass 2 replays every cacheable page exactly: 9 hits per user.
	if st.CacheHits < uint64(2*len(cacheableGETs)) {
		t.Fatalf("cache_hits = %d, want >= %d", st.CacheHits, 2*len(cacheableGETs))
	}
	if st.CacheMisses == 0 {
		t.Fatal("no cache misses recorded; pass 1 should miss")
	}
	if st.CacheInvalidations == 0 {
		t.Fatal("backend writes did not invalidate the cache")
	}
}

// TestHostRenderCacheDifferentialEcom: ecom's four cacheable types (8 KB
// and 16 KB buffer classes; banking's are 32 KB and 64 KB) served from
// the cache are byte-identical to the uncached reference — the hit's pad
// restored to each type's buffer — before and after a cart_add
// invalidates the user's pages.
func TestHostRenderCacheDifferentialEcom(t *testing.T) {
	cached := startHostCached(t)
	ls := newLockstep(t, cached)

	cookie := cookieFrom(t, ls.exchange("cart_add", rawPost("/cart.php", "", "uid=9601&id=4242&qty=2")), "EC_ID")
	pages := []string{"/index.php", "/browse.php?cat=books", "/search.php?q=lamp", "/product.php?id=4242"}
	for round := 1; round <= 2; round++ {
		for _, uri := range pages {
			ls.exchange(fmt.Sprintf("%s round %d", uri, round), rawGet(uri, cookie))
		}
	}
	hits := cached.Stats().CacheHits
	ls.exchange("cart_add again", rawPost("/cart.php", cookie, "uid=9601&id=137&qty=1"))
	for _, uri := range pages {
		ls.exchange(uri+" after cart_add", rawGet(uri, cookie))
	}

	if hits < uint64(len(pages)) {
		t.Fatalf("cache_hits = %d after the repeated round, want >= %d", hits, len(pages))
	}
	if cached.Stats().CacheInvalidations == 0 {
		t.Fatal("cart_add did not invalidate the cache")
	}
}

// TestCohortRenderCacheDifferential: same contract in cohort mode — a
// cache hit bypasses cohort formation and kernel launch entirely, and
// still must be byte-identical to the uncached host path.
func TestCohortRenderCacheDifferential(t *testing.T) {
	dev := startCohortServer(t, cohortOptions{
		CohortSize:       8,
		MaxCohorts:       4,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096, // host session geometry, so ids match
		RenderCache:      4096,
	})
	driveRenderCacheDifferential(t, dev, []uint64{9311, 9312})

	st := dev.Stats()
	if st.CacheHits < uint64(2*len(cacheableGETs)) {
		t.Fatalf("cache_hits = %d, want >= %d", st.CacheHits, 2*len(cacheableGETs))
	}
	if st.CacheMisses == 0 || st.CacheInvalidations == 0 {
		t.Fatalf("cache counters idle: misses=%d invalidations=%d", st.CacheMisses, st.CacheInvalidations)
	}
	// Hits bypass formation: fewer cohorts than requests served.
	if st.CohortsFormed == 0 {
		t.Fatal("no cohorts formed; misses should still launch")
	}
}

// TestClusterRenderCacheDifferential: the cache sits in front of the
// multi-device dispatch, so a four-device pool with session-affinity
// sharding must keep the same byte-identity and hit behavior.
func TestClusterRenderCacheDifferential(t *testing.T) {
	opts := multiDeviceOpts(nil)
	opts.RenderCache = 4096
	dev := startCohortServer(t, opts)
	driveRenderCacheDifferential(t, dev, differentialUIDs)

	st := dev.Stats()
	if len(st.Devices) != 4 {
		t.Fatalf("stats report %d devices, want 4", len(st.Devices))
	}
	if st.CacheHits < uint64(len(differentialUIDs)*len(cacheableGETs)) {
		t.Fatalf("cache_hits = %d, want >= %d", st.CacheHits, len(differentialUIDs)*len(cacheableGETs))
	}
	if st.CacheInvalidations == 0 {
		t.Fatal("cluster write hook did not invalidate the cache")
	}
	if st.Failovers != 0 {
		t.Fatalf("clean run counted %d failovers", st.Failovers)
	}
}

// TestClusterRenderCacheFailover: losing the device that owns the first
// user's shard group mid-sequence must not let a stale cached page
// survive the failover — every response, including the post-write
// re-renders executed on the new owner, stays byte-identical to the
// uncached host.
func TestClusterRenderCacheFailover(t *testing.T) {
	target := faultTargetDevice(differentialUIDs[0], 4)
	plan := &cluster.FaultPlan{Faults: []cluster.Fault{
		{Device: target, Kind: cluster.KindLoss, AfterUnits: 1},
	}}
	opts := multiDeviceOpts(plan)
	opts.RenderCache = 4096
	dev := startCohortServer(t, opts)
	driveRenderCacheDifferential(t, dev, differentialUIDs)

	st := dev.Stats()
	if st.Failovers == 0 {
		t.Fatal("device loss did not count a failover")
	}
	if st.CacheHits == 0 || st.CacheInvalidations == 0 {
		t.Fatalf("cache idle across failover: hits=%d invalidations=%d", st.CacheHits, st.CacheInvalidations)
	}
}

// TestRenderCacheInvalidationIsolation pins the invalidation scope on
// the in-process respond path: a write by one user evicts exactly that
// user's pages — the other user's next read is still a hit — and the
// writer's next read re-renders with the mutated state.
func TestRenderCacheInvalidationIsolation(t *testing.T) {
	s := newHostCached(t, 4096)
	a := newConnArena(s.reg.MaxBufferBytes())

	login := func(uid uint64) string {
		_, pw := s.Seed(uid)
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
		resp := s.respond(a, []byte(fmt.Sprintf(
			"POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)))
		cookie := setCookieValue(string(resp))
		if cookie == "" {
			t.Fatalf("uid %d: login returned no cookie: %.200q", uid, resp)
		}
		return cookie
	}
	summary := func(cookie string) []byte {
		resp := s.respond(a, []byte("GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: "+cookie+"\r\n\r\n"))
		return append([]byte(nil), resp...)
	}

	cookieA := login(9401)
	cookieB := login(9402)
	pageA := summary(cookieA) // miss + insert
	summary(cookieB)          // miss + insert
	before := s.cache.Stats()

	// A transfers between its own accounts: the write hook must evict
	// A's pages and only A's.
	tbody := "from=0&to=1&amount=1.00"
	s.respond(a, []byte(fmt.Sprintf(
		"POST /post_transfer.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\nContent-Length: %d\r\n\r\n%s",
		cookieA, len(tbody), tbody)))
	mid := s.cache.Stats()
	if mid.Invalidations == before.Invalidations {
		t.Fatal("post_transfer did not fire the invalidation hook")
	}

	pageB2 := summary(cookieB)
	afterB := s.cache.Stats()
	if afterB.Hits != mid.Hits+1 {
		t.Fatalf("user B's read after A's write was not a hit: hits %d -> %d", mid.Hits, afterB.Hits)
	}

	pageA2 := summary(cookieA)
	afterA := s.cache.Stats()
	if afterA.Misses != afterB.Misses+1 {
		t.Fatalf("user A's read after its write was not a miss: misses %d -> %d", afterB.Misses, afterA.Misses)
	}
	if bytes.Equal(pageA, pageA2) {
		t.Fatal("A's account summary is unchanged after a transfer — stale page served")
	}
	if len(pageB2) == 0 || len(pageA2) == 0 {
		t.Fatal("empty response from respond")
	}
}

// TestRenderCacheStatsEndpoints: the server surfaces the cache counters
// in /v1/stats and /metrics so the e2e smoke can assert on them.
func TestRenderCacheStatsEndpoints(t *testing.T) {
	s := newHostCached(t, 64)
	a := newConnArena(s.reg.MaxBufferBytes())
	_, pw := s.Seed(9501)
	body := fmt.Sprintf("userid=%d&passwd=%s", 9501, pw)
	resp := s.respond(a, []byte(fmt.Sprintf(
		"POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)))
	cookie := setCookieValue(string(resp))
	req := []byte("GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: " + cookie + "\r\n\r\n")
	live := httpx.LiveLen(s.respond(a, req)) // the one page the cache holds
	if buf := s.reg.Spec(a.t).BufferBytes; live >= buf {
		t.Fatalf("account_summary's %d live bytes fill its %d-byte buffer; want a pad to trim", live, buf)
	}
	s.respond(a, req)

	stats := s.respond(a, []byte("GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n"))
	if !bytes.Contains(stats, []byte(`"cache_hits": 1`)) {
		t.Fatalf("/v1/stats missing cache_hits: %.400q", stats)
	}
	metrics := s.metricsResponse()
	if !bytes.Contains(metrics, []byte("rhythm_render_cache_hits_total 1")) {
		t.Fatalf("/metrics missing rhythm_render_cache_hits_total: %.400q", metrics)
	}
	if !bytes.Contains(metrics, []byte("rhythm_render_cache_entries")) {
		t.Fatalf("/metrics missing rhythm_render_cache_entries gauge")
	}
	// The one page the cache holds is its type's first, so it is the
	// type's reference page: cache_bytes is that page's live bytes, not
	// its padded buffer, and its entry encodes to no runs.
	if want := fmt.Sprintf(`"cache_bytes": %d`, live); !bytes.Contains(stats, []byte(want)) {
		t.Fatalf("/v1/stats missing %s: %.600q", want, stats)
	}
	if want := fmt.Sprintf("rhythm_render_cache_bytes %d\n", live); !bytes.Contains(metrics, []byte(want)) {
		t.Fatalf("/metrics missing %q", want)
	}
	if want := fmt.Sprintf(`"cache_bytes_bound": %d`, wantCacheBytesBound(s)); !bytes.Contains(stats, []byte(want)) {
		t.Fatalf("/v1/stats missing %s: %.600q", want, stats)
	}
}

// wantCacheBytesBound is the render cache's stated byte bound: every
// entry's runs within the largest cacheable page plus one run header,
// and one reference page per cacheable type.
func wantCacheBytesBound(s *cohortServer) uint64 {
	var page, refs int
	for tid := range s.reg.NumTypes() {
		if sp := s.reg.Spec(service.TypeID(tid)); sp.Cacheable {
			page = max(page, sp.BufferBytes)
			refs += sp.BufferBytes
		}
	}
	return uint64(s.cache.Budget())*uint64(page+rcache.RunHeader) + uint64(refs)
}

// TestRenderCacheBytesWithinBound: after a run of half cacheable reads
// and half writes over more pages than the cache holds, /v1/stats'
// cache_bytes is within its cache_bytes_bound (wantCacheBytesBound), and
// /v1/metrics exports the same bound. Once every user has written, the
// cache holds no entry, and cache_bytes is exactly the reference pages:
// the live bytes of each cacheable type's first page.
func TestRenderCacheBytesWithinBound(t *testing.T) {
	s := newHostCached(t, 128)
	a := newConnArena(s.reg.MaxBufferBytes())
	writes := []struct{ uri, body string }{
		{"/place_check_order.php", "style=standard&quantity=100"},
		{"/post_payee.php", "name=Vendor0001&account=P-000001"},
		{"/post_transfer.php", "from=0&to=1&amount=0.42"},
		{"/quick_pay.php", "payee1=Vendor0001&amount1=2.00&payee2=Vendor0002&amount2=3.25"},
	}
	var cookies []string
	for uid := uint64(9601); uid < 9601+24; uid++ {
		_, pw := s.Seed(uid)
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
		cookie := setCookieValue(string(s.respond(a, []byte(fmt.Sprintf(
			"POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)))))
		if cookie == "" {
			t.Fatalf("uid %d: login returned no cookie", uid)
		}
		cookies = append(cookies, cookie)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	firsts := map[service.TypeID]int{} // each type's first page's live bytes
	for i := 0; i < 2000; i++ {
		cookie := cookies[rng.IntN(len(cookies))]
		if i%2 == 0 {
			p := cacheableGETs[rng.IntN(len(cacheableGETs))]
			page := s.respond(a, []byte("GET "+p.uri+" HTTP/1.1\r\nHost: t\r\nCookie: "+cookie+"\r\n\r\n"))
			if _, ok := firsts[a.t]; !ok {
				firsts[a.t] = httpx.LiveLen(page)
			}
			continue
		}
		w := writes[rng.IntN(len(writes))]
		s.respond(a, []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: t\r\nCookie: %s\r\nContent-Length: %d\r\n\r\n%s",
			w.uri, cookie, len(w.body), w.body)))
	}

	st := s.Stats()
	if want := wantCacheBytesBound(s); st.CacheBytesBound != want {
		t.Fatalf("cache_bytes_bound = %d, want %d", st.CacheBytesBound, want)
	}
	if st.CacheHits == 0 || st.CacheInvalidations == 0 || st.CacheEntries == 0 {
		t.Fatalf("the run exercised too little of the cache: %+v", s.cache.Stats())
	}
	if st.CacheBytes > st.CacheBytesBound || st.CacheEntries > uint64(s.cache.Budget()) {
		t.Fatalf("cache holds %d bytes in %d entries; bound %d bytes, %d entries",
			st.CacheBytes, st.CacheEntries, st.CacheBytesBound, s.cache.Budget())
	}
	doc := s.respond(a, []byte("GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n"))
	if want := fmt.Sprintf(`"cache_bytes_bound": %d`, st.CacheBytesBound); !bytes.Contains(doc, []byte(want)) {
		t.Fatalf("/v1/stats missing %s", want)
	}
	if want := "rhythm_render_cache_bytes_bound " + strconv.FormatFloat(float64(st.CacheBytesBound), 'g', -1, 64) + "\n"; !bytes.Contains(s.metricsResponse(), []byte(want)) {
		t.Fatalf("/v1/metrics missing %q", want)
	}

	var refs uint64
	for _, live := range firsts {
		refs += uint64(live)
	}
	for uid := uint64(9601); uid < 9601+24; uid++ {
		s.cache.Invalidate(uid)
	}
	if st := s.Stats(); st.CacheEntries != 0 || st.CacheBytes != refs || len(firsts) != len(cacheableGETs) {
		t.Fatalf("with every user written the cache holds %d entries and %d bytes; want 0 and the %d types' %d reference bytes",
			st.CacheEntries, st.CacheBytes, len(firsts), refs)
	}
}

// TestPlaceOrderChangesNoPage: placing a check order changes no page a
// user can see. Every cacheable banking page renders byte-identical
// before and after a place_check_order on a server without the render
// cache, so the order needs no invalidation; and on one with the cache
// the order fires no write hook and the user's pages stay cached.
func TestPlaceOrderChangesNoPage(t *testing.T) {
	const uid = 9701
	order := "style=premium&quantity=400"
	for _, cached := range []bool{false, true} {
		entries := 0
		if cached {
			entries = 4096
		}
		s, err := newCohortServer(cohortOptions{MaxSessions: 4096, RenderCache: entries, CrossoverRate: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		a := newConnArena(s.reg.MaxBufferBytes())
		_, pw := s.Seed(uid)
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
		cookie := setCookieValue(string(s.respond(a, []byte(fmt.Sprintf(
			"POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)))))
		if cookie == "" {
			t.Fatal("login returned no cookie")
		}
		pages := func() [][]byte {
			var out [][]byte
			for _, p := range cacheableGETs {
				resp := s.respond(a, []byte("GET "+p.uri+" HTTP/1.1\r\nHost: t\r\nCookie: "+cookie+"\r\n\r\n"))
				// A hit is the page less the pad the write appends.
				out = append(out, httpx.AppendSpaces(bytes.Clone(resp), a.pad))
			}
			return out
		}
		before := pages()
		st := s.cacheStats() // zero with the cache off
		resp := s.respond(a, []byte(fmt.Sprintf("POST /place_check_order.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\nContent-Length: %d\r\n\r\n%s",
			cookie, len(order), order)))
		if !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) || !bytes.Contains(resp, []byte("CO-")) {
			t.Fatalf("place_check_order did not confirm an order: %.300q", resp)
		}
		after := pages()
		for i, p := range cacheableGETs {
			if !bytes.Equal(before[i], after[i]) {
				t.Errorf("cache %v: %s changed with a placed order", cached, p.label)
			}
		}
		if cached {
			if got := s.cache.Stats(); got.Invalidations != st.Invalidations || got.Hits != st.Hits+uint64(len(cacheableGETs)) {
				t.Errorf("the order invalidated %d times and the reads after it hit %d of %d pages",
					got.Invalidations-st.Invalidations, got.Hits-st.Hits, len(cacheableGETs))
			}
		}
		s.Drain(context.Background())
	}
}
