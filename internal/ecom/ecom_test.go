package ecom

import (
	"strconv"
	"testing"

	"rhythm/internal/service/servicetest"
	"rhythm/internal/session"
)

// script covers every ecom type signed in and as a guest, each error
// page, product ids from 0 to the largest uint64, a cart at and past
// its 20-line cap, quantities whose totals run to nine digits, and the
// checkout that finds an empty cart and finishes a stage early.
func script(t testing.TB) (servicetest.World, []servicetest.Round) {
	store := NewStore()
	wd := servicetest.World{Sessions: session.NewArray(256, 64), Backend: store}
	uids := []uint64{3, 77, 5001, 123456789012}
	cookies := make([]string, len(uids))
	for i, uid := range uids {
		sid, _, ok := wd.Sessions.Create(uid)
		if !ok {
			t.Fatal("session table full")
		}
		cookies[i] = "Cookie: " + CookieName + "=" + sid.String() + "\r\n"
	}
	get := func(uri, cookie string) string {
		return "GET " + uri + " HTTP/1.1\r\nHost: shop\r\n" + cookie + "\r\n"
	}
	post := func(path, cookie, body string) string {
		return "POST " + path + " HTTP/1.1\r\nHost: shop\r\n" + cookie + "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	}
	var rounds []servicetest.Round
	add := func(local int, raw ...string) {
		rounds = append(rounds, servicetest.Round{Local: local, Raw: raw})
	}
	const stale = "Cookie: " + CookieName + "=ffffffffffffffff\r\n"

	add(Index, get("/index.php", ""), get("/index.php", cookies[0]), get("/index.php", cookies[3]), get("/index.php", stale))
	var browse []string
	for i, cat := range Categories {
		browse = append(browse, get("/browse.php?cat="+cat, cookies[i%len(cookies)]))
	}
	add(Browse, append(browse, get("/browse.php?cat=nosuch", ""), get("/browse.php", ""), get("/browse.php?cat=%3Cb%3E", ""))...)
	add(Search, get("/search.php?q=kw1", ""), get("/search.php?q=lamp", cookies[1]), get("/search.php?q=a+b", ""),
		get("/search.php?q=%3Cx%3E", cookies[2]), get("/search.php?q=", ""), get("/search.php", ""))
	add(Product, get("/product.php?id=0", ""), get("/product.php?id=7", cookies[0]), get("/product.php?id=99999", ""),
		get("/product.php?id=18446744073709551615", cookies[3]), get("/product.php?id=abc", ""), get("/product.php?id=-1", ""), get("/product.php", ""))

	// One bucket per uid of a cart round: a cart add creates a session,
	// and same-bucket creates of one cohort may take each other's node.
	buckets := map[int]bool{}
	for _, uid := range []uint64{77, 5001, 123456789012, 9, 10} {
		b := session.BucketFor(uid, 256)
		if buckets[b] {
			t.Fatalf("cart uid %d shares bucket %d", uid, b)
		}
		buckets[b] = true
	}
	add(Cart, post("/cart.php", "", "uid=77&id=99999&qty=99"), post("/cart.php", "", "uid=5001&id=31"),
		post("/cart.php", "", "uid=123456789012&id=0&qty=1"), post("/cart.php", "", "uid=9&id=5&qty=0"),
		post("/cart.php", "", "uid=10&id=5&qty=100"), post("/cart.php", "", "uid=11&id=5&qty=abc"),
		post("/cart.php", "", "id=5&qty=1"), post("/cart.php", "", "uid=12&id=x"))
	add(Cart, post("/cart.php", "", "uid=77&id=18446744073709551615&qty=98"))
	for i := 0; i < 18; i++ { // fill uid 5001's cart to 19 lines
		store.Handle(nil, []byte("ADDCART 5001 "+strconv.Itoa(i*7919)+" "+strconv.Itoa(1+i%9)))
	}
	add(Cart, post("/cart.php", "", "uid=5001&id=424242&qty=2")) // the 20th line
	add(Cart, post("/cart.php", "", "uid=5001&id=1&qty=1"))      // cart full
	add(Index, get("/index.php", cookies[1]))
	add(Checkout, post("/checkout.php", cookies[0], ""), post("/checkout.php", cookies[1], ""), post("/checkout.php", cookies[2], ""),
		post("/checkout.php", cookies[3], ""), post("/checkout.php", stale, ""), post("/checkout.php", "", ""))
	add(Checkout, post("/checkout.php", cookies[1], "")) // emptied by the order
	add(Cart, post("/cart.php", "", "uid=77&id=12&qty=3"))
	add(Checkout, post("/checkout.php", cookies[1], "")) // second order: next confirmation id
	return wd, rounds
}

// TestResponseDigests holds every byte the host path renders for the
// script to testdata/digests.txt, written from the code as it stood
// before the page kit and the store were ported off fmt.
func TestResponseDigests(t *testing.T) {
	servicetest.CheckDigests(t, New(), script, "testdata/digests.txt")
}

// TestStageKernelsMatchHost: for every type, error lanes and early
// exits included, the stage kernels render what the host path renders.
func TestStageKernelsMatchHost(t *testing.T) {
	servicetest.CheckStageKernels(t, New(), script)
}

// TestKeptLinesOwnTheirBytes: what the stages keep of a backend response
// survives the backend's next Handle and the lane slot's next fill.
func TestKeptLinesOwnTheirBytes(t *testing.T) {
	servicetest.CheckKeptLines(t, New(), script)
}
