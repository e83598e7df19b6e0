package httpx

import (
	"reflect"
	"testing"
)

// parseCases is one request of every shape the parser reads: a cookie,
// a query, a form body, escapes and a NUL-padded slot.
var parseCases = []string{
	"GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=00000000000000aa\r\n\r\n",
	"GET /check_detail_html.php?check=7&acct=2 HTTP/1.1\r\n\r\n",
	"POST /login.php HTTP/1.1\r\nContent-Length: 23\r\n\r\nuserid=1001&passwd=abcd",
	"GET /p.php?a=%41&b=x+y HTTP/1.1\r\nCookie: a=1; b=2\r\n\r\n",
	"GET /x HTTP/1.1\r\n\r\n\x00\x00\x00",
}

// TestParseIntoMatchesParse drives both entry points over every request
// shape and requires identical results — ParseInto is Parse's
// allocation-lean core, never a divergent parser.
func TestParseIntoMatchesParse(t *testing.T) {
	var reused Request
	for _, raw := range parseCases {
		want, werr := Parse([]byte(raw))
		gerr := ParseInto([]byte(raw), &reused)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: Parse err %v, ParseInto err %v", raw, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !sameParse(want, reused) {
			t.Fatalf("%q:\nParse:     %+v\nParseInto: %+v", raw, want, reused)
		}
	}
}

// sameParse compares two parses field by field, treating a recycled
// empty slice and a nil slice as equal (the arena keeps capacity, a
// fresh parse starts nil — both mean "no entries").
func sameParse(a, b Request) bool {
	return a.Method == b.Method && a.Path == b.Path &&
		a.ContentLength == b.ContentLength && a.Body == b.Body &&
		a.ScanCost == b.ScanCost &&
		reflect.DeepEqual(append([]Param{}, a.Params...), append([]Param{}, b.Params...)) &&
		reflect.DeepEqual(append([]Param{}, a.Cookies...), append([]Param{}, b.Cookies...))
}

// TestParseIntoResetsBetweenRequests reuses one Request across parses
// the way a connection arena does: nothing from the previous request may
// leak into the next.
func TestParseIntoResetsBetweenRequests(t *testing.T) {
	var req Request
	first := "POST /login.php HTTP/1.1\r\nCookie: MY_ID=00000000000000aa; other=1\r\nContent-Length: 23\r\n\r\nuserid=1001&passwd=abcd"
	if err := ParseInto([]byte(first), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Params) != 2 || len(req.Cookies) != 2 || req.Body == "" {
		t.Fatalf("first parse: %+v", req)
	}
	second := "GET /logout.php HTTP/1.1\r\n\r\n"
	if err := ParseInto([]byte(second), &req); err != nil {
		t.Fatal(err)
	}
	if req.Method != GET || req.Path != "/logout.php" {
		t.Fatalf("second parse: %+v", req)
	}
	if len(req.Params) != 0 || len(req.Cookies) != 0 || req.Body != "" || req.ContentLength != 0 {
		t.Fatalf("state leaked from the previous request: %+v", req)
	}
}

// TestParseIntoSteadyStateAllocs pins the arena promise: once the
// param/cookie slices have grown, a parse performs exactly one
// allocation (the raw-to-string conversion its fields alias).
func TestParseIntoSteadyStateAllocs(t *testing.T) {
	raw := []byte("GET /check_detail_html.php?check=7&acct=2 HTTP/1.1\r\nCookie: MY_ID=00000000000000aa\r\n\r\n")
	var req Request
	if err := ParseInto(raw, &req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := ParseInto(raw, &req); err != nil {
			panic(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state ParseInto allocates %.1f objects, want <= 1", allocs)
	}
}

// TestCopyTo verifies the deep copy a cohort's liveReq depends on: after
// the copy, recycling the source's slices must not disturb the copy.
func TestCopyTo(t *testing.T) {
	raw := []byte("GET /p.php?a=1&b=2 HTTP/1.1\r\nCookie: MY_ID=00000000000000aa\r\n\r\n")
	var src Request
	if err := ParseInto(raw, &src); err != nil {
		t.Fatal(err)
	}
	var dst Request
	src.CopyTo(&dst)
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("CopyTo diverged:\nsrc: %+v\ndst: %+v", src, dst)
	}
	// Recycle the source for another request (arena reuse).
	if err := ParseInto([]byte("GET /other.php?z=9 HTTP/1.1\r\n\r\n"), &src); err != nil {
		t.Fatal(err)
	}
	if dst.Path != "/p.php" || dst.Param("a") != "1" || dst.Param("b") != "2" || dst.Cookie("MY_ID") != "00000000000000aa" {
		t.Fatalf("copy corrupted by source reuse: %+v", dst)
	}
}
