package httpx

import (
	"bytes"
	"fmt"
	"net/url"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseGETWithQuery(t *testing.T) {
	raw := []byte("GET /account_summary.php?userid=42&session=ab12 HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=77; theme=dark\r\n\r\n")
	req, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != GET {
		t.Fatalf("Method = %v", req.Method)
	}
	if req.Path != "/account_summary.php" {
		t.Fatalf("Path = %q", req.Path)
	}
	if req.Param("userid") != "42" || req.Param("session") != "ab12" {
		t.Fatalf("Params = %+v", req.Params)
	}
	if req.Cookie("MY_ID") != "77" || req.Cookie("theme") != "dark" {
		t.Fatalf("Cookies = %+v", req.Cookies)
	}
	if req.ScanCost != len(raw) {
		t.Fatalf("ScanCost = %d, want %d", req.ScanCost, len(raw))
	}
}

func TestParsePOSTBody(t *testing.T) {
	body := "userid=1001&passwd=secret+word"
	raw := []byte(fmt.Sprintf("POST /login.php HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	req, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != POST || req.Path != "/login.php" {
		t.Fatalf("req = %+v", req)
	}
	if req.Param("passwd") != "secret word" {
		t.Fatalf("passwd = %q", req.Param("passwd"))
	}
	if req.Body != body {
		t.Fatalf("Body = %q", req.Body)
	}
}

func TestParseTrailingNULs(t *testing.T) {
	// Cohort request slots are fixed-size and NUL-padded.
	raw := make([]byte, 512)
	copy(raw, "GET /logout.php HTTP/1.1\r\n\r\n")
	req, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Path != "/logout.php" {
		t.Fatalf("Path = %q", req.Path)
	}
}

func TestParsePercentEscapes(t *testing.T) {
	raw := []byte("GET /x.php?name=J%6Fhn%20Doe&bad=%zz HTTP/1.1\r\n\r\n")
	req, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Param("name") != "John Doe" {
		t.Fatalf("name = %q", req.Param("name"))
	}
	if req.Param("bad") != "%zz" {
		t.Fatalf("bad escape should pass through, got %q", req.Param("bad"))
	}
}

// badRequests are requests Parse must reject, one per error path.
var badRequests = []struct {
	name string
	raw  string
}{
	{"empty", ""},
	{"no-crlf", "GET / HTTP/1.1"},
	{"bad-method", "BREW /pot HTTP/1.1\r\n\r\n"},
	{"no-uri", "GET\r\n\r\n"},
	{"bad-proto", "GET / SPDY/9\r\n\r\n"},
	{"bad-length", "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n"},
	{"neg-length", "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"},
	{"short-body", "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"},
	{"header-no-colon", "GET / HTTP/1.1\r\nBogus header\r\n\r\n"},
	{"unterminated-headers", "GET / HTTP/1.1\r\nHost: x\r\n"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range badRequests {
		if _, err := Parse([]byte(c.raw)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseManyHeadersRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < maxHeaders+1; i++ {
		fmt.Fprintf(&b, "X-%d: v\r\n", i)
	}
	b.WriteString("\r\n")
	if _, err := Parse([]byte(b.String())); err == nil {
		t.Fatal("expected too-many-headers error")
	}
}

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return unescape(url.QueryEscape(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsRoundTripThroughRequest(t *testing.T) {
	f := func(k, v string) bool {
		if k == "" {
			return true
		}
		raw := fmt.Sprintf("GET /p.php?%s=%s HTTP/1.1\r\n\r\n", url.QueryEscape(k), url.QueryEscape(v))
		req, err := Parse([]byte(raw))
		if err != nil {
			return false
		}
		return req.Param(k) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseWriterBackpatch(t *testing.T) {
	buf := make([]byte, 4096)
	w := NewResponseWriter(buf)
	w.StartOK("text/html", "MY_ID=12345")
	w.WriteString("<html><body>hello</body></html>")
	out := w.Finish()

	status, hdrs, body, err := ParseResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if got := strings.TrimSpace(hdrs["Content-Length"]); got != "31" {
		t.Fatalf("Content-Length = %q", got)
	}
	if string(body) != "<html><body>hello</body></html>" {
		t.Fatalf("body = %q", body)
	}
	if hdrs["Set-Cookie"] != "MY_ID=12345" {
		t.Fatalf("Set-Cookie = %q", hdrs["Set-Cookie"])
	}
}

func TestResponseWriterPadTo(t *testing.T) {
	buf := make([]byte, 256)
	w := NewResponseWriter(buf)
	w.StartOK("text/html", "")
	start := w.Len()
	w.WriteString("xy")
	w.PadTo(start + 10)
	out := w.Finish()
	_, _, body, err := ParseResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "xy        " {
		t.Fatalf("body = %q", body)
	}
}

func TestResponseWriterPadToBackwardPanics(t *testing.T) {
	w := NewResponseWriter(make([]byte, 64))
	w.WriteString("abcdef")
	defer func() {
		if recover() == nil {
			t.Error("backward PadTo did not panic")
		}
	}()
	w.PadTo(3)
}

func TestResponseWriterOverflowPanics(t *testing.T) {
	w := NewResponseWriter(make([]byte, 8))
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	w.WriteString("this is longer than eight bytes")
}

func TestResponseWriterErrorResponse(t *testing.T) {
	buf := make([]byte, 512)
	w := NewResponseWriter(buf)
	w.StartError(404, "Not Found")
	status, _, body, err := ParseResponse(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if status != 404 || !bytes.Contains(body, []byte("404")) {
		t.Fatalf("status=%d body=%q", status, body)
	}
}

func TestResponseWriterDoubleStartPanics(t *testing.T) {
	w := NewResponseWriter(make([]byte, 512))
	w.StartOK("text/html", "")
	defer func() {
		if recover() == nil {
			t.Error("double StartOK did not panic")
		}
	}()
	w.StartOK("text/html", "")
}

func TestPatchContentLengthTooBigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized content length did not panic")
		}
	}()
	patchContentLength(make([]byte, 2), 12345)
}

func TestParseResponseErrors(t *testing.T) {
	if _, _, _, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\n")); err == nil {
		t.Error("missing header terminator should fail")
	}
	if _, _, _, err := ParseResponse([]byte("BOGUS\r\n\r\n")); err == nil {
		t.Error("bad status line should fail")
	}
	if _, _, _, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort")); err == nil {
		t.Error("short body should fail")
	}
}

func TestWhitespacePaddedContentLengthAccepted(t *testing.T) {
	// RFC 2616 permits LWS around header values; the backpatched field is
	// right-aligned in 10 spaces. Make sure a strict-ish parse accepts it.
	raw := []byte("HTTP/1.1 200 OK\r\nContent-Length:          5\r\n\r\nhello")
	_, hdrs, body, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello" {
		t.Fatalf("body = %q", body)
	}
	if hdrs["Content-Length"] != "5" {
		t.Fatalf("Content-Length = %q", hdrs["Content-Length"])
	}
}
