package rhythm

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rhythm/internal/httpx"
)

// TestDrainClosesKeepAliveConnections: under either pin Drain closes idle
// keep-alive connections promptly and leaves no goroutine behind — not
// the accept loop, not a connection handler parked in its 30 s read.
func TestDrainClosesKeepAliveConnections(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"host", []Option{WithHostExecution()}},
		{"cohort", []Option{WithFormation(8, 4, 2*time.Millisecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New("127.0.0.1:0", tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			served := make(chan error, 1)
			go func() { served <- srv.Serve() }()

			// Two connections, each with one answered request behind it,
			// so both handlers are parked in their keep-alive read.
			var readers []*bufio.Reader
			for i := 0; i < 2; i++ {
				conn := dialT(t, srv.Addr())
				r := bufio.NewReader(conn)
				fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", HealthPathV1)
				readRawResponse(t, r)
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				readers = append(readers, r)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			for i, r := range readers {
				if _, err := r.ReadByte(); !errors.Is(err, io.EOF) {
					t.Fatalf("connection %d after Drain: %v, want EOF", i, err)
				}
			}
			if err := <-served; err != nil {
				t.Fatalf("Serve returned %v after Drain", err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Drain, %d before Serve", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// paddedRequest builds a body-less GET whose header section (request
// line through the blank line) is exactly total bytes, as one long
// header line.
func paddedRequest(total int) []byte {
	const head, tail = "GET /index.php HTTP/1.1\r\nX-Pad: ", "\r\n\r\n"
	return []byte(head + strings.Repeat("a", total-len(head)-len(tail)) + tail)
}

// postOfLength builds a POST declaring (and carrying) an n-byte body.
func postOfLength(n int) []byte {
	return append([]byte(fmt.Sprintf("POST /t/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n", n)),
		bytes.Repeat([]byte("b"), n)...)
}

// limitCase is one request at or past an edge of the frontend's size
// limits.
type limitCase struct {
	name     string
	raw      []byte
	tooLarge bool // errHeaderTooLarge
	rejected bool // any other error
}

// requestLimitCases builds the table (a few MB of bodies, so not a
// package variable); FuzzReadRequest seeds from it too.
func requestLimitCases() []limitCase {
	return []limitCase{
		{name: "line past the cap with no newline", raw: bytes.Repeat([]byte("a"), maxHeaderBytes+1), tooLarge: true},
		{name: "many small lines past the cap",
			raw:      []byte("GET / HTTP/1.1\r\n" + strings.Repeat("X-H: v\r\n", maxHeaderBytes/8+1) + "\r\n"),
			tooLarge: true},
		{name: "header section exactly at the cap", raw: paddedRequest(maxHeaderBytes)},
		{name: "header section one byte past the cap", raw: paddedRequest(maxHeaderBytes + 1), tooLarge: true},
		{name: "content length at the body limit", raw: postOfLength(maxBodyBytes)},
		{name: "content length past the body limit", raw: postOfLength(maxBodyBytes + 1), rejected: true},
	}
}

// TestReadRequestLimits: the header section is capped (an endless line
// or endless lines must not grow the arena without bound), the body
// limit holds at its edge, and an accepted request consumes exactly its
// own bytes.
func TestReadRequestLimits(t *testing.T) {
	for _, tc := range requestLimitCases() {
		t.Run(tc.name, func(t *testing.T) {
			const next = "GET /next HTTP/1.1\r\n\r\n"
			r := bufio.NewReader(io.MultiReader(bytes.NewReader(tc.raw), strings.NewReader(next)))
			got, err := readRequestInto(r, nil)
			if len(got) > maxHeaderBytes+maxBodyBytes {
				t.Fatalf("returned %d bytes, past the %d limit", len(got), maxHeaderBytes+maxBodyBytes)
			}
			switch {
			case tc.tooLarge:
				if !errors.Is(err, errHeaderTooLarge) {
					t.Fatalf("err = %v, want errHeaderTooLarge", err)
				}
			case tc.rejected:
				if err == nil || errors.Is(err, errHeaderTooLarge) {
					t.Fatalf("err = %v, want a body-limit rejection", err)
				}
			default:
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if !bytes.Equal(got, tc.raw) {
					t.Fatalf("returned %d bytes, want the %d sent", len(got), len(tc.raw))
				}
				if rest, _ := io.ReadAll(r); string(rest) != next {
					t.Fatalf("left %q unread, want the next request", rest)
				}
			}
		})
	}

	// A buffer grown by one large request is not kept for the next.
	a := newConnArena(0)
	a.keepRaw(make([]byte, 0, maxRetainedRaw))
	if cap(a.raw) != maxRetainedRaw {
		t.Fatalf("arena dropped a %d-byte buffer at the retention cap", maxRetainedRaw)
	}
	a.keepRaw(make([]byte, 0, maxRetainedRaw+1))
	if cap(a.raw) > maxRetainedRaw {
		t.Fatalf("arena retained %d bytes, cap is %d", cap(a.raw), maxRetainedRaw)
	}
}

// TestOversizedHeaderAnswers431: on the wire an oversized header section
// gets a 431 and a closed connection, and the server keeps serving.
func TestOversizedHeaderAnswers431(t *testing.T) {
	srv := startNew(t, WithHostExecution())
	conn := dialT(t, srv.Addr())
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// One byte past the cap, ending the line so the server's reader sees
	// it all and closes without unread input (no RST racing the 431).
	if _, err := conn.Write(append(bytes.Repeat([]byte("a"), maxHeaderBytes), '\n')); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if resp := string(readRawResponse(t, r)); !strings.HasPrefix(resp, "HTTP/1.1 431 ") {
		t.Fatalf("oversized header answered %.80q, want 431", resp)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("connection still open after a 431")
	}
	if resp := string(get(t, srv, HealthPathV1)); !strings.HasPrefix(resp, "HTTP/1.1 200 ") {
		t.Fatalf("server stopped serving after a 431: %.80q", resp)
	}
}

// FuzzReadRequest drives arbitrary bytes through the frontend's reader
// and parser on one reused arena, as a connection would: nothing
// panics, the buffer stays within the header cap plus the body limit,
// an accepted request consumed exactly the bytes it returns, and a
// valid request that follows parses exactly as it does on a fresh
// arena.
func FuzzReadRequest(f *testing.F) {
	f.Add([]byte(rawPost("/login.php", "", "userid=7&passwd=pw")))
	f.Add([]byte(rawGet("/account_summary.php", "MY_ID=1-2-3")))
	f.Add([]byte(rawPost("/cart.php", "", "uid=9001&id=4242&qty=2")))
	f.Add([]byte(rawGet("/t/poll?dev=d1&sub=1", "")))
	for _, tc := range requestLimitCases() {
		f.Add(tc.raw)
	}
	const valid = "POST /cart.php?x=1 HTTP/1.1\r\nHost: t\r\nCookie: A=b; C=d\r\nContent-Length: 9\r\n\r\nuid=1&q=2"
	var want httpx.Request
	if err := httpx.ParseInto([]byte(valid), &want); err != nil {
		f.Fatal(err)
	}
	a := newConnArena(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		raw, err := readRequestInto(r, a.raw[:0])
		a.keepRaw(raw)
		if len(raw) > maxHeaderBytes+maxBodyBytes {
			t.Fatalf("buffer grew to %d bytes, past the %d limit", len(raw), maxHeaderBytes+maxBodyBytes)
		}
		if cap(a.raw) > maxRetainedRaw {
			t.Fatalf("arena retained %d bytes, cap is %d", cap(a.raw), maxRetainedRaw)
		}
		if err == nil {
			if !bytes.HasPrefix(data, raw) {
				t.Fatalf("accepted request %q is not a prefix of the input", raw)
			}
			if consumed := len(data) - src.Len() - r.Buffered(); consumed != len(raw) {
				t.Fatalf("accepted a %d-byte request but consumed %d bytes", len(raw), consumed)
			}
			httpx.ParseInto(raw, &a.req) // must not panic; rejection is fine
		}

		// Whatever came before, the connection's next valid request reads
		// and parses as on a fresh arena.
		raw, err = readRequestInto(bufio.NewReader(strings.NewReader(valid)), a.raw[:0])
		a.keepRaw(raw)
		if err != nil || string(raw) != valid {
			t.Fatalf("valid request after fuzz input: %q, %v", raw, err)
		}
		if err := httpx.ParseInto(raw, &a.req); err != nil {
			t.Fatalf("valid request after fuzz input does not parse: %v", err)
		}
		if !reflect.DeepEqual(a.req, want) {
			t.Fatalf("reused arena parsed\n%+v\nfresh arena parsed\n%+v", a.req, want)
		}
	})
}

// TestOversizeBackendRequestIsAnErrorPage: a login whose password makes
// the AUTH line outgrow the 1 KB backend request slot is that request's
// failure — the §4.4 error page, byte for byte the same from the host
// server, from the default server (whose lone requests run on the
// device's host path) and from a pinned cohort server (whose stage
// kernel fills the slot) — and never the process's: the next request on
// a new connection is answered.
func TestOversizeBackendRequestIsAnErrorPage(t *testing.T) {
	raw := rawPost("/login.php", "", "userid=4242&passwd="+strings.Repeat("x", 1536))
	errorsOf := func(srv Server) uint64 {
		if snap := srv.Snapshot(); snap.Host != nil {
			return snap.Host.Errors
		} else {
			return snap.Cohort.KernelErrors
		}
	}
	var first []byte
	for _, c := range []struct {
		name string
		srv  Server
	}{
		{"host", startNew(t, WithHostExecution())},
		{"default", startNew(t)},
		{"pinned", startNew(t, WithFormation(8, 4, 2*time.Millisecond))},
	} {
		before := errorsOf(c.srv)
		conn := dialT(t, c.srv.Addr())
		if _, err := io.WriteString(conn, raw); err != nil {
			t.Fatal(err)
		}
		page := readRawResponse(t, bufio.NewReader(conn))
		if !bytes.Contains(page, []byte("Request failed")) || !bytes.Contains(page, []byte("backend request too large")) {
			t.Fatalf("%s: answered %.200q, want the error page", c.name, page)
		}
		if first == nil {
			first = page
		} else if !bytes.Equal(page, first) {
			t.Fatalf("%s: error page differs from the host server's", c.name)
		}
		if got := errorsOf(c.srv) - before; got != 1 {
			t.Fatalf("%s: %d errors counted, want 1", c.name, got)
		}
		if resp := get(t, c.srv, "/index.php"); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) {
			t.Fatalf("%s: the next request was answered %.80q", c.name, resp)
		}
	}
}
