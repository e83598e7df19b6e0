package httpx

import (
	"bytes"
	"fmt"
	"strconv"
)

// ContentLengthPad is the number of whitespace characters reserved for the
// Content-Length value so the header can be written before the body is
// generated and backpatched afterwards — 10 characters covers a 32-bit
// length (§4.3.2 "Whitespace Padding in HTML Headers").
const ContentLengthPad = 10

// ResponseWriter builds an HTTP response into a caller-provided buffer
// without allocation. It implements the paper's single-pass header+body
// generation: the Content-Length field is emitted as padding spaces and
// patched in Finish.
type ResponseWriter struct {
	buf     []byte
	n       int
	lenAt   int // offset of the padded Content-Length value
	bodyAt  int // offset where the body starts
	started bool
}

// NewResponseWriter wraps buf. The response must fit; overflow panics
// (cohort buffers are sized from Table 2 and a response outgrowing its
// slot is a bug, mirroring the fixed device buffers).
func NewResponseWriter(buf []byte) *ResponseWriter {
	return &ResponseWriter{buf: buf, lenAt: -1, bodyAt: -1}
}

// StartOK writes the status line and standard headers with a padded
// Content-Length, leaving the writer positioned at the body. setCookie
// (optional, "name=value") adds a Set-Cookie header.
func (w *ResponseWriter) StartOK(contentType, setCookie string) {
	if w.started {
		panic("httpx: StartOK called twice")
	}
	w.started = true
	w.WriteString("HTTP/1.1 200 OK\r\nContent-Type: ")
	w.WriteString(contentType)
	w.WriteString("\r\nConnection: keep-alive\r\n")
	if setCookie != "" {
		w.WriteString("Set-Cookie: ")
		w.WriteString(setCookie)
		w.WriteString("\r\n")
	}
	w.WriteString("Content-Length: ")
	w.lenAt = w.n
	for i := 0; i < ContentLengthPad; i++ {
		w.WriteByte(' ')
	}
	w.WriteString("\r\n\r\n")
	w.bodyAt = w.n
}

// StartError writes a complete error response (no body padding games).
func (w *ResponseWriter) StartError(status int, reason string) {
	if w.started {
		panic("httpx: StartError after StartOK")
	}
	w.started = true
	body := fmt.Sprintf("<html><body><h1>%d %s</h1></body></html>", status, reason)
	fmt.Fprintf(w, "HTTP/1.1 %d %s\r\nContent-Type: text/html\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s",
		status, reason, len(body), body)
}

// WriteString appends s.
func (w *ResponseWriter) WriteString(s string) {
	if w.n+len(s) > len(w.buf) {
		panic(fmt.Sprintf("httpx: response overflow (%d+%d > %d)", w.n, len(s), len(w.buf)))
	}
	copy(w.buf[w.n:], s)
	w.n += len(s)
}

// Write implements io.Writer.
func (w *ResponseWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		panic(fmt.Sprintf("httpx: response overflow (%d+%d > %d)", w.n, len(p), len(w.buf)))
	}
	copy(w.buf[w.n:], p)
	w.n += len(p)
	return len(p), nil
}

// WriteByte appends one byte.
func (w *ResponseWriter) WriteByte(c byte) error {
	if w.n+1 > len(w.buf) {
		panic("httpx: response overflow")
	}
	w.buf[w.n] = c
	w.n++
	return nil
}

// PadTo appends whitespace until the writer's offset reaches target.
// This is the paper's HTML-body realignment: after a variable-length
// dynamic fragment, every thread in the cohort pads to the same offset so
// subsequent stores stay aligned across lanes. Panics if the writer is
// already past target (the slot was mis-sized).
func (w *ResponseWriter) PadTo(target int) {
	if w.n > target {
		panic(fmt.Sprintf("httpx: PadTo(%d) but already at %d", target, w.n))
	}
	for w.n < target {
		w.n += copy(w.buf[w.n:target], spaceBank)
	}
}

// spaceBank is the one run of spaces padding is written from and
// compared against, a bank at a time: PadTo copies from it, LiveLen
// compares against it and AppendSpaces appends from it.
var spaceBank = bytes.Repeat([]byte{' '}, 4096)

// LiveLen reports len(p) less its trailing run of spaces: the live bytes
// of a padded page. The run is found in chunks of 4096, 512, 64 and 8
// bytes compared against the bank, then at most 7 single bytes — not a
// byte at a time.
func LiveLen(p []byte) int {
	n := len(p)
	for k := len(spaceBank); k >= 8; k /= 8 {
		for n >= k && bytes.Equal(p[n-k:n], spaceBank[:k]) {
			n -= k
		}
	}
	for n > 0 && p[n-1] == ' ' {
		n--
	}
	return n
}

// AppendSpaces appends n spaces to b, a bank at a time: the inverse of
// cutting a padded page to its LiveLen.
func AppendSpaces(b []byte, n int) []byte {
	for n > 0 {
		k := min(n, len(spaceBank))
		b = append(b, spaceBank[:k]...)
		n -= k
	}
	return b
}

// Len reports the bytes written so far.
func (w *ResponseWriter) Len() int { return w.n }

// Finish backpatches the Content-Length padding with the actual body
// length and returns the complete response bytes.
func (w *ResponseWriter) Finish() []byte {
	if w.lenAt >= 0 {
		patchContentLength(w.buf[w.lenAt:w.lenAt+ContentLengthPad], w.n-w.bodyAt)
	}
	return w.buf[:w.n]
}

// patchContentLength writes n right-aligned into the space-padded field,
// formatting into a stack array rather than a string.
func patchContentLength(field []byte, n int) {
	var digits [20]byte
	s := strconv.AppendInt(digits[:0], int64(n), 10)
	if len(s) > len(field) {
		panic("httpx: content length exceeds pad")
	}
	for i := range field {
		field[i] = ' '
	}
	copy(field[len(field)-len(s):], s)
}

// ParseResponse is the validator-side inverse: it splits a raw response
// into status code, headers, and body, checking Content-Length
// consistency (whitespace-padded values are legal per RFC 2616 LWS).
func ParseResponse(raw []byte) (status int, headers map[string]string, body []byte, err error) {
	headEnd := bytes.Index(raw, []byte("\r\n\r\n"))
	if headEnd < 0 {
		return 0, nil, nil, ErrIncomplete
	}
	head := string(raw[:headEnd])
	lines := bytes.Split([]byte(head), []byte("\r\n"))
	var statusLine = string(lines[0])
	var proto string
	var reason string
	_, err = fmt.Sscanf(statusLine, "%s %d", &proto, &status)
	if err != nil || !bytes.HasPrefix([]byte(proto), []byte("HTTP/1.")) {
		return 0, nil, nil, fmt.Errorf("%w: bad status line %q", ErrMalformed, statusLine)
	}
	_ = reason
	headers = make(map[string]string, len(lines)-1)
	for _, ln := range lines[1:] {
		colon := bytes.IndexByte(ln, ':')
		if colon < 0 {
			return 0, nil, nil, fmt.Errorf("%w: bad header %q", ErrMalformed, ln)
		}
		k := string(bytes.TrimSpace(ln[:colon]))
		v := string(bytes.TrimSpace(ln[colon+1:]))
		headers[k] = v
	}
	body = raw[headEnd+4:]
	if cl, ok := headers["Content-Length"]; ok {
		n, convErr := strconv.Atoi(cl)
		if convErr != nil || n < 0 {
			return 0, nil, nil, ErrBadLength
		}
		if len(body) < n {
			return 0, nil, nil, ErrIncomplete
		}
		body = body[:n]
	}
	return status, headers, body, nil
}
