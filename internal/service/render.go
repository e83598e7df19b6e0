package service

import (
	"fmt"

	"rhythm/internal/httpx"
)

// Responses of a page workload are always exactly the type's declared
// buffer size: fixed-width header, content, trailing whitespace fill —
// the fixed geometry that lets Rhythm transpose whole cohorts without
// per-request bookkeeping (§5.1). Every header field is fixed-width
// (session cookies are 16 hex digits, Content-Length a 10-char padded
// field), so all responses of a type have identical layout.

// headerLen computes a type's fixed header size for workload w.
func (w *PageWorkload) headerLen(def *SvcDef) int {
	cookie := ""
	if w.sendsCookie(def) {
		cookie = w.zeroCookie
	}
	return headerWidth(def.contentType(), cookie)
}

// headerWidth is the length of the header httpx.ResponseWriter.StartOK
// writes for contentType and setCookie.
func headerWidth(contentType, setCookie string) int {
	n := 17 // "HTTP/1.1 200 OK\r\n"
	n += 14 + len(contentType) + 2
	n += 24 // "Connection: keep-alive\r\n"
	if setCookie != "" {
		n += 12 + len(setCookie) + 2
	}
	n += 16 + httpx.ContentLengthPad + 4
	return n
}

// sendsCookie reports whether responses of def carry a Set-Cookie
// header (fixed per type, so cohort geometry is uniform).
func (w *PageWorkload) sendsCookie(def *SvcDef) bool {
	return w.cookieName != "" && def.Session != SessionNone
}

func (def *SvcDef) contentType() string {
	if def.ContentType == "" {
		return "text/html"
	}
	return def.ContentType
}

// setCookie is the Set-Cookie value ctx's response carries: "" when
// its type sends none, the all-zero cookie when it has no session.
func (ctx *Ctx) setCookie() string {
	w := ctx.w
	if !w.sendsCookie(ctx.Def) {
		return ""
	}
	if ctx.NewCookie == "" {
		return w.zeroCookie
	}
	return ctx.NewCookie
}

// checkGeometry panics unless ctx's page renders to its type's fixed
// geometry: a header of the type's fixed width and a body that fits the
// buffer behind it. Either failure is a programming error (a cookie of
// the wrong width, a section budget larger than the buffer). The stage
// kernel checks it where it emits, by arithmetic, so the page fails in
// the kernel and not whenever its response is read.
func (ctx *Ctx) checkGeometry() {
	w, def := ctx.w, ctx.Def
	cookie := ctx.setCookie()
	if n := headerWidth(def.contentType(), cookie); n != def.headerLen {
		panic(fmt.Sprintf("service: %s/%s header length %d, want %d (cookie %q)",
			w.name, def.Name, n, def.headerLen, cookie))
	}
	if n := def.headerLen + ctx.Page.Len(); n > def.BufferBytes {
		panic(fmt.Sprintf("service: %s/%s response %d bytes overflows its %d-byte buffer",
			w.name, def.Name, n, def.BufferBytes))
	}
}

// Render assembles the finished ctx into buf, which must be exactly the
// type's buffer size; it returns the full response (== buf).
func (ctx *Ctx) Render(buf []byte) []byte {
	w, def := ctx.w, ctx.Def
	if len(buf) != def.BufferBytes {
		panic(fmt.Sprintf("service: render buffer %d bytes, want %d", len(buf), def.BufferBytes))
	}
	rw := httpx.NewResponseWriter(buf)
	cookie := ctx.setCookie()
	rw.StartOK(def.contentType(), cookie)
	if rw.Len() != def.headerLen {
		panic(fmt.Sprintf("service: %s/%s header length %d, want %d (cookie %q)",
			w.name, def.Name, rw.Len(), def.headerLen, cookie))
	}
	for _, piece := range ctx.Page.Pieces() {
		rw.WriteString(piece.Data)
	}
	rw.PadTo(len(buf))
	return rw.Finish()
}

// RenderAlloc renders into a freshly allocated right-sized buffer.
func (ctx *Ctx) RenderAlloc() []byte {
	return ctx.Render(make([]byte, ctx.Def.BufferBytes))
}
