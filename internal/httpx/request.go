// Package httpx implements the HTTP/1.1 handling Rhythm needs: a
// dependency-free request parser that extracts exactly what the paper's
// Parser stage extracts (§3.2) — method, requested resource, content
// length, cookies, and query-string parameters — plus a response builder
// that uses the paper's whitespace tricks: a reserved, space-padded
// Content-Length field that is backpatched after generation (§4.3.2), and
// linear-whitespace padding in HTML bodies to realign diverged buffer
// pointers across a cohort.
package httpx

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Method is an HTTP request method. Rhythm's banking workload only uses
// GET and POST.
type Method uint8

// Supported methods.
const (
	GET Method = iota
	POST
)

func (m Method) String() string {
	if m == POST {
		return "POST"
	}
	return "GET"
}

// Param is one query-string or form parameter.
type Param struct {
	Key   string
	Value string
}

// Request is the parsed form of one HTTP request, mirroring the request
// structure the paper's parser composes into the cohort.
type Request struct {
	Method        Method
	Path          string // resource, e.g. "/login.php"
	Params        []Param
	Cookies       []Param
	ContentLength int
	Body          string
	// ScanCost is the number of bytes the parser had to examine; the SIMT
	// parser kernel charges compute proportional to it.
	ScanCost int
}

// Param returns the value of the first parameter named key ("" if
// absent).
func (r *Request) Param(key string) string {
	for _, p := range r.Params {
		if p.Key == key {
			return p.Value
		}
	}
	return ""
}

// CopyTo deep-copies r into dst with independent Params/Cookies slices,
// so dst stays valid after r (an arena-held request) is reused for the
// next request on the connection. The strings share r's immutable
// backing and need no copy.
func (r *Request) CopyTo(dst *Request) {
	*dst = *r
	dst.Params = append([]Param(nil), r.Params...)
	dst.Cookies = append([]Param(nil), r.Cookies...)
}

// Cookie returns the value of the first cookie named key ("" if absent).
func (r *Request) Cookie(key string) string {
	for _, c := range r.Cookies {
		if c.Key == key {
			return c.Value
		}
	}
	return ""
}

// Parse errors.
var (
	ErrMalformed   = errors.New("httpx: malformed request")
	ErrBadMethod   = errors.New("httpx: unsupported method")
	ErrIncomplete  = errors.New("httpx: incomplete request")
	ErrBadLength   = errors.New("httpx: bad content length")
	ErrTooManyHdrs = errors.New("httpx: too many headers")
)

const maxHeaders = 64

// Parse parses one HTTP/1.1 request from raw. It follows RFC 2616 just
// far enough for the SPECWeb client: request line, headers (Cookie and
// Content-Length are interpreted, the rest skipped), and a
// Content-Length-delimited body holding form parameters for POST.
func Parse(raw []byte) (Request, error) {
	var req Request
	err := ParseInto(raw, &req)
	return req, err
}

// ParseInto parses one HTTP/1.1 request from raw into req, reusing the
// capacity of req.Params and req.Cookies across calls. It is the
// allocation-lean core of Parse: a connection arena holds one Request
// and feeds every request on the connection through it, so steady-state
// parsing performs exactly one allocation (the raw-bytes-to-string
// conversion the parsed fields alias). All other fields are reset.
func ParseInto(raw []byte, req *Request) error {
	req.Method = GET
	req.Path = ""
	req.Params = req.Params[:0]
	req.Cookies = req.Cookies[:0]
	req.ContentLength = 0
	req.Body = ""
	req.ScanCost = 0
	s := string(raw)
	// Trim trailing NULs: cohort request slots are fixed-size.
	if i := strings.IndexByte(s, 0); i >= 0 {
		s = s[:i]
	}
	lineEnd := strings.Index(s, "\r\n")
	if lineEnd < 0 {
		return ErrIncomplete
	}
	line := s[:lineEnd]
	sp1 := strings.IndexByte(line, ' ')
	if sp1 < 0 {
		return ErrMalformed
	}
	switch line[:sp1] {
	case "GET":
		req.Method = GET
	case "POST":
		req.Method = POST
	default:
		return fmt.Errorf("%w: %q", ErrBadMethod, line[:sp1])
	}
	rest := line[sp1+1:]
	sp2 := strings.IndexByte(rest, ' ')
	if sp2 < 0 {
		return ErrMalformed
	}
	uri := rest[:sp2]
	if !strings.HasPrefix(rest[sp2+1:], "HTTP/1.") {
		return ErrMalformed
	}
	if q := strings.IndexByte(uri, '?'); q >= 0 {
		req.Path = uri[:q]
		req.Params = parseParams(uri[q+1:], req.Params)
	} else {
		req.Path = uri
	}

	// Headers.
	pos := lineEnd + 2
	headers := 0
	for {
		end := strings.Index(s[pos:], "\r\n")
		if end < 0 {
			return ErrIncomplete
		}
		if end == 0 { // blank line: end of headers
			pos += 2
			break
		}
		h := s[pos : pos+end]
		pos += end + 2
		headers++
		if headers > maxHeaders {
			return ErrTooManyHdrs
		}
		colon := strings.IndexByte(h, ':')
		if colon < 0 {
			return ErrMalformed
		}
		name := strings.TrimSpace(h[:colon])
		value := strings.TrimSpace(h[colon+1:])
		switch {
		case strings.EqualFold(name, "Content-Length"):
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return ErrBadLength
			}
			req.ContentLength = n
		case strings.EqualFold(name, "Cookie"):
			req.Cookies = parseCookies(value, req.Cookies)
		}
	}

	// Body (POST form data).
	if req.ContentLength > 0 {
		if len(s)-pos < req.ContentLength {
			return ErrIncomplete
		}
		req.Body = s[pos : pos+req.ContentLength]
		if req.Method == POST {
			req.Params = parseParams(req.Body, req.Params)
		}
		pos += req.ContentLength
	}
	req.ScanCost = pos
	return nil
}

// parseParams parses "a=1&b=2" into params (appended to dst).
func parseParams(qs string, dst []Param) []Param {
	for len(qs) > 0 {
		var pair string
		if amp := strings.IndexByte(qs, '&'); amp >= 0 {
			pair, qs = qs[:amp], qs[amp+1:]
		} else {
			pair, qs = qs, ""
		}
		if pair == "" {
			continue
		}
		if eq := strings.IndexByte(pair, '='); eq >= 0 {
			dst = append(dst, Param{Key: unescape(pair[:eq]), Value: unescape(pair[eq+1:])})
		} else {
			dst = append(dst, Param{Key: unescape(pair)})
		}
	}
	return dst
}

// parseCookies parses "a=1; b=2" into cookies (appended to dst). It
// walks the header value with IndexByte rather than strings.Split so the
// hot path never allocates an intermediate slice.
func parseCookies(v string, dst []Param) []Param {
	for len(v) > 0 {
		var part string
		if semi := strings.IndexByte(v, ';'); semi >= 0 {
			part, v = v[:semi], v[semi+1:]
		} else {
			part, v = v, ""
		}
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			dst = append(dst, Param{Key: part[:eq], Value: part[eq+1:]})
		} else {
			dst = append(dst, Param{Key: part})
		}
	}
	return dst
}

// unescape decodes %XX and '+' in URL-encoded text. Invalid escapes pass
// through literally (the SPECWeb generator never emits them, but the
// parser must not crash on hostile input).
func unescape(s string) string {
	if !strings.ContainsAny(s, "%+") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if ok1 && ok2 {
				b.WriteByte(hi<<4 | lo)
				i += 2
			} else {
				b.WriteByte('%')
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
