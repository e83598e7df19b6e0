package httpx

import (
	"strings"
	"testing"
	"unsafe"
)

// FuzzParseInto: on any input neither parser panics, ParseInto into a
// Request that already holds another parse (prev's) agrees with a fresh
// Parse, and every field the parse returns is a sub-slice of the input —
// the bytes at its offset in raw — except a parameter decoded from a %XX
// or '+' escape, which is a fresh string.
func FuzzParseInto(f *testing.F) {
	for _, raw := range parseCases {
		f.Add([]byte(parseCases[0]), []byte(raw))
	}
	for _, c := range badRequests {
		f.Add([]byte(parseCases[2]), []byte(c.raw))
	}
	f.Fuzz(func(t *testing.T, prev, raw []byte) {
		want, werr := Parse(raw)
		var reused Request
		_ = ParseInto(prev, &reused)
		gerr := ParseInto(raw, &reused)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: Parse err %v, ParseInto err %v", raw, werr, gerr)
		}
		if werr != nil {
			return
		}
		if !sameParse(want, reused) {
			t.Fatalf("%q:\nParse:     %+v\nParseInto: %+v", raw, want, reused)
		}
		if want.ScanCost > len(raw) || want.ContentLength != len(want.Body) {
			t.Fatalf("%q: scanned %d of %d bytes, body %d of Content-Length %d", raw, want.ScanCost, len(raw), len(want.Body), want.ContentLength)
		}
		checkAliases(t, raw, reused)
	})
}

// checkAliases fails unless every field of req, a parse of raw, lies in
// the string the parse made of raw at an offset where raw holds its
// bytes; a parameter may instead be a decoded escape. The string's base
// is found from the path, which starts after the method and a space.
func checkAliases(t *testing.T, raw []byte, req Request) {
	t.Helper()
	if req.Path == "" {
		return // no anchor for the base
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(req.Path))) - uintptr(len(req.Method.String())+1)
	sub := func(f string) bool {
		if f == "" {
			return true
		}
		off := uintptr(unsafe.Pointer(unsafe.StringData(f))) - base
		return off <= uintptr(len(raw)) && uintptr(len(f)) <= uintptr(len(raw))-off && string(raw[off:off+uintptr(len(f))]) == f
	}
	escaped := strings.ContainsAny(string(raw), "%+")
	fields := []string{req.Path, req.Body}
	for _, c := range req.Cookies {
		fields = append(fields, c.Key, c.Value)
	}
	for _, f := range fields {
		if !sub(f) {
			t.Fatalf("%q: field %q is not a sub-slice of the input", raw, f)
		}
	}
	for _, p := range req.Params {
		for _, f := range []string{p.Key, p.Value} {
			if !sub(f) && !escaped {
				t.Fatalf("%q: parameter field %q is neither a sub-slice of the input nor a decoded escape", raw, f)
			}
		}
	}
}
