package fmtx

import (
	"strings"
	"unicode"
	"unsafe"
)

// Fields is strings.Fields over b without the copy or the slice, for a
// backend cutting its "VERB arg..." requests: it stores the first
// len(dst) space-separated fields of b in dst and returns how many b
// has, which may be more than it stored. The fields alias b — valid
// while b is unchanged — so a backend copies (strings.Clone) what it
// keeps beyond the request.
func Fields(dst []string, b []byte) int {
	s := unsafe.String(unsafe.SliceData(b), len(b))
	n := 0
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			return n
		}
		end := strings.IndexFunc(s, unicode.IsSpace)
		if end < 0 {
			end = len(s)
		}
		if n < len(dst) {
			dst[n] = s[:end]
		}
		n++
		s = s[end:]
	}
}
