package fmtx

import (
	"strings"
	"testing"
)

// FuzzFields holds Fields to strings.Fields: the same count, and the same
// fields in the slots it fills.
func FuzzFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "AUTH 7 pw", "  ADDPAYEE 42 Book_Nook  P-1 ", "POLL\t9\n3 24",
		"a b\u0085c", "x\xffy z", " lead", "PUB 1 0a0b",
	} {
		f.Add(s, uint8(3))
	}
	f.Fuzz(func(t *testing.T, s string, width uint8) {
		dst := make([]string, width%8)
		n := Fields(dst, []byte(s))
		want := strings.Fields(s)
		if n != len(want) {
			t.Fatalf("Fields(%q) counts %d, strings.Fields %d", s, n, len(want))
		}
		for i := 0; i < min(n, len(dst)); i++ {
			if dst[i] != want[i] {
				t.Fatalf("Fields(%q)[%d] = %q, strings.Fields %q", s, i, dst[i], want[i])
			}
		}
	})
}
