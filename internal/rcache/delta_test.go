package rcache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDelta holds the run encoding to identity on arbitrary page and
// reference pairs, and to its size bound: decoding a page's runs
// against its reference gives the page back, and the runs never hold
// more than the page plus one RunHeader. The input's first byte splits
// the rest into the reference and the page; a second page made from
// the reference with a few bytes changed covers what a type's pages
// look like against it.
func FuzzDelta(f *testing.F) {
	f.Add([]byte{3, 'a', 'b', 'c', 'a', 'b', 'c'})
	f.Add([]byte{2, 'a', 'b', 'a', 'b', 'c', 'd', 'e'})
	f.Add([]byte{5, 'a', 'b', 'c', 'd', 'e', 'x'})
	f.Add(append([]byte{40}, bytes.Repeat([]byte("0123456789"), 8)...))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		cut := min(int(in[0]), len(in)-1)
		ref, page := in[1:1+cut], in[1+cut:]
		check := func(page []byte) {
			runs := encode(page, ref)
			if got := appendPage(nil, ref, runs, len(page)); !bytes.Equal(got, page) {
				t.Fatalf("page %q against %q: runs %q decode to %q", page, ref, runs, got)
			}
			if len(runs) > len(page)+RunHeader {
				t.Fatalf("page of %d bytes against %q encodes to %d bytes", len(page), ref, len(runs))
			}
			// Decoding appends to what dst holds.
			if got := appendPage([]byte("pre"), ref, runs, len(page)); !bytes.Equal(got, append([]byte("pre"), page...)) {
				t.Fatalf("decode into a non-empty dst gave %q", got)
			}
		}
		check(page)
		like := bytes.Clone(ref)
		for i, b := range page {
			if len(like) > 0 {
				like[(i*31+int(b))%len(like)] ^= b
			}
		}
		check(like)
	})
}

// TestEncodeRuns pins the encoding's shape: no runs for a page equal to
// its reference or a prefix of it, one run for bytes past the
// reference's end, equal stretches shorter than minGap merged into the
// run around them and longer ones splitting it.
func TestEncodeRuns(t *testing.T) {
	ref := bytes.Repeat([]byte{'.'}, 64)
	with := func(n int, at ...int) []byte {
		p := bytes.Clone(ref[:n])
		for _, i := range at {
			p[i] = 'x'
		}
		return p
	}
	ext := append(bytes.Clone(ref), "tail"...)
	cases := []struct {
		name string
		page []byte
		runs int // count
		size int // bytes
	}{
		{"equal", with(64), 0, 0},
		{"prefix", with(10), 0, 0},
		{"longer", ext, 1, RunHeader + 4},
		{"one byte", with(64, 5), 1, RunHeader + 1},
		{"gap under minGap merged", with(64, 5, 5+minGap), 1, RunHeader + minGap + 1},
		{"gap of minGap splits", with(64, 5, 6+minGap), 2, 2*RunHeader + 2},
		{"differs to the reference's end", with(64, 63), 1, RunHeader + 1},
	}
	for _, tc := range cases {
		runs := encode(tc.page, ref)
		n := 0
		for r := runs; len(r) > 0; n++ {
			r = r[RunHeader+int(binary.LittleEndian.Uint32(r[4:])):]
		}
		if n != tc.runs || len(runs) != tc.size {
			t.Errorf("%s: %d runs in %d bytes, want %d in %d", tc.name, n, len(runs), tc.runs, tc.size)
		}
		if got := appendPage(nil, ref, runs, len(tc.page)); !bytes.Equal(got, tc.page) {
			t.Errorf("%s: decodes to %q", tc.name, got)
		}
	}
}
