package httpx

import (
	"bytes"
	"testing"
)

// FuzzLiveLen holds LiveLen to bytes.TrimRight and AppendSpaces to its
// inverse: a page is its live bytes plus the spaces LiveLen cut. The
// fuzzed page is body followed by run spaces, so trailing runs reach
// every chunk size the scan compares (4096, 512, 64, 8, 1).
func FuzzLiveLen(f *testing.F) {
	for _, run := range []uint16{0, 1, 7, 8, 63, 64, 511, 512, 4095, 4096, 4097, 4096 + 512 + 64 + 8 + 7, 3*4096 + 5} {
		f.Add([]byte("HTTP/1.1 200 OK\r\n\r\n<p>done</p>"), run)
		f.Add([]byte("<p>total:   "), run)  // content ending in spaces before the pad
		f.Add([]byte("a  b        c"), run) // interior runs of spaces
		f.Add([]byte{}, run)                // a page made only of spaces
	}
	f.Fuzz(func(t *testing.T, body []byte, run uint16) {
		p := append(bytes.Clone(body), bytes.Repeat([]byte{' '}, int(run))...)
		live := LiveLen(p)
		if want := len(bytes.TrimRight(p, " ")); live != want {
			t.Fatalf("LiveLen = %d, want %d (body %q, run %d)", live, want, body, run)
		}
		if got := AppendSpaces(p[:live:live], len(p)-live); !bytes.Equal(got, p) {
			t.Fatalf("live bytes plus %d spaces differ from the page (body %q, run %d)", len(p)-live, body, run)
		}
	})
}
