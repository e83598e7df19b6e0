package simt

import (
	"bytes"
	"testing"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// TestStoreColumnUnalignedOffsets: StoreColumn must write correct bytes
// at any byte offset; the aligned fast path and the partial-word paths
// must agree.
func TestStoreColumnUnalignedOffsets(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(eng, GTXTitan(), 8<<20, nil)
	const rows = 8
	buf := dev.Mem.Alloc(rows*64, 256)
	payload := []byte("unaligned-payload!")
	dev.NewStream().Launch(FuncProgram{Label: "uw", Body: func(th *Thread) {
		StoreColumn(th, buf, th.ID, rows, 3+th.ID%4, payload)
	}}, rows, nil, nil)
	eng.Run()
	// Un-interleave and check each row.
	for r := 0; r < rows; r++ {
		start := 3 + r%4
		got := make([]byte, len(payload))
		for i := range got {
			off := start + i
			got[i] = dev.Mem.Bytes(buf+mem.Addr((off/4)*(4*rows)+4*r+off%4), 1)[0]
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("row %d: %q", r, got)
		}
	}
}
