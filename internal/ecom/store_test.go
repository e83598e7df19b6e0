package ecom

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rhythm/internal/service"
	"rhythm/internal/service/servicetest"
)

// isFailure reports whether resp is a failed request's reply.
func isFailure(resp []byte) bool {
	return bytes.HasPrefix(resp, []byte("ERR")) || bytes.HasPrefix(resp, []byte("FAIL"))
}

// TestErrorRepliesDoNotAllocate: a failed request's reply is appended
// to the caller's buffer like every other reply, so it allocates
// nothing.
func TestErrorRepliesDoNotAllocate(t *testing.T) {
	s := NewStore()
	buf := s.Handle(nil, []byte("INDEX")) // grow the response buffer
	for _, line := range []string{"ORDER 7", "SEARCH", "ADDCART 7 1", "BOGUS 7", "CATEGORY none"} {
		req := []byte(line)
		if allocs := testing.AllocsPerRun(100, func() { buf = s.Handle(buf[:0], req) }); allocs != 0 {
			t.Errorf("%s: %v allocations per call", line, allocs)
		}
		if resp := s.Handle(nil, req); !isFailure(resp) {
			t.Errorf("%s: reply %q", line, resp)
		}
	}
}

// snapshot renders everything the store keeps.
func snapshot(s *Store) string { return fmt.Sprint(s.carts, s.orders) }

// FuzzStoreHandle: no request line of up to a backend request slot
// panics, answers beyond the response slot or writes past its answer
// into the caller's buffer; Reads declares exactly the read verbs; and
// a failed request or a read leaves what the store keeps as it was, a
// read without firing the write hook.
func FuzzStoreHandle(f *testing.F) {
	for _, seed := range []string{
		"INDEX", "SEARCH lamp", "CATEGORY books", "CATEGORY none", "PRODUCT 18446744073709551615",
		"ADDCART 1 4242 2", "ADDCART 2 1 1", "ADDCART 1 1 100", "CART 1", "ORDER 1", "ORDER 9",
		"", "BOGUS 1", "PRODUCT -1", "CART x", "ADDCART 1 x 1",
	} {
		f.Add(seed)
	}
	// A store with carts for users 1 and 2, user 2's full, and an order
	// of user 3's.
	written := func() *Store {
		s := NewStore()
		for uid, lines := range []int{1: 4, 2: 20, 3: 3} {
			for i := 0; i < lines; i++ {
				s.Handle(nil, fmt.Appendf(nil, "ADDCART %d %d %d", uid, i*7919, 1+i%9))
			}
		}
		s.Handle(nil, []byte("ORDER 3"))
		return s
	}
	reads := map[string]bool{"INDEX": true, "SEARCH": true, "CATEGORY": true, "PRODUCT": true, "CART": true}
	f.Fuzz(func(t *testing.T, line string) {
		if len(line) > service.BackendRequestSlot {
			return
		}
		s := written()
		before := snapshot(s)
		hooked := 0
		s.SetWriteHook(func(uint64) { hooked++ })
		buf := bytes.Repeat([]byte{'#'}, service.BackendResponseSlot)
		resp := servicetest.CheckAppended(t, line, s.Handle(buf[:0], []byte(line)), buf)
		if len(resp) > service.BackendResponseSlot {
			t.Fatalf("%q: %d-byte reply", line, len(resp))
		}
		fields := strings.Fields(line)
		read := len(fields) > 0 && reads[fields[0]]
		if s.Reads([]byte(line)) != read {
			t.Fatalf("%q: Reads = %v", line, !read)
		}
		if read && hooked != 0 {
			t.Fatalf("%q: a read fired %d write hooks", line, hooked)
		}
		if isFailure(resp) || read {
			if snapshot(s) != before {
				t.Fatalf("%q (reply %.40q) changed what the store keeps", line, resp)
			}
		}
	})
}
