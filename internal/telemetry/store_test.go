package telemetry

import (
	"bytes"
	"fmt"
	"strconv"
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
	b := NewBroker()
	buf := b.Handle(nil, []byte("STAT 7")) // grow the response buffer
	for _, line := range []string{"POLL 7 99 10", "POLL 7 1", "PUB", "BOGUS 7", "PUB 7 xyz"} {
		req := []byte(line)
		if allocs := testing.AllocsPerRun(100, func() { buf = b.Handle(buf[:0], req) }); allocs != 0 {
			t.Errorf("%s: %v allocations per call", line, allocs)
		}
		if resp := b.Handle(nil, req); !isFailure(resp) {
			t.Errorf("%s: reply %q", line, resp)
		}
	}
}

// snapshot renders everything the broker keeps.
func snapshot(b *Broker) string { return fmt.Sprint(b.rings, b.nextSeq, b.cursors) }

// FuzzBrokerHandle: no request line of up to a backend request slot
// panics, answers beyond the response slot — a poll past a full ring of
// the longest frames included — or writes past its answer into the
// caller's buffer; a failed request leaves what the broker keeps as it
// was; and a request Reads declares pure (STAT) changes nothing and
// fires no write hook.
func FuzzBrokerHandle(f *testing.F) {
	for _, seed := range []string{
		"PUB 7 00ff", "SUB 7 3", "POLL 7 1 24", "POLL 9 1 1000", "POLL 7 2 0", "STAT 9",
		"", "PUB", "PUB 7 ABCD", "SUB 7", "POLL 7 99 1", "BOGUS 1", "STAT x",
	} {
		f.Add(seed)
	}
	// A broker with subscribers 1 and 2 on device 7, a short stream, and
	// subscriber 1 on device 9 behind a ring of the longest frames that
	// has wrapped.
	written := func() *Broker {
		b := NewBroker()
		b.Handle(nil, []byte("SUB 7 1"))
		b.Handle(nil, []byte("SUB 7 2"))
		b.Handle(nil, []byte("PUB 7 00a0"))
		b.Handle(nil, []byte("SUB 9 1"))
		for i := 0; i < RingFrames+12; i++ {
			b.Handle(nil, []byte("PUB 9 "+strings.Repeat(strconv.FormatInt(int64(0x10+i%200), 16), MaxPayloadHex/2)))
		}
		return b
	}
	f.Fuzz(func(t *testing.T, line string) {
		if len(line) > service.BackendRequestSlot {
			return
		}
		b := written()
		before := snapshot(b)
		hooked := 0
		b.SetWriteHook(func(uint64) { hooked++ })
		buf := bytes.Repeat([]byte{'#'}, service.BackendResponseSlot)
		resp := servicetest.CheckAppended(t, line, b.Handle(buf[:0], []byte(line)), buf)
		if len(resp) > service.BackendResponseSlot {
			t.Fatalf("%q: %d-byte reply", line, len(resp))
		}
		if isFailure(resp) && snapshot(b) != before {
			t.Fatalf("%q (reply %.40q) changed what the broker keeps", line, resp)
		}
		if b.Reads([]byte(line)) && (hooked != 0 || snapshot(b) != before) {
			t.Fatalf("%q: Reads, but it fired %d write hooks or changed what the broker keeps", line, hooked)
		}
	})
}
