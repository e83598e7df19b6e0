// Package telemetry implements a streaming-telemetry workload on the
// service registry: devices publish compact fixed-size frames over
// long-lived connections, and subscribers drain them through cursor
// polls with pub/sub fan-out. All state lives in a per-shard-group
// broker store mutated only through deferred backend writes, so frame
// sequencing — and therefore exactly-once, in-order delivery across a
// device failover — follows from the cluster's launch-commit
// idempotency contract.
package telemetry

import (
	"strconv"
	"strings"

	"rhythm/internal/fmtx"
)

// RingFrames is how many published frames each device retains; pollers
// further behind have lost frames reported to them explicitly.
const RingFrames = 128

// MaxPayloadHex bounds the hex-encoded frame payload.
const MaxPayloadHex = 64

type frame struct {
	seq     uint64
	payload string
}

type cursorKey struct {
	dev uint64
	sub uint64
}

// Broker is the telemetry backend: per-device frame rings plus
// per-subscriber cursors. Like every Besim shard, reads (Reads) may run
// concurrently with reads, and a write runs alone.
type Broker struct {
	rings     map[uint64][]frame
	nextSeq   map[uint64]uint64
	cursors   map[cursorKey]uint64
	writeHook func(uid uint64)
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		rings:   make(map[uint64][]frame),
		nextSeq: make(map[uint64]uint64),
		cursors: make(map[cursorKey]uint64),
	}
}

// SetWriteHook implements service.Backend.
func (b *Broker) SetWriteHook(fn func(uid uint64)) { b.writeHook = fn }

func (b *Broker) noteWrite(dev uint64) {
	if b.writeHook != nil {
		b.writeHook(dev)
	}
}

func validHex(s string) bool {
	if len(s) == 0 || len(s) > MaxPayloadHex || len(s)%2 != 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Handle implements service.Backend: "VERB dev [args...]" requests of
// up to 1 KB, read in place and never kept, and responses within 4 KB (a
// poll drains at most PollMax frames), appended to dst.
func (b *Broker) Handle(dst, req []byte) []byte {
	var f [4]string
	n := fmtx.Fields(f[:], req)
	if n < 2 {
		return reply(dst, "ERR args")
	}
	dev, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return reply(dst, "ERR bad device")
	}
	switch f[0] {
	case "PUB":
		if n != 3 || !validHex(f[2]) {
			return reply(dst, "ERR bad frame")
		}
		seq := b.nextSeq[dev]
		b.nextSeq[dev] = seq + 1
		// The ring keeps the payload: a copy, not a view of req.
		ring := append(b.rings[dev], frame{seq: seq, payload: strings.Clone(f[2])})
		if len(ring) > RingFrames {
			ring = ring[len(ring)-RingFrames:]
		}
		b.rings[dev] = ring
		b.noteWrite(dev)
		return fmtx.Appendf(dst, "OK\nseq=%d\n", seq)
	case "SUB":
		sub, err := strconv.ParseUint(f[2], 10, 64)
		if n != 3 || err != nil {
			return reply(dst, "ERR bad subscriber")
		}
		cur := b.nextSeq[dev]
		b.cursors[cursorKey{dev: dev, sub: sub}] = cur
		b.noteWrite(dev)
		return fmtx.Appendf(dst, "OK\ncursor=%d\n", cur)
	case "POLL":
		if n != 4 {
			return reply(dst, "ERR args")
		}
		sub, err1 := strconv.ParseUint(f[2], 10, 64)
		max, err2 := strconv.Atoi(f[3])
		if err1 != nil || err2 != nil || max <= 0 {
			return reply(dst, "ERR args")
		}
		key := cursorKey{dev: dev, sub: sub}
		cur, ok := b.cursors[key]
		if !ok {
			return reply(dst, "FAIL not subscribed")
		}
		ring := b.rings[dev]
		lost := uint64(0)
		if len(ring) > 0 && ring[0].seq > cur {
			lost = ring[0].seq - cur
			cur = ring[0].seq
		}
		// The ring is in sequence order: what the poll drains is one
		// run of it.
		first := 0
		for first < len(ring) && ring[first].seq < cur {
			first++
		}
		// A poll drains at most PollMax frames, whatever it asks for: no
		// more fit the response slot.
		frames := ring[first:min(first+max, first+PollMax, len(ring))]
		if len(frames) > 0 {
			cur = frames[len(frames)-1].seq + 1
		}
		b.cursors[key] = cur
		b.noteWrite(dev)
		out := fmtx.Appendf(dst, "OK\nn=%d lost=%d cursor=%d\n", len(frames), lost, cur)
		for _, fr := range frames {
			out = fmtx.Appendf(out, "%d:%s\n", fr.seq, fr.payload)
		}
		return out
	case "STAT":
		subs := 0
		for k := range b.cursors {
			if k.dev == dev {
				subs++
			}
		}
		return fmtx.Appendf(dst, "OK\nseq=%d subs=%d buffered=%d\n", b.nextSeq[dev], subs, len(b.rings[dev]))
	default:
		return reply(dst, "ERR unknown verb ", f[0])
	}
}

// Reads implements service.Backend: STAT, the one verb that stores
// nothing and fires no write hook (a POLL moves its cursor).
func (b *Broker) Reads(req []byte) bool {
	var verb [1]string
	fmtx.Fields(verb[:], req)
	return verb[0] == "STAT"
}

// reply appends a reply that carries no data — a failure's — to dst.
func reply(dst []byte, parts ...string) []byte {
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}
