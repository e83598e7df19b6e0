package telemetry

import (
	"strconv"
	"strings"
	"testing"

	"rhythm/internal/service/servicetest"
	"rhythm/internal/session"
)

// script covers every telemetry type and each error page: device and
// subscriber ids from one to twenty digits, payloads at both ends of the
// allowed length, a poll that drains a short stream, polls that hit the
// PollMax cap on a ring that has wrapped (lost frames reported), and a
// poll without a subscription.
func script(t testing.TB) (servicetest.World, []servicetest.Round) {
	broker := NewBroker()
	wd := servicetest.World{Sessions: session.NewArray(256, 64), Backend: broker}
	get := func(uri string) string { return "GET " + uri + " HTTP/1.1\r\nHost: t\r\n\r\n" }
	ingest := func(dev, f string) string {
		body := "dev=" + dev + "&f=" + f
		return "POST /t/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	}
	var rounds []servicetest.Round
	add := func(local int, raw ...string) {
		rounds = append(rounds, servicetest.Round{Local: local, Raw: raw})
	}
	const big = "18446744073709551615"

	add(Subscribe, get("/t/subscribe?dev=7&sub=1"), get("/t/subscribe?dev=7&sub=2"), get("/t/subscribe?dev=123456789&sub="+big),
		get("/t/subscribe?dev="+big+"&sub=0"), get("/t/subscribe?dev=7&sub=x"), get("/t/subscribe?dev=none&sub=1"), get("/t/subscribe?sub=1"))
	add(Ingest, ingest("7", "00"), ingest("7", "00ff"), ingest("7", strings.Repeat("ab", MaxPayloadHex/2)), ingest("123456789", "deadbeef"),
		ingest(big, "0123456789abcdef"), ingest("7", "0"), ingest("7", "ABCD"), ingest("7", strings.Repeat("ab", MaxPayloadHex/2+1)),
		ingest("7", ""), ingest("-1", "00"))
	add(Status, get("/t/status?dev=7"), get("/t/status?dev=8"), get("/t/status?dev="+big), get("/t/status?dev=0x7"), get("/t/status"))
	add(Poll, get("/t/poll?dev=7&sub=1"), get("/t/poll?dev=7&sub=99"), get("/t/poll?dev=123456789&sub="+big),
		get("/t/poll?dev=7&sub=-2"), get("/t/poll?dev=q&sub=1"))
	add(Poll, get("/t/poll?dev=7&sub=1"), get("/t/poll?dev=7&sub=2")) // drained; sub 2 still has all three

	// Device 9's ring wraps: 140 frames published behind a subscriber
	// that then polls PollMax at a time.
	broker.Handle(nil, []byte("SUB 9 4"))
	for i := 0; i < RingFrames+12; i++ {
		broker.Handle(nil, []byte("PUB 9 "+strconv.FormatInt(int64(0x10000+i*257), 16)[1:]))
	}
	add(Poll, get("/t/poll?dev=9&sub=4"))
	add(Poll, get("/t/poll?dev=9&sub=4"))
	add(Status, get("/t/status?dev=9"))
	return wd, rounds
}

// TestResponseDigests holds every byte the host path renders for the
// script to testdata/digests.txt, written from the code as it stood
// before the page kit and the broker were ported off fmt.
func TestResponseDigests(t *testing.T) {
	servicetest.CheckDigests(t, New(), script, "testdata/digests.txt")
}

// TestStageKernelsMatchHost: for every type, error lanes included, the
// stage kernels render what the host path renders.
func TestStageKernelsMatchHost(t *testing.T) {
	servicetest.CheckStageKernels(t, New(), script)
}

// TestKeptLinesOwnTheirBytes: what the stages keep of a backend response
// survives the backend's next Handle and the lane slot's next fill.
func TestKeptLinesOwnTheirBytes(t *testing.T) {
	servicetest.CheckKeptLines(t, New(), script)
}

// TestPublishedPayloadOwnsItsBytes: Handle reads its request in place, so
// the frame a publish keeps is a copy of the payload field.
func TestPublishedPayloadOwnsItsBytes(t *testing.T) {
	b := NewBroker()
	b.Handle(nil, []byte("SUB 3 1"))
	req := []byte("PUB 3 beef")
	b.Handle(nil, req)
	copy(req, "##########")
	if got := string(b.Handle(nil, []byte("POLL 3 1 8"))); !strings.HasSuffix(got, ":beef\n") {
		t.Fatalf("poll after the publish request was overwritten: %q", got)
	}
}
