package telemetry

import (
	"bytes"
	"strconv"
	"strings"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// Local request types, in registration order.
const (
	Ingest = iota
	Subscribe
	Poll
	Status
	NumTypes
)

// PollMax is how many frames one poll drains (bounded by the 4 KB
// backend response slot and the poll response buffer).
const PollMax = 24

// New builds the registrable streaming-telemetry workload: an
// ingest-heavy mix of tiny fixed-size text/plain messages. Every type
// is pinned to its device's shard group, so one device's frame stream
// is totally ordered by the single-writer broker that owns it.
func New() *service.PageWorkload {
	return service.NewPageWorkload(service.PageWorkloadConfig{
		Name: "telemetry",
		Costs: service.Costs{
			// Frames are parse-and-forward, far below page-generation cost.
			Fixed: 6000, StaticByte: 10, DynByte: 40, Backend: 20000,
		},
		Defs: []service.SvcDef{
			{Name: "ingest", Path: "/t/ingest", Post: true, MixPercent: 70, Backends: 1,
				BufferBytes: 1 << 10, ContentType: "text/plain", Stage: ingestStage},
			{Name: "subscribe", Path: "/t/subscribe", MixPercent: 5, Backends: 1,
				BufferBytes: 1 << 10, ContentType: "text/plain", Stage: subscribeStage},
			{Name: "poll", Path: "/t/poll", MixPercent: 20, Backends: 1,
				BufferBytes: 4 << 10, ContentType: "text/plain", Stage: pollStage},
			{Name: "status", Path: "/t/status", MixPercent: 5, Backends: 1,
				BufferBytes: 1 << 10, ContentType: "text/plain", Stage: statusStage},
		},
		NewBackend: func() service.Backend { return NewBroker() },
		Affinity:   affinity,
	})
}

// affinity pins every request to its device id's bucket: telemetry has
// no cookie sessions — the device stream itself is the state, and all
// operations on one device must reach the broker that owns its ring.
func affinity(req *httpx.Request, local int, buckets int) int {
	dev, err := strconv.ParseUint(req.Param("dev"), 10, 64)
	if err != nil {
		return -1
	}
	return session.BucketFor(dev, buckets)
}

// devParam validates the dev parameter (shared by every stage 0).
func devParam(ctx *service.Ctx) (string, bool) {
	dev := ctx.Req.Param("dev")
	if _, err := strconv.ParseUint(dev, 10, 64); err != nil {
		ctx.Fail("bad device id")
		return "", false
	}
	return dev, true
}

// brokerLines validates an "OK\n..." broker response and returns its
// payload lines, cut from the copy the page keeps: bresp is the broker's
// own buffer or the lane's slot, and the lines become pieces of the page.
func brokerLines(ctx *service.Ctx, bresp []byte) service.Lines {
	first, rest, _ := strings.Cut(ctx.Page.Keep(bytes.TrimRight(bresp, "\n")), "\n")
	if first != "OK" {
		ctx.Fail("broker error: " + strings.TrimPrefix(string(bresp), "FAIL "))
		return ""
	}
	return service.Lines(rest)
}

// ack is the payload of a one-line broker answer, failing the request
// with what when the payload is not one line.
func ack(ctx *service.Ctx, bresp []byte, what string) string {
	line := brokerLines(ctx, bresp)
	if ctx.Err != "" {
		return ""
	}
	if line == "" || strings.Contains(string(line), "\n") {
		ctx.Fail(what)
		return ""
	}
	return string(line)
}

func ingestStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		dev, ok := devParam(ctx)
		if !ok {
			return nil
		}
		f := ctx.Req.Param("f")
		if !validHex(f) {
			ctx.Fail("bad frame payload")
			return nil
		}
		return ctx.Page.Appendf("PUB %s %s", dev, f)
	}
	line := ack(ctx, bresp, "broker error: bad publish ack")
	if ctx.Err != "" {
		return nil
	}
	p := ctx.Page
	p.Static("RHYTHM-T PUB dev=")
	p.Dynamic(ctx.Req.Param("dev"))
	p.Static(" ")
	p.Dynamic(line)
	p.Static("\n")
	return nil
}

func subscribeStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		dev, ok := devParam(ctx)
		if !ok {
			return nil
		}
		sub := ctx.Req.Param("sub")
		if _, err := strconv.ParseUint(sub, 10, 64); err != nil {
			ctx.Fail("bad subscriber id")
			return nil
		}
		return ctx.Page.Appendf("SUB %s %s", dev, sub)
	}
	line := ack(ctx, bresp, "broker error: bad subscribe ack")
	if ctx.Err != "" {
		return nil
	}
	p := ctx.Page
	p.Static("RHYTHM-T SUB dev=")
	p.Dynamic(ctx.Req.Param("dev"))
	p.Static(" sub=")
	p.Dynamic(ctx.Req.Param("sub"))
	p.Static(" ")
	p.Dynamic(line)
	p.Static("\n")
	return nil
}

func pollStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		dev, ok := devParam(ctx)
		if !ok {
			return nil
		}
		sub := ctx.Req.Param("sub")
		if _, err := strconv.ParseUint(sub, 10, 64); err != nil {
			ctx.Fail("bad subscriber id")
			return nil
		}
		return ctx.Page.Appendf("POLL %s %s %d", dev, sub, PollMax)
	}
	lines := brokerLines(ctx, bresp)
	if ctx.Err != "" {
		return nil
	}
	if lines == "" {
		ctx.Fail("broker error: bad poll header")
		return nil
	}
	p := ctx.Page
	p.Static("RHYTHM-T FRAMES dev=")
	p.Dynamic(ctx.Req.Param("dev"))
	p.Static(" sub=")
	p.Dynamic(ctx.Req.Param("sub"))
	p.Static(" ")
	p.Dynamic(lines.Next())
	p.Static("\n")
	p.PadTo(p.Len())
	for lines != "" {
		p.Dynamic(lines.Next())
		p.Static("\n")
		p.PadTo(p.Len())
	}
	return nil
}

func statusStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		dev, ok := devParam(ctx)
		if !ok {
			return nil
		}
		return ctx.Page.Appendf("STAT %s", dev)
	}
	line := ack(ctx, bresp, "broker error: bad status")
	if ctx.Err != "" {
		return nil
	}
	p := ctx.Page
	p.Static("RHYTHM-T STAT dev=")
	p.Dynamic(ctx.Req.Param("dev"))
	p.Static(" ")
	p.Dynamic(line)
	p.Static("\n")
	return nil
}
