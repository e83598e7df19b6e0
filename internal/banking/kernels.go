package banking

import (
	"fmt"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/simt"
)

// This file implements Banking's parser as a SIMT kernel over reader
// batches in device memory, plus the §6.3 device-memory accounting. The
// process stages run on internal/service's page kit (workload.go).

// parseOpsPerByte prices the parser's byte scan.
const parseOpsPerByte = 3

// ParseBatch is a reader batch on the device: raw request bytes in a
// Size×RequestSlot buffer plus the parsed-record mirror the parser kernel
// fills (the paper synchronizes host and device cohort contexts at the
// parser, §4.1).
type ParseBatch struct {
	Buf    mem.Addr // Size × RequestSlot, row-major as it arrives from the NIC
	ColBuf mem.Addr // word-interleaved copy the parser reads in ColMajor mode
	Size   int
	Count  int
	Reqs   []httpx.Request
	Errs   []error // per-request parse outcome, nil when OK
	Types  []ReqType
	// IsImage marks static-asset requests; they form image cohorts that
	// bypass the process stage (§5.1).
	IsImage []bool
}

// NewParseBatch allocates a reader batch of `size` request slots.
func NewParseBatch(d *simt.Device, size int) *ParseBatch {
	return &ParseBatch{
		Buf:     d.Mem.Alloc(size*RequestSlot, 256),
		ColBuf:  d.Mem.Alloc(size*RequestSlot, 256),
		Size:    size,
		Reqs:    make([]httpx.Request, size),
		Errs:    make([]error, size),
		Types:   make([]ReqType, size),
		IsImage: make([]bool, size),
	}
}

// Reset prepares the batch for count fresh requests.
func (pb *ParseBatch) Reset(count int) {
	if count <= 0 || count > pb.Size {
		panic(fmt.Sprintf("banking: batch count %d out of range (size %d)", count, pb.Size))
	}
	pb.Count = count
	for i := 0; i < count; i++ {
		pb.Reqs[i] = httpx.Request{}
		pb.Errs[i] = nil
		pb.Types[i] = -1
		pb.IsImage[i] = false
	}
}

// CohortDeviceBytes reports the device memory one cohort of `size` slots
// of type t occupies on the modeled device, column images and response
// buffers included (used by the §6.3 capacity analysis; the simulation
// backs none of it: every buffer is priced address space, and a lane's
// backend bytes are a host buffer of their live length, service.Slot).
func CohortDeviceBytes(t ReqType, size int) int64 {
	return int64(size) * int64(RequestSlot+2*backend.RequestSlot+2*backend.ResponseSlot+2*Specs[t].BufferBytes())
}

// ParserArgs configures the parser kernel.
type ParserArgs struct {
	Batch    *ParseBatch
	ColMajor bool // request buffer layout
}

// parserProgram implements the Parser stage (§3.2): extract method,
// resource, content length, cookies and query parameters for every
// request of the batch. Block 1+type is type-specific extraction, so a
// mixed cohort diverges across the types present — the effect §6.4
// measures.
type parserProgram struct{ args ParserArgs }

// NewParserProgram returns the parser kernel for a reader batch.
func NewParserProgram(args ParserArgs) simt.Program { return parserProgram{args} }

func (parserProgram) Name() string        { return "rhythm_parse" }
func (parserProgram) Entry() simt.BlockID { return 0 }

// LaunchFootprint declares that parsing touches no shared host state —
// everything it writes (Reqs, Errs, Types, device columns) is private
// to its own batch — so parser launches may overlap with anything
// (simt.Footprinter; DESIGN.md §13).
func (parserProgram) LaunchFootprint() simt.Footprint { return simt.Footprint{} }

func (p parserProgram) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	pb := p.args.Batch
	r := t.ID
	switch {
	case b == 0: // scan the raw request
		var raw []byte
		if p.args.ColMajor {
			raw = simt.LoadColumn(t, pb.ColBuf, r, pb.Size, RequestSlot)
		} else {
			raw = t.Load(pb.Buf+mem.Addr(r*RequestSlot), RequestSlot)
		}
		req, err := httpx.Parse(raw)
		pb.Reqs[r] = req
		pb.Errs[r] = err
		t.Compute(req.ScanCost * parseOpsPerByte)
		if err != nil {
			return 200 // malformed-request path
		}
		rt, ok := ByPath(req.Path)
		if !ok {
			if IsImagePath(req.Path) {
				return 150 // image cohort path (§5.1)
			}
			pb.Errs[r] = fmt.Errorf("banking: unknown resource %q", req.Path)
			return 200
		}
		pb.Types[r] = rt
		return simt.BlockID(1 + int(rt))
	case b >= 1 && b < 1+simt.BlockID(NumTypes): // type-specific extraction
		req := &pb.Reqs[r]
		t.Compute(32 + 16*len(req.Params) + 16*len(req.Cookies))
		return 100
	case b == 150: // static asset: mark for the bypassing image cohort
		if _, ok := ImageResponse(pb.Reqs[r].Path); ok {
			pb.IsImage[r] = true
		} else {
			pb.Errs[r] = fmt.Errorf("banking: no such asset %q", pb.Reqs[r].Path)
		}
		t.Compute(16)
		return 100
	case b == 100: // write the parsed-request record (SoA store)
		t.Compute(8)
		t.Atomic(pb.Buf) // cohort-context occupancy update
		return simt.Halt
	case b == 200: // malformed request: mark error state (§4.4)
		t.Compute(4)
		return 100
	}
	panic("parser: bad block")
}

// PackRequests writes raw requests row-major into dst, a host staging
// image sized for H2D transfer (count × RequestSlot), zeroing each slot
// past its request, and returns it. dst grows when it is short, so a
// caller that keeps the result packs every batch into one image.
func PackRequests(dst []byte, raws [][]byte) []byte {
	n := len(raws) * RequestSlot
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for i, raw := range raws {
		if len(raw) > RequestSlot {
			panic("banking: raw request exceeds slot")
		}
		slot := dst[i*RequestSlot : (i+1)*RequestSlot]
		clear(slot[copy(slot, raw):])
	}
	return dst
}
