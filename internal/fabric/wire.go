// Wire format of the fabric's cohort-shipping protocol (DESIGN.md §17).
//
// Every frame is length-prefixed and typed:
//
//	[4B little-endian payload length] [1B frame kind] [payload]
//
// The connection is fully multiplexed: a frontend pipelines many
// dispatch frames without waiting, the worker completes them out of
// order, and every dispatch is matched to its result or nack frame by
// the unit id the frontend assigned. Writers coalesce: frames queue on
// an in-process channel and a single writer goroutine drains the queue
// into one buffered write, flushing only when the queue runs dry, so a
// burst of cohorts costs one syscall, not one per cohort. A frame is
// encoded in place into a pooled buffer, and each connection reads every
// frame into one reused buffer.
//
// All integers are little-endian and fixed-width — the frames carry
// modeled-hardware counters whose magnitudes are unbounded, and fixed
// width keeps the serialized size of a cohort deterministic, which the
// link-budget admission charges before sending.
package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/httpx"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// wireVersion gates the handshake: a worker and frontend must agree
// exactly (the frames carry raw struct layouts, not self-describing
// records). Version 2 ships responses as live bytes plus a pad length.
const wireVersion = 2

// Frame kinds.
const (
	frameHello    = 1 // worker -> frontend: version + registry fingerprint
	frameDispatch = 2 // frontend -> worker: one formed cohort
	frameResult   = 3 // worker -> frontend: one completed cohort
	frameNack     = 4 // worker -> frontend: unit refused before launch (safe to retry)
	frameStatsReq = 5 // frontend -> worker: cluster snapshot request
	frameStats    = 6 // worker -> frontend: cluster snapshot (JSON)
	frameQuiesce  = 7 // frontend -> worker: drain launched work, nack the rest, say bye
	frameBye      = 8 // worker -> frontend: quiesce complete, no frames follow
)

// Nack reasons.
const (
	nackQuiesce  = 0 // the node is draining toward death
	nackNoDevice = 1 // every device on the node is dead
	nackBusy     = 2 // the node's device queues are full (backpressure: shed, don't retry)
)

// maxFrameBytes bounds a single frame so a corrupt length prefix cannot
// make the reader allocate unboundedly. Cohorts are bounded by
// CohortSize × the fixed request slot plus response buffers; 256 MiB is
// orders of magnitude above any real cohort.
const maxFrameBytes = 256 << 20

var errFrameTooBig = errors.New("fabric: frame exceeds size bound")

// frameHeaderBytes is the length prefix plus the kind byte.
const frameHeaderBytes = 5

// beginFrame reserves a frame header at the end of b; the payload is
// appended after it and endFrame back-patches the length, so a frame is
// encoded in place in one pass.
func beginFrame(b []byte, kind byte) []byte {
	return append(b, 0, 0, 0, 0, kind)
}

// endFrame patches the length prefix of the frame that starts at b[start].
func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// appendFrame appends a framed payload to buf: length prefix, kind,
// payload. Returns the extended buffer.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	return endFrame(append(beginFrame(buf, kind), payload...), len(buf))
}

// framePool recycles frame buffers: a sender appends one frame into
// getFrame's buffer and queues it, and frameWriter.loop puts it back once
// the frame is written. A pointer travels so the round trip allocates
// nothing.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func getFrame() *[]byte {
	f := framePool.Get().(*[]byte)
	*f = (*f)[:0]
	return f
}

// putFrame returns a written frame's buffer; one above frameKeepBytes
// (a rare huge cohort) is left to the collector instead.
func putFrame(f *[]byte) {
	if cap(*f) <= frameKeepBytes {
		framePool.Put(f)
	}
}

// frameKeepBytes is the largest buffer the frame pool or a connection's
// frameReader keeps between frames.
const frameKeepBytes = 1 << 20

// frameReader reads frames off one connection into one reused body
// buffer: a payload is valid until the next call to next, so decoders
// copy what they keep.
type frameReader struct {
	r    io.Reader
	hdr  [4]byte // here, not on next's stack, so reading it does not allocate
	body []byte
}

// next reads one frame: kind, payload, and the total bytes consumed off
// the wire (prefix included — the link budget charges them).
func (fr *frameReader) next() (kind byte, payload []byte, wireBytes int, err error) {
	if _, err = io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n < 1 || n > maxFrameBytes {
		return 0, nil, 0, errFrameTooBig
	}
	// The declared length is the peer's claim, so memory beyond the
	// buffer already held is committed only as body bytes arrive: a
	// first step of at most frameReadStep, then doubling. A 4-byte
	// header alone pins nothing.
	body := fr.body[:0]
	for len(body) < n {
		have := len(body)
		step := min(n-have, max(cap(body)-have, have, frameReadStep))
		body = slices.Grow(body, step)[:have+step]
		if _, err = io.ReadFull(fr.r, body[have:]); err != nil {
			return 0, nil, 0, err
		}
	}
	if cap(body) <= frameKeepBytes {
		fr.body = body
	}
	return body[0], body[1:], 4 + n, nil
}

// readFrame reads one frame from r into a fresh buffer.
func readFrame(r io.Reader) (kind byte, payload []byte, wireBytes int, err error) {
	fr := frameReader{r: r}
	return fr.next()
}

// frameReadStep is the first growth step of a frame body; ordinary frames
// fit it and are read in one step (a one-request host unit's dispatch and
// result frames are ≈ 14 KB together).
const frameReadStep = 64 << 10

// --- primitive append helpers ---

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// wireReader decodes a payload with sticky error handling: the first
// short read or malformed field poisons the reader and every later get
// returns zero, so decode paths check err once at the end.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("fabric: %s at offset %d", why, r.off)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || n > len(r.b)-r.off {
		r.fail("truncated frame")
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// done reports the decode error, if any; bytes left over after the last
// field are one. Together with flag's 0/1 rule and resp's live-byte rule
// this makes every decodable payload the unique encoding of what it
// decodes to.
func (r *wireReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("trailing bytes")
	}
	return r.err
}

// count bounds a peer-declared element count by what the rest of the
// payload can hold at minBytes per element, before anything is sized by
// it: a short frame declaring 2³²−1 requests costs nothing.
func (r *wireReader) count(n, minBytes int) int {
	if r.err == nil && n > (len(r.b)-r.off)/minBytes {
		r.fail("count exceeds frame")
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *wireReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *wireReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (r *wireReader) i64() int64   { return int64(r.u64()) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *wireReader) flag() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("bad flag")
	return false
}
func (r *wireReader) str() string {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// --- responses: live bytes plus a pad length ---

// A response is padded with spaces to its type's buffer (PadTo keeps the
// device's per-lane stores aligned). The wire does not need the padding:
// a response crosses as its padded length, its live length and the live
// bytes — the response less its trailing run of spaces — and the
// receiver refills the run. The encoding is lossless for any bytes.

// spaceBank is what the trailing run is compared against and refilled
// from, a bank at a time.
var spaceBank = bytes.Repeat([]byte{' '}, 4096)

// minRespBytes is the smallest encoded response: the two lengths.
const minRespBytes = 8

// liveLen reports len(p) less its trailing run of spaces. The run is
// found in chunks of 4096, 512, 64 and 8 bytes compared against
// spaceBank, then at most 7 single bytes — not a byte at a time.
func liveLen(p []byte) int {
	n := len(p)
	for k := len(spaceBank); k >= 8; k /= 8 {
		for n >= k && bytes.Equal(p[n-k:n], spaceBank[:k]) {
			n -= k
		}
	}
	for n > 0 && p[n-1] == ' ' {
		n--
	}
	return n
}

func appendResp(b, p []byte) []byte {
	live := liveLen(p)
	b = appendU32(b, uint32(len(p)))
	b = appendU32(b, uint32(live))
	return append(b, p[:live]...)
}

// resp rebuilds one response as a fresh slice of its padded length. A
// padded length below the live length or above maxLen (the registry's
// largest buffer), or live bytes that end in a space (no encoder writes
// them), fail the decode before anything is allocated.
func (r *wireReader) resp(maxLen int) []byte {
	padded, live := int(r.u32()), int(r.u32())
	if r.err == nil && (live > padded || padded > maxLen) {
		r.fail(fmt.Sprintf("response of %d live bytes padded to %d (largest buffer %d)", live, padded, maxLen))
	}
	b := r.take(live)
	if b == nil {
		return nil
	}
	if live > 0 && b[live-1] == ' ' {
		r.fail("response live bytes end in a space")
		return nil
	}
	out := make([]byte, padded)
	copy(out, b)
	for i := live; i < padded; {
		i += copy(out[i:], spaceBank)
	}
	return out
}

// --- hello ---

// hello is the worker's first frame: protocol version plus the registry
// fingerprint (workload names in registration order and the fused type
// count). A frontend refuses a worker whose fingerprint differs — the
// wire carries raw TypeIDs, so both sides must have built the identical
// type space.
type hello struct {
	Version   uint16
	Devices   int
	Groups    int
	NumTypes  int
	Workloads []string
}

func appendHelloFrame(b []byte, h hello) []byte {
	start := len(b)
	b = beginFrame(b, frameHello)
	b = appendU16(b, h.Version)
	b = appendU32(b, uint32(h.Devices))
	b = appendU32(b, uint32(h.Groups))
	b = appendU32(b, uint32(h.NumTypes))
	b = appendU16(b, uint16(len(h.Workloads)))
	for _, w := range h.Workloads {
		b = appendStr(b, w)
	}
	return endFrame(b, start)
}

func decodeHello(p []byte) (hello, error) {
	r := wireReader{b: p}
	var h hello
	h.Version = r.u16()
	h.Devices = int(r.u32())
	h.Groups = int(r.u32())
	h.NumTypes = int(r.u32())
	n := r.count(int(r.u16()), 4)
	for i := 0; i < n && r.err == nil; i++ {
		h.Workloads = append(h.Workloads, r.str())
	}
	return h, r.done()
}

// --- dispatch ---

// dispatchMsg ships one formed cohort: the frontend-assigned unit id,
// the fused type, the global shard group, the host-path flag, and every
// parsed request in full — including ScanCost, which the parser kernel
// charges compute by, so virtual time stays bit-identical to an
// in-process dispatch.
type dispatchMsg struct {
	ID    uint64
	Type  uint16
	Group int32
	Host  bool
	Reqs  []httpx.Request
}

// Smallest encodings: a request with empty strings and no params or
// cookies, and one param (two empty strings).
const (
	minRequestBytes = 1 + 4 + 2 + 2 + 4 + 4 + 4
	minParamBytes   = 4 + 4
)

func appendParams(b []byte, ps []httpx.Param) []byte {
	b = appendU16(b, uint16(len(ps)))
	for _, p := range ps {
		b = appendStr(b, p.Key)
		b = appendStr(b, p.Value)
	}
	return b
}

func (r *wireReader) params() []httpx.Param {
	n := r.count(int(r.u16()), minParamBytes)
	if n == 0 {
		return nil
	}
	ps := make([]httpx.Param, n)
	for i := 0; i < n && r.err == nil; i++ {
		ps[i] = httpx.Param{Key: r.str(), Value: r.str()}
	}
	return ps
}

func appendRequest(b []byte, q *httpx.Request) []byte {
	b = append(b, byte(q.Method))
	b = appendStr(b, q.Path)
	b = appendParams(b, q.Params)
	b = appendParams(b, q.Cookies)
	b = appendU32(b, uint32(q.ContentLength))
	b = appendStr(b, q.Body)
	b = appendU32(b, uint32(q.ScanCost))
	return b
}

func readRequest(r *wireReader, q *httpx.Request) {
	q.Method = httpx.Method(r.u8())
	q.Path = r.str()
	q.Params = r.params()
	q.Cookies = r.params()
	q.ContentLength = int(r.u32())
	q.Body = r.str()
	q.ScanCost = int(r.u32())
}

func appendDispatchFrame(b []byte, m *dispatchMsg) []byte {
	start := len(b)
	b = beginFrame(b, frameDispatch)
	b = appendU64(b, m.ID)
	b = appendU16(b, m.Type)
	b = appendU32(b, uint32(m.Group))
	b = appendFlag(b, m.Host)
	b = appendU32(b, uint32(len(m.Reqs)))
	for i := range m.Reqs {
		b = appendRequest(b, &m.Reqs[i])
	}
	return endFrame(b, start)
}

func decodeDispatch(p []byte) (dispatchMsg, error) {
	r := wireReader{b: p}
	var m dispatchMsg
	m.ID = r.u64()
	m.Type = r.u16()
	m.Group = int32(r.u32())
	m.Host = r.flag()
	n := r.count(int(r.u32()), minRequestBytes)
	m.Reqs = make([]httpx.Request, n)
	for i := 0; i < n && r.err == nil; i++ {
		readRequest(&r, &m.Reqs[i])
	}
	return m, r.done()
}

// --- result ---

// A result frame carries one completed cohort back: the unit id, the
// rendered responses in request order, the per-stage launch statistics
// (so frontend stats, spans, and the adaptive controller see exactly
// what an in-process execution reports), and the failover trail. Stage
// wall-clock starts are worker-local and not meaningful across hosts, so
// only durations cross the wire; the frontend anchors them at receive
// time.

// minStageBytes is the smallest encoded stage: its duration plus a
// LaunchStats with an empty kernel name.
const minStageBytes = 8 + 4 + 4 + 4 + 11*8

func appendLaunchStats(b []byte, st *simt.LaunchStats) []byte {
	b = appendStr(b, st.Kernel)
	b = appendU32(b, uint32(st.Threads))
	b = appendU32(b, uint32(st.Warps))
	b = appendI64(b, st.IssueCycles)
	b = appendI64(b, st.MemBytes)
	b = appendI64(b, st.Transactions)
	b = appendI64(b, st.IdealTxns)
	b = appendI64(b, st.BlockExecs)
	b = appendI64(b, st.DivergentExec)
	b = appendI64(b, int64(st.Duration))
	b = appendU64(b, st.Seq)
	b = appendF64(b, st.Occupancy)
	b = appendF64(b, st.EnergyJ)
	return b
}

func readLaunchStats(r *wireReader, st *simt.LaunchStats) {
	st.Kernel = r.str()
	st.Threads = int(r.u32())
	st.Warps = int(r.u32())
	st.IssueCycles = r.i64()
	st.MemBytes = r.i64()
	st.Transactions = r.i64()
	st.IdealTxns = r.i64()
	st.BlockExecs = r.i64()
	st.DivergentExec = r.i64()
	st.Duration = sim.Time(r.i64())
	st.Seq = r.u64()
	st.Occupancy = r.f64()
	st.EnergyJ = r.f64()
}

// appendResultFrame appends unit id's result frame to b. It grows b once
// to the padded size up front, so a pooled buffer that held a smaller
// frame is not regrown response by response.
func appendResultFrame(b []byte, id uint64, res *cluster.Result) []byte {
	size := frameHeaderBytes + 64 + len(res.Stages)*(minStageBytes+64)
	for _, p := range res.Resps {
		size += minRespBytes + len(p)
	}
	b = slices.Grow(b, size)
	start := len(b)
	b = beginFrame(b, frameResult)
	b = appendU64(b, id)
	if res.Err != nil {
		b = appendStr(b, res.Err.Error())
	} else {
		b = appendStr(b, "")
	}
	b = appendU32(b, uint32(res.Device))
	b = appendFlag(b, res.Host)
	b = appendU32(b, uint32(res.Attempts))
	b = appendU32(b, uint32(res.Hops))
	b = appendU32(b, uint32(res.KernelErrs))
	b = appendI64(b, int64(res.DeviceTime))
	b = appendI64(b, int64(res.RenderDur))
	b = appendU16(b, uint16(len(res.Stages)))
	for i := range res.Stages {
		b = appendI64(b, int64(res.Stages[i].Dur))
		b = appendLaunchStats(b, &res.Stages[i].Stats)
	}
	b = appendU32(b, uint32(len(res.Resps)))
	for _, p := range res.Resps {
		b = appendResp(b, p)
	}
	return endFrame(b, start)
}

// decodeResult rebuilds a result frame's cluster.Result, anchoring the
// worker-local stage and render starts at the receive instant. Every
// response is a fresh slice of its own (the caller owns Resps), and none
// may be padded past maxResp bytes.
func decodeResult(p []byte, maxResp int) (uint64, *cluster.Result, error) {
	r := wireReader{b: p}
	id := r.u64()
	res := &cluster.Result{}
	if msg := r.str(); msg != "" {
		res.Err = errors.New(msg)
	}
	res.Device = int(int32(r.u32()))
	res.Host = r.flag()
	res.Attempts = int(int32(r.u32()))
	res.Hops = int(int32(r.u32()))
	res.KernelErrs = int(int32(r.u32()))
	res.DeviceTime = sim.Time(r.i64())
	res.RenderDur = time.Duration(r.i64())
	now := time.Now()
	res.RenderStart = now.Add(-res.RenderDur)
	ns := r.count(int(r.u16()), minStageBytes)
	res.Stages = make([]cluster.StageExec, ns)
	for i := 0; i < ns && r.err == nil; i++ {
		se := &res.Stages[i]
		se.Dur = time.Duration(r.i64())
		se.Start = now.Add(-se.Dur)
		readLaunchStats(&r, &se.Stats)
	}
	nr := r.count(int(r.u32()), minRespBytes)
	res.Resps = make([][]byte, nr)
	for i := 0; i < nr && r.err == nil; i++ {
		res.Resps[i] = r.resp(maxResp)
	}
	return id, res, r.done()
}

// --- nack ---

type nackMsg struct {
	ID     uint64
	Reason byte
}

func appendNackFrame(b []byte, m nackMsg) []byte {
	start := len(b)
	b = beginFrame(b, frameNack)
	b = appendU64(b, m.ID)
	return endFrame(append(b, m.Reason), start)
}

func decodeNack(p []byte) (nackMsg, error) {
	r := wireReader{b: p}
	m := nackMsg{ID: r.u64(), Reason: r.u8()}
	return m, r.done()
}

// --- stats ---

type statsMsg struct {
	ReqID uint64
	JSON  []byte // frameStats only
}

// appendStatsFrame appends a stats request (kind frameStatsReq, no body)
// or a stats reply (frameStats, the snapshot JSON).
func appendStatsFrame(b []byte, kind byte, id uint64, body []byte) []byte {
	start := len(b)
	b = beginFrame(b, kind)
	b = appendU64(b, id)
	if kind == frameStats {
		b = appendU32(b, uint32(len(body)))
		b = append(b, body...)
	}
	return endFrame(b, start)
}

func decodeStats(p []byte, withBody bool) (statsMsg, error) {
	r := wireReader{b: p}
	m := statsMsg{ReqID: r.u64()}
	if withBody {
		m.JSON = bytes.Clone(r.take(int(r.u32())))
	}
	return m, r.done()
}

// dispatchWireBytes reports the exact framed size of a dispatch message
// without encoding it — the link-budget admission charges this before
// the frame is built.
func dispatchWireBytes(reqs []httpx.Request) int {
	n := frameHeaderBytes + 8 + 2 + 4 + 1 + 4 // id, type, group, host, count
	for i := range reqs {
		q := &reqs[i]
		n += minRequestBytes + len(q.Path) + len(q.Body)
		for _, p := range q.Params {
			n += minParamBytes + len(p.Key) + len(p.Value)
		}
		for _, c := range q.Cookies {
			n += minParamBytes + len(c.Key) + len(c.Value)
		}
	}
	return n
}
