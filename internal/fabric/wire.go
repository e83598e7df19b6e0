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
// burst of cohorts costs one syscall, not one per cohort.
//
// All integers are little-endian and fixed-width — the frames carry
// modeled-hardware counters whose magnitudes are unbounded, and fixed
// width keeps the serialized size of a cohort deterministic, which the
// link-budget admission charges before sending.
package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/httpx"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// wireVersion gates the handshake: a worker and frontend must agree
// exactly (the frames carry raw struct layouts, not self-describing
// records).
const wireVersion = 1

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

// writeFrame appends a framed payload to buf: length prefix, kind,
// payload. Returns the extended buffer.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)+1))
	buf = append(buf, kind)
	return append(buf, payload...)
}

// readFrame reads one frame from r: kind, payload, and the total bytes
// consumed off the wire (prefix included — the link budget charges
// them).
func readFrame(r io.Reader) (kind byte, payload []byte, wireBytes int, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrameBytes {
		return 0, nil, 0, errFrameTooBig
	}
	// The declared length is the peer's claim, so memory is committed
	// only as body bytes arrive: a first step of at most frameReadStep,
	// then doubling. A 4-byte header alone pins nothing.
	body := make([]byte, 0, min(int(n), frameReadStep))
	for len(body) < int(n) {
		have := len(body)
		step := min(int(n)-have, max(have, frameReadStep))
		body = slices.Grow(body, step)[:have+step]
		if _, err = io.ReadFull(r, body[have:]); err != nil {
			return 0, nil, 0, err
		}
	}
	return body[0], body[1:], int(4 + n), nil
}

// frameReadStep is readFrame's first allocation; ordinary frames (a
// one-request host unit is ~23 KB) fit it and are read in one step.
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
func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// wireReader decodes a payload with sticky error handling: the first
// short read poisons the reader and every later get returns zero, so
// decode paths check err once at the end.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("fabric: truncated frame at offset %d", r.off)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
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
func (r *wireReader) str() string {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
func (r *wireReader) bytes() []byte {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
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

func encodeHello(h hello) []byte {
	b := make([]byte, 0, 64)
	b = appendU16(b, h.Version)
	b = appendU32(b, uint32(h.Devices))
	b = appendU32(b, uint32(h.Groups))
	b = appendU32(b, uint32(h.NumTypes))
	b = appendU16(b, uint16(len(h.Workloads)))
	for _, w := range h.Workloads {
		b = appendStr(b, w)
	}
	return b
}

func decodeHello(p []byte) (hello, error) {
	r := wireReader{b: p}
	var h hello
	h.Version = r.u16()
	h.Devices = int(r.u32())
	h.Groups = int(r.u32())
	h.NumTypes = int(r.u32())
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		h.Workloads = append(h.Workloads, r.str())
	}
	return h, r.err
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

func appendRequest(b []byte, q *httpx.Request) []byte {
	b = append(b, byte(q.Method))
	b = appendStr(b, q.Path)
	b = appendU16(b, uint16(len(q.Params)))
	for _, p := range q.Params {
		b = appendStr(b, p.Key)
		b = appendStr(b, p.Value)
	}
	b = appendU16(b, uint16(len(q.Cookies)))
	for _, c := range q.Cookies {
		b = appendStr(b, c.Key)
		b = appendStr(b, c.Value)
	}
	b = appendU32(b, uint32(q.ContentLength))
	b = appendStr(b, q.Body)
	b = appendU32(b, uint32(q.ScanCost))
	return b
}

func readRequest(r *wireReader, q *httpx.Request) {
	q.Method = httpx.Method(r.u8())
	q.Path = r.str()
	np := int(r.u16())
	for i := 0; i < np && r.err == nil; i++ {
		q.Params = append(q.Params, httpx.Param{Key: r.str(), Value: r.str()})
	}
	nc := int(r.u16())
	for i := 0; i < nc && r.err == nil; i++ {
		q.Cookies = append(q.Cookies, httpx.Param{Key: r.str(), Value: r.str()})
	}
	q.ContentLength = int(r.u32())
	q.Body = r.str()
	q.ScanCost = int(r.u32())
}

func encodeDispatch(m *dispatchMsg) []byte {
	b := make([]byte, 0, 64+len(m.Reqs)*96)
	b = appendU64(b, m.ID)
	b = appendU16(b, m.Type)
	b = appendU32(b, uint32(m.Group))
	host := byte(0)
	if m.Host {
		host = 1
	}
	b = append(b, host)
	b = appendU32(b, uint32(len(m.Reqs)))
	for i := range m.Reqs {
		b = appendRequest(b, &m.Reqs[i])
	}
	return b
}

func decodeDispatch(p []byte) (dispatchMsg, error) {
	r := wireReader{b: p}
	var m dispatchMsg
	m.ID = r.u64()
	m.Type = r.u16()
	m.Group = int32(r.u32())
	m.Host = r.u8() == 1
	n := int(r.u32())
	if r.err == nil && n >= 0 {
		m.Reqs = make([]httpx.Request, n)
		for i := 0; i < n && r.err == nil; i++ {
			readRequest(&r, &m.Reqs[i])
		}
	}
	return m, r.err
}

// --- result ---

// resultMsg carries one completed cohort back: rendered responses in
// request order, the per-stage launch statistics (so frontend stats,
// spans, and the adaptive controller see exactly what an in-process
// execution reports), and the failover trail. Stage wall-clock starts
// are worker-local and not meaningful across hosts, so only durations
// cross the wire; the frontend anchors them at receive time.
type resultMsg struct {
	ID          uint64
	Err         string // "" = ok
	Device      int32
	Host        bool
	Attempts    int32
	Hops        int32
	KernelErrs  int32
	DeviceTime  int64
	RenderDurNs int64
	StageDurs   []int64 // wall-clock ns per stage
	Stages      []simt.LaunchStats
	Resps       [][]byte
}

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

func encodeResult(m *resultMsg) []byte {
	size := 96 + len(m.Stages)*128
	for _, p := range m.Resps {
		size += len(p) + 4
	}
	b := make([]byte, 0, size)
	b = appendU64(b, m.ID)
	b = appendStr(b, m.Err)
	b = appendU32(b, uint32(m.Device))
	host := byte(0)
	if m.Host {
		host = 1
	}
	b = append(b, host)
	b = appendU32(b, uint32(m.Attempts))
	b = appendU32(b, uint32(m.Hops))
	b = appendU32(b, uint32(m.KernelErrs))
	b = appendI64(b, m.DeviceTime)
	b = appendI64(b, m.RenderDurNs)
	b = appendU16(b, uint16(len(m.Stages)))
	for i := range m.Stages {
		b = appendI64(b, m.StageDurs[i])
		b = appendLaunchStats(b, &m.Stages[i])
	}
	b = appendU32(b, uint32(len(m.Resps)))
	for _, p := range m.Resps {
		b = appendBytes(b, p)
	}
	return b
}

func decodeResult(p []byte) (resultMsg, error) {
	r := wireReader{b: p}
	var m resultMsg
	m.ID = r.u64()
	m.Err = r.str()
	m.Device = int32(r.u32())
	m.Host = r.u8() == 1
	m.Attempts = int32(r.u32())
	m.Hops = int32(r.u32())
	m.KernelErrs = int32(r.u32())
	m.DeviceTime = r.i64()
	m.RenderDurNs = r.i64()
	ns := int(r.u16())
	if r.err == nil {
		m.StageDurs = make([]int64, ns)
		m.Stages = make([]simt.LaunchStats, ns)
		for i := 0; i < ns && r.err == nil; i++ {
			m.StageDurs[i] = r.i64()
			readLaunchStats(&r, &m.Stages[i])
		}
	}
	nr := int(r.u32())
	for i := 0; i < nr && r.err == nil; i++ {
		m.Resps = append(m.Resps, r.bytes())
	}
	return m, r.err
}

// resultFromCluster flattens a cluster.Result into its wire form.
func resultFromCluster(id uint64, res *cluster.Result) *resultMsg {
	m := &resultMsg{
		ID:          id,
		Device:      int32(res.Device),
		Host:        res.Host,
		Attempts:    int32(res.Attempts),
		Hops:        int32(res.Hops),
		KernelErrs:  int32(res.KernelErrs),
		DeviceTime:  int64(res.DeviceTime),
		RenderDurNs: int64(res.RenderDur),
		Resps:       res.Resps,
	}
	if res.Err != nil {
		m.Err = res.Err.Error()
	}
	for _, se := range res.Stages {
		m.StageDurs = append(m.StageDurs, int64(se.Dur))
		m.Stages = append(m.Stages, se.Stats)
	}
	return m
}

// clusterResult rebuilds a cluster.Result from the wire, anchoring the
// worker-local stage and render start times at the receive instant.
func (m *resultMsg) clusterResult() *cluster.Result {
	res := &cluster.Result{
		Resps:      m.Resps,
		KernelErrs: int(m.KernelErrs),
		Device:     int(m.Device),
		Host:       m.Host,
		Attempts:   int(m.Attempts),
		Hops:       int(m.Hops),
		DeviceTime: sim.Time(m.DeviceTime),
		RenderDur:  time.Duration(m.RenderDurNs),
	}
	if m.Err != "" {
		res.Err = errors.New(m.Err)
	}
	now := time.Now()
	res.RenderStart = now.Add(-time.Duration(m.RenderDurNs))
	for i := range m.Stages {
		dur := time.Duration(m.StageDurs[i])
		res.Stages = append(res.Stages, cluster.StageExec{
			Stats: m.Stages[i],
			Start: now.Add(-dur),
			Dur:   dur,
		})
	}
	return res
}

// --- nack ---

type nackMsg struct {
	ID     uint64
	Reason byte
}

func encodeNack(m nackMsg) []byte {
	b := make([]byte, 0, 9)
	b = appendU64(b, m.ID)
	return append(b, m.Reason)
}

func decodeNack(p []byte) (nackMsg, error) {
	r := wireReader{b: p}
	m := nackMsg{ID: r.u64(), Reason: r.u8()}
	return m, r.err
}

// --- stats ---

type statsMsg struct {
	ReqID uint64
	JSON  []byte // frameStats only
}

func encodeStatsReq(id uint64) []byte {
	return appendU64(nil, id)
}

func encodeStats(id uint64, body []byte) []byte {
	b := make([]byte, 0, 12+len(body))
	b = appendU64(b, id)
	return appendBytes(b, body)
}

func decodeStats(p []byte, withBody bool) (statsMsg, error) {
	r := wireReader{b: p}
	m := statsMsg{ReqID: r.u64()}
	if withBody {
		m.JSON = r.bytes()
	}
	return m, r.err
}

// dispatchWireBytes reports the exact framed size of a dispatch message
// without encoding it — the link-budget admission charges this before
// the frame is built.
func dispatchWireBytes(reqs []httpx.Request) int {
	n := 4 + 1 + 8 + 2 + 4 + 1 + 4 // frame prefix+kind, id, type, group, host, count
	for i := range reqs {
		q := &reqs[i]
		n += 1 + 4 + len(q.Path) + 2 + 2 + 4 + 4 + len(q.Body) + 4
		for _, p := range q.Params {
			n += 8 + len(p.Key) + len(p.Value)
		}
		for _, c := range q.Cookies {
			n += 8 + len(c.Key) + len(c.Value)
		}
	}
	return n
}
