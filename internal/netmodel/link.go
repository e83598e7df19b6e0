package netmodel

import (
	"sync"
	"time"

	"rhythm/internal/banking"
	"rhythm/internal/service"
)

// BusBytesPerSpec prices one request of a fused-registry type on the
// PCIe bus, the registry-generic form of BusBytesPerRequest (§6.1.1
// accounting): the request slot in, each backend round trip, and the
// padded response buffer out. Loopback fabric nodes charge this against
// their Link budget per shipped request.
func BusBytesPerSpec(sp service.Spec) int {
	return banking.RequestSlot +
		sp.Backends*(service.BackendRequestSlot+service.BackendResponseSlot) +
		sp.BufferBytes
}

// Link models one provisioned interconnect — a node's NIC on the tcp
// fabric, or the PCIe bus in front of a loopback node — as a wall-clock
// token bucket, turning the Fig-9/§6.3 bandwidth ceilings into a live
// admission input. Every shipped cohort charges its serialized bytes
// (tcp: actual frame bytes; loopback: the modeled §6.1.1 bus bytes)
// against the budget; when the bucket runs dry the dispatcher sheds the
// cohort with a 503, exactly as the paper's analysis predicts the link
// would.
//
// Bps 0 disables metering: Admit always succeeds and only the byte
// counters advance, so an unbudgeted fabric observes traffic without
// perturbing it.
type Link struct {
	bps   float64 // bytes/sec budget (0 = unmetered)
	burst float64 // bucket depth, bytes

	mu        sync.Mutex
	tokens    float64
	last      time.Time
	sentBytes uint64
	recvBytes uint64
	sheds     uint64
}

// linkBurstSecs sizes the bucket: a link may burst up to this many
// seconds of its provisioned rate before admission starts shedding,
// absorbing cohort-sized granularity without letting sustained overload
// through.
const linkBurstSecs = 0.05

// NewLink builds a link budgeted at bps bytes per second (0 =
// unmetered): a network link's bit rate ÷ 8, or PCIe3Bps / PCIe4Bps for
// bus budgets.
func NewLink(bps float64) *Link {
	l := &Link{bps: bps, last: time.Now()}
	if bps > 0 {
		l.burst = bps * linkBurstSecs
		l.tokens = l.burst
	}
	return l
}

// Admit charges n outbound bytes against the budget, reporting false —
// and counting a shed — when the bucket cannot cover them. Unmetered
// links always admit.
func (l *Link) Admit(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bps > 0 {
		l.refillLocked()
		if l.tokens < float64(n) {
			l.sheds++
			return false
		}
		l.tokens -= float64(n)
	}
	l.sentBytes += uint64(n)
	return true
}

// NoteRecv charges n inbound bytes (result frames) against the same
// budget without an admission decision: results of work already shipped
// must land, so an overdrawn bucket goes negative and throttles the
// next Admit instead.
func (l *Link) NoteRecv(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bps > 0 {
		l.refillLocked()
		l.tokens -= float64(n)
	}
	l.recvBytes += uint64(n)
}

// refillLocked adds elapsed-time tokens up to the burst depth.
func (l *Link) refillLocked() {
	now := time.Now()
	dt := now.Sub(l.last).Seconds()
	l.last = now
	if dt <= 0 {
		return
	}
	l.tokens += dt * l.bps
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}

// LinkStats is a Link's counter snapshot for /v1/topology.
type LinkStats struct {
	BudgetGbps  float64 `json:"budget_gbps"` // 0 = unmetered
	SentBytes   uint64  `json:"sent_bytes"`
	RecvBytes   uint64  `json:"recv_bytes"`
	Sheds       uint64  `json:"sheds"`
	Utilization float64 `json:"utilization"` // 0..1 bucket drain (0 unmetered)
}

// Stats snapshots the link counters. Utilization is the instantaneous
// bucket drain: 0 = idle (full bucket), 1 = saturated (empty).
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LinkStats{
		BudgetGbps: l.bps * 8 / 1e9,
		SentBytes:  l.sentBytes,
		RecvBytes:  l.recvBytes,
		Sheds:      l.sheds,
	}
	if l.bps > 0 {
		l.refillLocked()
		tokens := l.tokens
		if tokens < 0 {
			tokens = 0
		}
		st.Utilization = 1 - tokens/l.burst
	}
	return st
}
