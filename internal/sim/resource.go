package sim

// Pipe models a bandwidth-limited, FIFO transfer resource such as a PCIe
// link or a NIC. Transfers are serialized: a transfer begins when the pipe
// becomes free and completes bytes/bandwidth later. This matches how the
// paper treats PCIe 3.0 as a structural hazard in the Rhythm pipeline
// (§6.1.1): when the bus is saturated, stages stall behind it.
type Pipe struct {
	eng *Engine
	// BytesPerSec is the usable bandwidth of the link.
	BytesPerSec float64
	// LatencyNs is the fixed per-transfer latency added to every transfer
	// (DMA setup, link traversal).
	LatencyNs Time

	freeAt Time
	busy   Time
}

// NewPipe returns a pipe bound to eng with the given usable bandwidth.
func NewPipe(eng *Engine, bytesPerSec float64, latency Time) *Pipe {
	if bytesPerSec <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{eng: eng, BytesPerSec: bytesPerSec, LatencyNs: latency}
}

// Transfer schedules a transfer of n bytes and calls done when the last
// byte arrives. It returns the completion time.
func (p *Pipe) Transfer(n int, done func()) Time {
	if n < 0 {
		panic("sim: negative transfer size")
	}
	start := p.eng.Now()
	if p.freeAt > start {
		start = p.freeAt
	}
	dur := Time(float64(n) / p.BytesPerSec * 1e9)
	end := start + dur + p.LatencyNs
	p.freeAt = start + dur // latency overlaps with the next transfer
	p.busy += dur
	if done != nil {
		p.eng.At(end, done)
	}
	return end
}

// Utilization reports the busy fraction of the pipe over [0, now].
func (p *Pipe) Utilization() float64 {
	now := p.eng.Now()
	if now == 0 {
		return 0
	}
	b := p.busy
	if p.freeAt > now {
		b -= p.freeAt - now // don't count queued future work as past busy time
	}
	return float64(b) / float64(now)
}

// Server models a counted resource (e.g., backend worker threads) with a
// fixed per-item service time. Items queue FIFO when all slots are busy.
type Server struct {
	eng   *Engine
	slots []Time // next-free time per slot
}

// NewServer returns a server with n parallel slots.
func NewServer(eng *Engine, n int) *Server {
	if n <= 0 {
		panic("sim: server needs at least one slot")
	}
	return &Server{eng: eng, slots: make([]Time, n)}
}

// Submit schedules one item with the given service time and calls done at
// completion. Returns the completion time.
func (s *Server) Submit(service Time, done func()) Time {
	// Pick the slot that frees earliest.
	best := 0
	for i, t := range s.slots {
		if t < s.slots[best] {
			best = i
		}
	}
	start := s.eng.Now()
	if s.slots[best] > start {
		start = s.slots[best]
	}
	end := start + service
	s.slots[best] = end
	if done != nil {
		s.eng.At(end, done)
	}
	return end
}
