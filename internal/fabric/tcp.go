package fabric

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"rhythm/internal/cluster"
	"rhythm/internal/service"
)

// statsTimeout bounds a remote node's snapshot RPC: a scrape during a
// worker hiccup degrades to the fabric's stale cache instead of hanging
// the stats endpoint.
const statsTimeout = 2 * time.Second

// tcpWriteQueue bounds the per-connection frame queue. The dispatch
// path blocks when it fills (pipelining backpressure from a slow link),
// which is the behaviour a saturated NIC would impose.
const tcpWriteQueue = 1024

// tcpTransport ships units to rhythmd -worker processes: one
// multiplexed connection per node, many in-flight cohorts per
// connection, completions matched by unit id in any order.
type tcpTransport struct {
	conns []*workerConn

	downMu sync.Mutex
	onDown func(int)
}

// dialTCP connects to every worker, validates the hello handshake
// (protocol version and registry fingerprint), and requires all workers
// to agree on the global group table. The fabric adopts the workers'
// group count — the group table is worker-side state, and the frontend
// must route over the exact table the workers were built with.
func dialTCP(cfg *Config) (*tcpTransport, error) {
	t := &tcpTransport{}
	groups := -1
	for i, addr := range cfg.Addrs {
		c, err := dialWorker(t, i, addr, cfg.Registry)
		if err != nil {
			for _, open := range t.conns {
				open.shutdown()
			}
			return nil, err
		}
		if groups < 0 {
			groups = c.hello.Groups
		} else if c.hello.Groups != groups {
			c.shutdown()
			for _, open := range t.conns {
				open.shutdown()
			}
			return nil, fmt.Errorf("fabric: worker %s has %d groups, worker %s has %d — all workers must share one global group table",
				cfg.Addrs[0], groups, addr, c.hello.Groups)
		}
		t.conns = append(t.conns, c)
	}
	if groups > 0 {
		cfg.Groups = groups
	}
	return t, nil
}

// workerConn is one node's multiplexed connection.
type workerConn struct {
	tr    *tcpTransport
	node  int
	addr  string
	conn  net.Conn
	hello hello
	// maxResp is the registry's largest response buffer: no response a
	// worker ships may be padded past it.
	maxResp int

	fw      *frameWriter
	closeCh chan struct{}

	mu           sync.Mutex
	down         bool
	nextID       uint64
	pending      map[uint64]func(Event)
	nextStatsID  uint64
	statsWaiters map[uint64]chan []byte

	failOnce sync.Once
	downOnce sync.Once
}

func dialWorker(t *tcpTransport, node int, addr string, reg *service.Registry) (*workerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("fabric: dial worker %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	h, err := readHello(conn, reg)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("fabric: worker %s: %w", addr, err)
	}
	c := &workerConn{
		tr:           t,
		node:         node,
		addr:         addr,
		conn:         conn,
		hello:        h,
		maxResp:      reg.MaxBufferBytes(),
		closeCh:      make(chan struct{}),
		pending:      make(map[uint64]func(Event)),
		statsWaiters: make(map[uint64]chan []byte),
	}
	c.fw = startFrameWriter(conn, c.closeCh, func() { c.fail() })
	go c.readLoop()
	return c, nil
}

// readHello reads the worker's first frame, which must be a hello that
// checkHello accepts. The worker speaks first.
func readHello(conn net.Conn, reg *service.Registry) (hello, error) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, payload, _, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return hello{}, fmt.Errorf("reading hello: %w", err)
	}
	if kind != frameHello {
		return hello{}, fmt.Errorf("expected hello, got frame kind %d", kind)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return h, err
	}
	return h, checkHello(h, reg)
}

// checkHello validates a worker's fingerprint against the frontend's
// registry: the wire carries raw TypeIDs, so both processes must have
// fused an identical type space.
func checkHello(h hello, reg *service.Registry) error {
	if h.Version != wireVersion {
		return fmt.Errorf("wire version %d, frontend speaks %d", h.Version, wireVersion)
	}
	if h.NumTypes != reg.NumTypes() {
		return fmt.Errorf("worker registry has %d types, frontend has %d", h.NumTypes, reg.NumTypes())
	}
	ws := reg.Workloads()
	if len(h.Workloads) != len(ws) {
		return fmt.Errorf("worker serves %d workloads, frontend has %d", len(h.Workloads), len(ws))
	}
	for i, w := range ws {
		if h.Workloads[i] != w.Name() {
			return fmt.Errorf("workload %d is %q on the worker, %q on the frontend", i, h.Workloads[i], w.Name())
		}
	}
	return nil
}

func (t *tcpTransport) Kind() string { return "tcp" }
func (t *tcpTransport) Nodes() int   { return len(t.conns) }
func (t *tcpTransport) NodeAddr(n int) string {
	return t.conns[n].addr
}

func (t *tcpTransport) OnNodeDown(fn func(int)) {
	t.downMu.Lock()
	t.onDown = fn
	t.downMu.Unlock()
}

func (t *tcpTransport) fireDown(n int) {
	t.downMu.Lock()
	fn := t.onDown
	t.downMu.Unlock()
	if fn != nil {
		fn(n)
	}
}

func (t *tcpTransport) Send(n int, u *cluster.Unit, ev func(Event)) SendStatus {
	c := t.conns[n]
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return SendNodeDown
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ev
	c.mu.Unlock()

	f := getFrame()
	*f = appendDispatchFrame(*f, &dispatchMsg{ID: id, Type: uint16(u.Type), Group: int32(u.Group), Host: u.Host, Reqs: u.Reqs})
	if !c.fw.enqueue(f) {
		c.mu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !mine {
			// The connection failed between the two locks, and fail took
			// the unit with the rest: its EvLost is the one Event.
			return SendOK
		}
		return SendNodeDown
	}
	return SendOK
}

func (t *tcpTransport) Quiesce(n int) {
	f := getFrame()
	*f = appendFrame(*f, frameQuiesce, nil)
	t.conns[n].fw.enqueue(f)
}

func (t *tcpTransport) NodeSnapshot(n int) (cluster.Snapshot, bool) {
	c := t.conns[n]
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return cluster.Snapshot{}, false
	}
	c.nextStatsID++
	id := c.nextStatsID
	ch := make(chan []byte, 1)
	c.statsWaiters[id] = ch
	c.mu.Unlock()

	f := getFrame()
	*f = appendStatsFrame(*f, frameStatsReq, id, nil)
	if !c.fw.enqueue(f) {
		c.dropStatsWaiter(id)
		return cluster.Snapshot{}, false
	}
	select {
	case body := <-ch:
		var snap cluster.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return cluster.Snapshot{}, false
		}
		return snap, true
	case <-time.After(statsTimeout):
		c.dropStatsWaiter(id)
		return cluster.Snapshot{}, false
	case <-c.closeCh:
		return cluster.Snapshot{}, false
	}
}

func (c *workerConn) dropStatsWaiter(id uint64) {
	c.mu.Lock()
	delete(c.statsWaiters, id)
	c.mu.Unlock()
}

func (t *tcpTransport) Close() {
	for _, c := range t.conns {
		c.shutdown()
	}
}

// readLoop demultiplexes worker frames back to their waiting units. It
// reads every frame into one reused buffer.
func (c *workerConn) readLoop() {
	fr := frameReader{r: c.conn}
	for {
		kind, payload, wireBytes, err := fr.next()
		if err != nil {
			c.fail()
			return
		}
		switch kind {
		case frameResult:
			id, res, err := decodeResult(payload, c.maxResp)
			if err != nil {
				c.fail()
				return
			}
			if ev := c.takePending(id); ev != nil {
				ev(Event{Kind: EvDone, Res: res, WireBytes: wireBytes})
			}
		case frameNack:
			m, err := decodeNack(payload)
			if err != nil {
				c.fail()
				return
			}
			if ev := c.takePending(m.ID); ev != nil {
				ev(Event{Kind: EvNack, Reason: m.Reason, WireBytes: wireBytes})
			}
		case frameStats:
			m, err := decodeStats(payload, true)
			if err != nil {
				c.fail()
				return
			}
			c.mu.Lock()
			ch := c.statsWaiters[m.ReqID]
			delete(c.statsWaiters, m.ReqID)
			c.mu.Unlock()
			if ch != nil {
				ch <- m.JSON
			}
		case frameBye:
			// The worker drained: every launched unit's result and every
			// refused unit's nack precede this frame in stream order, so
			// no pending unit remains ambiguous. Stop routing here; the
			// read loop keeps running until the worker closes.
			c.markDown()
		default:
			// Unknown frame kind from a same-version worker: protocol
			// corruption, treat as connection death.
			c.fail()
			return
		}
	}
}

func (c *workerConn) takePending(id uint64) func(Event) {
	c.mu.Lock()
	ev := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return ev
}

// markDown stops new sends to this node and tells the fabric, exactly
// once. In-flight units are untouched — their frames may still arrive.
func (c *workerConn) markDown() {
	c.mu.Lock()
	c.down = true
	c.mu.Unlock()
	c.downOnce.Do(func() { c.tr.fireDown(c.node) })
}

// fail handles connection death: every pending unit's fate is unknown,
// so each sheds with EvLost (never retried — the exactly-once write
// guarantee forbids re-executing a unit that may have committed).
func (c *workerConn) fail() {
	c.markDown()
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]func(Event))
	waiters := c.statsWaiters
	c.statsWaiters = make(map[uint64]chan []byte)
	c.mu.Unlock()
	c.shutdown()
	for _, ev := range pending {
		ev(Event{Kind: EvLost})
	}
	for _, ch := range waiters {
		close(ch)
	}
}

func (c *workerConn) shutdown() {
	c.failOnce.Do(func() {
		close(c.closeCh)
		c.conn.Close()
	})
}
