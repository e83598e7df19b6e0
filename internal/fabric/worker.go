package fabric

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"rhythm/internal/cluster"
	"rhythm/internal/service"
	"rhythm/internal/simt"
)

// frameWriter is the coalescing writer both ends of the wire share: an
// in-process frame queue drained by one goroutine into a buffered
// write, flushed only when the queue runs dry. A burst of pipelined
// frames costs one syscall.
type frameWriter struct {
	conn    net.Conn
	ch      chan *[]byte
	closeCh chan struct{}
	onErr   func()
}

func startFrameWriter(conn net.Conn, closeCh chan struct{}, onErr func()) *frameWriter {
	w := &frameWriter{
		conn:    conn,
		ch:      make(chan *[]byte, tcpWriteQueue),
		closeCh: closeCh,
		onErr:   onErr,
	}
	go w.loop()
	return w
}

// enqueue queues one frame built in a getFrame buffer, blocking when the
// queue is full (link backpressure); the writer puts the buffer back in
// the pool once written. Reports false when the connection is closed.
func (w *frameWriter) enqueue(frame *[]byte) bool {
	select {
	case <-w.closeCh:
		return false
	default:
	}
	select {
	case w.ch <- frame:
		return true
	case <-w.closeCh:
		return false
	}
}

func (w *frameWriter) loop() {
	bw := bufio.NewWriterSize(w.conn, 256<<10)
	for {
		var frame *[]byte
		select {
		case frame = <-w.ch:
		case <-w.closeCh:
			return
		}
		for frame != nil {
			_, err := bw.Write(*frame)
			putFrame(frame)
			if err != nil {
				w.onErr()
				return
			}
			select {
			case frame = <-w.ch:
			default:
				frame = nil
			}
		}
		if err := bw.Flush(); err != nil {
			w.onErr()
			return
		}
	}
}

// WorkerConfig sizes one device node hosted by `rhythmd -worker`.
type WorkerConfig struct {
	// Registry must be built identically to the frontend's — same
	// workloads in the same registration order. The hello fingerprint
	// enforces it at dial time.
	Registry *service.Registry
	// Devices is this node's modeled device count.
	Devices int
	// Groups is the GLOBAL shard-group table size shared by every node
	// in the fabric (default: Devices). All workers must agree.
	Groups int
	// Remaining geometry mirrors cluster.Config.
	CohortSize            int
	SlotsPerDevice        int
	QueueDepth            int
	SessionBuckets        int
	SessionNodesPerBucket int
	Simt                  simt.Config
	Faults                *cluster.FaultPlan
	MaxAttempts           int
}

// Worker hosts one fabric node: a cluster of modeled devices behind a
// listener speaking the wire protocol. Many frontends may connect; each
// connection is independently multiplexed.
type Worker struct {
	cl *cluster.Cluster

	ln     net.Listener
	closed atomic.Bool

	peerMu sync.Mutex
	peers  map[*workerPeer]struct{}

	// qmu orders quiesce against dispatch admission: a dispatch holds it
	// shared while checking the flag and joining inflight, so Quiesce's
	// Wait can never race a concurrent Add from zero.
	qmu         sync.RWMutex
	quiescing   bool
	quiesceOnce sync.Once
	inflight    sync.WaitGroup
}

// NewWorker builds the node's device cluster. The cluster starts
// immediately; units arrive once Listen+Serve run.
func NewWorker(cfg WorkerConfig) *Worker {
	cl := cluster.New(cluster.Config{
		Registry:              cfg.Registry,
		Devices:               cfg.Devices,
		Groups:                cfg.Groups,
		CohortSize:            cfg.CohortSize,
		SlotsPerDevice:        cfg.SlotsPerDevice,
		QueueDepth:            cfg.QueueDepth,
		SessionBuckets:        cfg.SessionBuckets,
		SessionNodesPerBucket: cfg.SessionNodesPerBucket,
		Simt:                  cfg.Simt,
		Faults:                cfg.Faults,
		MaxAttempts:           cfg.MaxAttempts,
	})
	return &Worker{
		cl:    cl,
		peers: make(map[*workerPeer]struct{}),
	}
}

// Cluster exposes the node's device pool (write hooks in tests, stats
// in the worker's own process).
func (w *Worker) Cluster() *cluster.Cluster { return w.cl }

// Listen binds the worker's listener ("host:port"; ":0" for ephemeral).
func (w *Worker) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	w.ln = ln
	return nil
}

// Addr reports the bound listen address.
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Serve accepts frontend connections until the listener closes. Returns
// nil on a Close()-initiated shutdown.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			if w.closed.Load() {
				return nil
			}
			return err
		}
		go w.serveConn(conn)
	}
}

// workerPeer is one frontend connection on the worker side.
type workerPeer struct {
	conn      net.Conn
	closeCh   chan struct{}
	closeOnce sync.Once
	fw        *frameWriter
	// out and res are the connection reader's render buffer and Result
	// for host units, which execute and have their result frame encoded
	// before Dispatch returns.
	out []byte
	res cluster.Result
}

func (p *workerPeer) shutdown() {
	p.closeOnce.Do(func() {
		close(p.closeCh)
		p.conn.Close()
	})
}

func (p *workerPeer) nack(id uint64, reason byte) {
	f := getFrame()
	*f = appendNackFrame(*f, nackMsg{ID: id, Reason: reason})
	p.fw.enqueue(f)
}

func (w *Worker) serveConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p := &workerPeer{conn: conn, closeCh: make(chan struct{}), out: make([]byte, w.cl.Registry().MaxBufferBytes())}
	p.fw = startFrameWriter(conn, p.closeCh, p.shutdown)
	w.peerMu.Lock()
	w.peers[p] = struct{}{}
	w.peerMu.Unlock()
	defer func() {
		w.peerMu.Lock()
		delete(w.peers, p)
		w.peerMu.Unlock()
		p.shutdown()
	}()

	// The worker speaks first: version + registry fingerprint.
	reg := w.cl.Registry()
	h := hello{
		Version:  wireVersion,
		Devices:  w.cl.Devices(),
		Groups:   w.cl.GroupCount(),
		NumTypes: reg.NumTypes(),
	}
	for _, wl := range reg.Workloads() {
		h.Workloads = append(h.Workloads, wl.Name())
	}
	f := getFrame()
	*f = appendHelloFrame(*f, h)
	p.fw.enqueue(f)

	fr := frameReader{r: conn}
	for {
		kind, payload, _, err := fr.next()
		if err != nil {
			return
		}
		switch kind {
		case frameDispatch:
			if !w.handleDispatch(p, payload) {
				return
			}
		case frameStatsReq:
			m, err := decodeStats(payload, false)
			if err != nil {
				return
			}
			body, err := json.Marshal(w.cl.Snapshot())
			if err != nil {
				return
			}
			f := getFrame()
			*f = appendStatsFrame(*f, frameStats, m.ReqID, body)
			p.fw.enqueue(f)
		case frameQuiesce:
			// Quiesce blocks on the inflight drain; the read loop keeps
			// nacking new dispatches meanwhile.
			go w.Quiesce()
		default:
			return
		}
	}
}

// handleDispatch admits one shipped cohort into the node's cluster.
// Launched units complete and ship their result; refused units nack
// with a reason that tells the frontend whether a retry elsewhere is
// safe. A host unit executes inside Dispatch, on this connection's
// reader, and its result is queued before the next frame is read.
// Reports false on a malformed frame (connection dies).
func (w *Worker) handleDispatch(p *workerPeer, payload []byte) bool {
	m, err := decodeDispatch(payload)
	if err != nil {
		return false
	}
	id := m.ID

	w.qmu.RLock()
	if w.quiescing {
		w.qmu.RUnlock()
		p.nack(id, nackQuiesce)
		return true
	}
	w.inflight.Add(1)
	w.qmu.RUnlock()

	u := &cluster.Unit{
		Type:  service.TypeID(m.Type),
		Group: int(m.Group),
		Reqs:  m.Reqs,
		Host:  m.Host,
		Done: func(res *cluster.Result) {
			defer w.inflight.Done()
			if res.Err != nil && errors.Is(res.Err, cluster.ErrNoHealthyDevice) {
				// Transfer shed: the unit never launched, retrying on
				// another node cannot double-commit.
				p.nack(id, nackNoDevice)
				return
			}
			f := getFrame()
			*f = appendResultFrame(*f, id, res)
			p.fw.enqueue(f)
		},
	}
	if u.Host {
		u.Out, u.Res = p.out, &p.res
	}
	if !w.cl.Dispatch(u) {
		w.inflight.Done()
		if w.cl.Healthy() {
			p.nack(id, nackBusy)
		} else {
			p.nack(id, nackNoDevice)
		}
	}
	return true
}

// Quiesce drains the node toward death: new dispatches nack
// immediately, every already-admitted unit completes (its Besim writes
// commit exactly once) and ships its result, then every connection gets
// a bye. Blocks until the drain finishes; idempotent. The process stays
// alive until Close so stragglers can read their results.
func (w *Worker) Quiesce() {
	w.quiesceOnce.Do(func() {
		w.qmu.Lock()
		w.quiescing = true
		w.qmu.Unlock()
		w.inflight.Wait()
		w.peerMu.Lock()
		for p := range w.peers {
			f := getFrame()
			*f = appendFrame(*f, frameBye, nil)
			p.fw.enqueue(f)
		}
		w.peerMu.Unlock()
	})
}

// Quiescing reports whether a drain has begun.
func (w *Worker) Quiescing() bool {
	w.qmu.RLock()
	defer w.qmu.RUnlock()
	return w.quiescing
}

// Close tears the worker down: listener, connections, then the device
// cluster (which drains its own queues).
func (w *Worker) Close() {
	w.closed.Store(true)
	if w.ln != nil {
		w.ln.Close()
	}
	w.peerMu.Lock()
	peers := make([]*workerPeer, 0, len(w.peers))
	for p := range w.peers {
		peers = append(peers, p)
	}
	w.peerMu.Unlock()
	for _, p := range peers {
		p.shutdown()
	}
	w.cl.Close()
}
