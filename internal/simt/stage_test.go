package simt

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"rhythm/internal/mem"
)

// The staged column commit (stage.go) must be indistinguishable from
// writing every store through at issue. stageOp and stageProg are a
// random-program generator for that differential: programs mix column
// shaped stores (the batched path), arbitrary stores (other element
// sizes and strides, misaligned, overlapping between lanes), every kind
// of read, Mem() and Defer, over several blocks with ragged masks.

type stageOp struct {
	kind                int // 0 Store, 1 StoreStrided, 2 Load, 3 LoadStrided, 4 Mem read, 5 Defer write, 6 LoadConst
	addr                mem.Addr
	n, elem, stride     int
	payload             []byte
	scribbleAfterReturn bool
}

type stageProg struct {
	ops  [][][]stageOp // [block][lane]
	next [][]BlockID   // [block][lane]
	m    *mem.Memory

	// Observations, compared between the two executions.
	reads     []uint64 // per lane: running hash of everything it read
	snapshots []uint64 // device-memory hash at the start of every block execution
	lastBlock BlockID
	lastLane  int
}

func (p *stageProg) Name() string   { return "stage_diff" }
func (p *stageProg) Entry() BlockID { return 0 }

func hashBytes(h uint64, b []byte) uint64 {
	f := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(h >> (8 * i))
	}
	f.Write(seed[:])
	f.Write(b)
	return f.Sum64()
}

func (p *stageProg) Exec(b BlockID, t *Thread) BlockID {
	// Lanes of one block execution run in increasing lane order, so a
	// new execution starts when the block changes or the lane restarts.
	if b != p.lastBlock || t.Lane <= p.lastLane {
		p.snapshots = append(p.snapshots, hashBytes(0, p.m.Bytes(0, p.m.Size())))
	}
	p.lastBlock, p.lastLane = b, t.Lane
	for _, op := range p.ops[b][t.Lane] {
		switch op.kind {
		case 0, 1:
			buf := append([]byte(nil), op.payload...)
			if op.kind == 0 {
				t.Store(op.addr, buf)
			} else {
				t.StoreStrided(op.addr, buf, op.elem, op.stride)
			}
			if op.scribbleAfterReturn {
				for i := range buf {
					buf[i] = 0xEE
				}
			}
		case 2:
			p.reads[t.Lane] = hashBytes(p.reads[t.Lane], t.Load(op.addr, op.n))
		case 3:
			p.reads[t.Lane] = hashBytes(p.reads[t.Lane], t.LoadStrided(op.addr, op.n, op.elem, op.stride))
		case 4:
			p.reads[t.Lane] = hashBytes(p.reads[t.Lane], t.Mem().Bytes(op.addr, op.n))
		case 5:
			m, addr, payload := t.Mem(), op.addr, op.payload
			t.Defer(func() { m.Write(addr, payload) })
		case 6:
			p.reads[t.Lane] = hashBytes(p.reads[t.Lane], t.LoadConst(op.addr, op.n))
		}
		t.Compute(1 + len(op.payload)%5)
	}
	return p.next[b][t.Lane]
}

const (
	stageDiffMem  = 16 << 10
	stageDiffRows = 40 // stride 160: a warp's 32 columns fit
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// genStageProg builds a random program of `blocks` blocks for `lanes`
// lanes over a stageDiffMem-byte memory.
func genStageProg(rng *rand.Rand, lanes, blocks int) *stageProg {
	p := &stageProg{reads: make([]uint64, lanes), lastBlock: -1}
	const colStride = WordSize * stageDiffRows
	colBuf := mem.Addr(256 * rng.Intn(4))
	rec := &Thread{mem: mem.New(stageDiffMem)} // detached: records the accesses StoreColumn issues
	for b := 0; b < blocks; b++ {
		ops := make([][]stageOp, lanes)
		next := make([]BlockID, lanes)
		// Some blocks are column-only (every lane batches), some mixed.
		columnOnly := rng.Intn(3) == 0
		for l := 0; l < lanes; l++ {
			for k := rng.Intn(5); k > 0; k-- {
				var op stageOp
				kind := rng.Intn(10)
				switch {
				case columnOnly || kind < 4: // a StoreColumn-shaped run: head, words, tail
					start := rng.Intn(24)
					if rng.Intn(2) == 0 {
						start &^= 3
					}
					data := randBytes(rng, 1+rng.Intn(200))
					ops[l] = append(ops[l], columnOps(rec, colBuf, l, start, data, rng.Intn(2) == 0)...)
					continue
				case kind == 4: // arbitrary simple store
					op = stageOp{kind: 0, addr: mem.Addr(rng.Intn(stageDiffMem - 64)), payload: randBytes(rng, rng.Intn(12))}
				case kind == 5: // arbitrary strided store
					elem := []int{1, 2, 4, 8}[rng.Intn(4)]
					stride := elem + rng.Intn(3)*elem + rng.Intn(2)*rng.Intn(7)
					if rng.Intn(3) == 0 {
						elem, stride = WordSize, colStride
					}
					count := rng.Intn(9)
					op = stageOp{kind: 1, addr: mem.Addr(rng.Intn(stageDiffMem - 10*stride - 8)), elem: elem, stride: stride, payload: randBytes(rng, count*elem)}
				case kind == 6:
					op = stageOp{kind: 2, addr: mem.Addr(rng.Intn(stageDiffMem - 64)), n: rng.Intn(64)}
				case kind == 7:
					elem := []int{1, 4, 8}[rng.Intn(3)]
					stride := elem * (1 + rng.Intn(40))
					op = stageOp{kind: 3, addr: mem.Addr(rng.Intn(stageDiffMem - 10*stride - 8)), n: rng.Intn(9), elem: elem, stride: stride}
				case kind == 8:
					op = stageOp{kind: 4 + 2*rng.Intn(2), addr: mem.Addr(rng.Intn(stageDiffMem - 64)), n: rng.Intn(64)}
				default:
					op = stageOp{kind: 5, addr: mem.Addr(rng.Intn(stageDiffMem - 64)), payload: randBytes(rng, rng.Intn(16))}
				}
				op.scribbleAfterReturn = rng.Intn(2) == 0
				ops[l] = append(ops[l], op)
			}
			// Ragged masks: lanes skip ahead or retire at random.
			switch nb := b + 1 + rng.Intn(3); {
			case rng.Intn(8) == 0 || nb >= blocks:
				next[l] = Halt
			default:
				next[l] = BlockID(nb)
			}
		}
		p.ops = append(p.ops, ops)
		p.next = append(p.next, next)
	}
	return p
}

// columnOps is StoreColumn as data: the head Store, the StoreStrided
// and the tail Store it issues (on rec) for lane r.
func columnOps(rec *Thread, buf mem.Addr, r, start int, data []byte, scribble bool) []stageOp {
	var ops []stageOp
	rec.reset()
	StoreColumn(rec, buf, r, stageDiffRows, start, data)
	off := 0
	for _, a := range rec.accesses {
		n := a.elem * a.count
		op := stageOp{kind: 0, addr: a.addr, payload: data[off : off+n], scribbleAfterReturn: scribble}
		if a.strided {
			op.kind, op.elem, op.stride = 1, a.elem, a.stride
		}
		ops = append(ops, op)
		off += n
	}
	return ops
}

// runStageProg executes p on a fresh memory image and returns what it
// observed. staged selects runWarp's commit or the write-through
// reference.
func runStageProg(p *stageProg, image []byte, lanes int, staged bool) (warpStats, []byte, []uint64, []uint64) {
	m := mem.New(stageDiffMem)
	m.Write(0, image)
	p.m = m
	p.reads = make([]uint64, lanes)
	p.snapshots = nil
	p.lastBlock, p.lastLane = -1, 0
	threads := make([]*Thread, lanes)
	for i := range threads {
		threads[i] = &Thread{ID: i, Lane: i, mem: m}
	}
	var ws warpStats
	var deferred []func()
	if staged {
		ws, deferred = runWarp(GTXTitan(), p, threads)
	} else {
		ws, deferred = execWarp(GTXTitan(), p, threads, nil)
	}
	p.snapshots = append(p.snapshots, hashBytes(0, m.Bytes(0, m.Size())))
	for _, fn := range deferred {
		fn()
	}
	return ws, m.Read(0, m.Size()), p.reads, p.snapshots
}

func TestStagedCommitMatchesWriteThrough(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		lanes := 1 + rng.Intn(32)
		p := genStageProg(rng, lanes, 1+rng.Intn(6))
		image := randBytes(rng, stageDiffMem)
		wantWS, wantMem, wantReads, wantSnaps := runStageProg(p, image, lanes, false)
		gotWS, gotMem, gotReads, gotSnaps := runStageProg(p, image, lanes, true)
		if gotWS != wantWS {
			t.Fatalf("seed %d: warpStats diverged:\n  write-through: %+v\n  staged:        %+v", seed, wantWS, gotWS)
		}
		if !slices.Equal(gotSnaps, wantSnaps) {
			t.Fatalf("seed %d: device memory diverged at a block boundary:\n  write-through: %x\n  staged:        %x", seed, wantSnaps, gotSnaps)
		}
		if !slices.Equal(gotReads, wantReads) {
			t.Fatalf("seed %d: a lane read different bytes:\n  write-through: %x\n  staged:        %x", seed, wantReads, gotReads)
		}
		if !bytes.Equal(gotMem, wantMem) {
			t.Fatalf("seed %d: final device memory diverged", seed)
		}
	}
}

// TestStagedCommitBatches checks the differential above is not vacuous:
// a full warp of column stores is staged whole and committed once, at
// the block boundary.
func TestStagedCommitBatches(t *testing.T) {
	const lanes, rows, words = 32, 64, 50
	m := mem.New(1 << 20)
	buf := m.Alloc(rows*words*WordSize, 256)
	stage := new(warpStage)
	staged := 0
	prog := FuncProgram{Label: "cols", Body: func(th *Thread) {
		StoreColumn(th, buf, th.ID, rows, 0, bytes.Repeat([]byte{byte(th.ID + 1)}, words*WordSize))
		staged = len(stage.recs)
	}}
	threads := make([]*Thread, lanes)
	for i := range threads {
		threads[i] = &Thread{ID: i, Lane: i, mem: m}
	}
	execWarp(GTXTitan(), prog, threads, stage)
	if staged != lanes {
		t.Fatalf("%d stores staged when the last lane finished, want %d", staged, lanes)
	}
	if len(stage.recs) != 0 || len(stage.payload) != 0 {
		t.Fatal("stage not empty after the block boundary")
	}
	for r := 0; r < lanes; r++ {
		for i := 0; i < words; i++ {
			got := m.Bytes(buf+mem.Addr((i*rows+r)*WordSize), WordSize)
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(r + 1)}, WordSize)) {
				t.Fatalf("word %d of column %d = %v", i, r, got)
			}
		}
	}
}

// TestStoreCopiesPayloadAtIssue: kernels render into pooled scratch and
// recycle it before the block ends, so a store must not keep a reference
// to its payload.
func TestStoreCopiesPayloadAtIssue(t *testing.T) {
	d := testDevice(t, GTXTitan())
	const n, rows, words = 64, 64, 33
	buf := d.Mem.Alloc(rows*(words+1)*WordSize, 256)
	scratch := make([]byte, words*WordSize+3) // one buffer shared by every lane of a warp
	prog := FuncProgram{Label: "reuse", Body: func(th *Thread) {
		for i := range scratch {
			scratch[i] = byte(th.ID + i)
		}
		StoreColumn(th, buf, th.ID, rows, 0, scratch) // words + a 3-byte tail Store
		for i := range scratch {
			scratch[i] = 0xEE
		}
	}}
	cfg := d.Cfg
	cfg.HostParallelism = 1 // lanes share scratch: keep the warps serial
	d.Cfg = cfg
	d.NewStream().Launch(prog, n, nil, nil)
	d.Engine().Run()
	for r := 0; r < n; r++ {
		col := LoadColumn(&Thread{mem: d.Mem}, buf, r, rows, (words+1)*WordSize)
		for i := 0; i < len(scratch); i++ {
			if col[i] != byte(r+i) {
				t.Fatalf("column %d byte %d = %#x, want %#x (payload read after the store returned)", r, i, col[i], byte(r+i))
			}
		}
	}
}

// TestChargeColumnPricesLikeStoreColumn: the price-only store records
// exactly the access a blank StoreColumn does and moves nothing.
func TestChargeColumnPricesLikeStoreColumn(t *testing.T) {
	const lanes, rows, n = 32, 128, 4096
	run := func(body func(th *Thread, buf mem.Addr)) (warpStats, []byte) {
		m := mem.New(1 << 20)
		buf := m.Alloc(rows*n, 256)
		for i, b := 0, m.Bytes(buf, rows*n); i < len(b); i++ {
			b[i] = 0xA5
		}
		threads := make([]*Thread, lanes)
		for i := range threads {
			threads[i] = &Thread{ID: i, Lane: i, mem: m}
		}
		ws, _ := runWarp(GTXTitan(), FuncProgram{Label: "p", Body: func(th *Thread) { body(th, buf) }}, threads)
		return ws, m.Read(buf, rows*n)
	}
	blankWS, _ := run(func(th *Thread, buf mem.Addr) { StoreColumn(th, buf, th.ID, rows, 0, make([]byte, n)) })
	priceWS, priceMem := run(func(th *Thread, buf mem.Addr) { ChargeColumn(th, buf, th.ID, rows, n) })
	if priceWS != blankWS {
		t.Fatalf("warpStats differ:\n  blank store: %+v\n  price only:  %+v", blankWS, priceWS)
	}
	if !bytes.Equal(priceMem, bytes.Repeat([]byte{0xA5}, rows*n)) {
		t.Fatal("ChargeColumn moved bytes")
	}
}
