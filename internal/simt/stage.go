package simt

import (
	"sync"

	"rhythm/internal/mem"
)

// This file is the warp-batched column commit. A lane writing its column
// of a word-interleaved cohort buffer touches one cache line per word,
// and the warp's other lanes touch the same lines again, one lane later
// each; on the host that walk misses L1 on every word. So a warp's column
// stores are staged during a block — the payload is copied, because
// kernels hand StoreStrided pooled render scratch they recycle before the
// block ends — and committed in tiles of stageTile steps across the
// lanes, while the tile's destination lines are hot.
//
// Only the order in which bytes reach device memory changes, never the
// bytes: the access record is appended at issue exactly as before, so
// coalescing, pricing and every statistic are untouched, and a staged set
// is committed in an order that cannot be told from issue order. That
// holds because the set is kept provably lane-disjoint: all staged
// stores share one stride, every lane owns one word column modulo that
// stride, and columns are distinct (claimed in increasing order), so no
// byte is written by two lanes; each lane's own stores are committed in
// its issue order. A store that does not fit — another stride, another
// element size, a misaligned or column-crossing address — flushes what
// is staged and then either opens a new set or writes through. Reads
// (Load, LoadStrided, LoadConst, Mem) flush first, and runWarp flushes at
// every block boundary, so staged bytes are never observable as missing
// except through a *mem.Memory obtained before a later store of the same
// block (DESIGN.md §8).

// stageTile is the number of steps committed across the lanes at a time.
// 8 steps × 32 lanes is 16 destination cache lines, and 8 is as many as
// stay resident when they collide: cohort strides are powers of two, and
// at the offline simulator's 4 KB stride every step of a tile maps to the
// same two sets of an 8-way L1 (measured with BenchmarkStoreColumnWarp:
// 16 steps are 15 % faster at a 512 B stride and 2.2× slower at 4 KB).
const stageTile = 8

// stagedStore is one staged Store or StoreStrided.
type stagedStore struct {
	addr    mem.Addr
	off, n  int // payload offset and length
	strided bool
}

// warpStage is one warp's staged stores for the block in flight.
type warpStage struct {
	recs    []stagedStore
	payload []byte
	lanes   []int // index in recs of each staging lane's first store

	stride int      // the set's stride; 0 when nothing is staged
	phase  mem.Addr // the first staged address modulo stride
	owner  *Thread  // the lane staging now, owning column col
	col    int      // owner's word column, relative to phase
	next   int      // lowest column a new lane may claim

	group []stagedStore // flush scratch: one round's strided stores
}

// stagePool recycles warpStages across warps and launches, so staging
// buffers reach one warp's payload once per host worker and stay there.
var stagePool = sync.Pool{New: func() any { return new(warpStage) }}

// claim reports whether a store of n bytes at addr (elem and stride 0:
// a simple store) may join the staged set, recording the lane's column
// if so. An empty set is opened by any word-aligned strided word store.
func (s *warpStage) claim(t *Thread, addr mem.Addr, n, elem, stride int) bool {
	if stride != 0 && elem != WordSize {
		return false
	}
	if s.stride == 0 {
		if stride == 0 || stride%WordSize != 0 || addr%WordSize != 0 {
			return false
		}
		s.stride, s.phase = stride, addr%mem.Addr(stride)
		s.owner, s.col, s.next = t, 0, WordSize
		s.lanes = append(s.lanes, len(s.recs))
		return true
	}
	if stride != 0 && stride != s.stride {
		return false
	}
	res := int((addr + mem.Addr(s.stride) - s.phase) % mem.Addr(s.stride))
	col := res &^ (WordSize - 1)
	if stride != 0 && res != col || stride == 0 && res-col+n > WordSize {
		return false
	}
	if t == s.owner {
		return col == s.col
	}
	if col < s.next {
		return false
	}
	s.owner, s.col, s.next = t, col, col+WordSize
	s.lanes = append(s.lanes, len(s.recs))
	return true
}

// add stages the store if it can join (or, after a flush, open) a staged
// set. When it reports false nothing is staged any more and the caller
// writes through; a nil stage stages nothing.
func (s *warpStage) add(t *Thread, addr mem.Addr, p []byte, elem, stride int) bool {
	if s == nil {
		return false
	}
	if !s.claim(t, addr, len(p), elem, stride) {
		s.flush(t.mem)
		if !s.claim(t, addr, len(p), elem, stride) {
			return false
		}
	}
	s.recs = append(s.recs, stagedStore{addr: addr, off: len(s.payload), n: len(p), strided: stride != 0})
	s.payload = append(s.payload, p...)
	return true
}

// flush commits everything staged. Round j holds the j-th store of
// every lane, so a lane's stores land in its issue order; within a round
// the lanes' strided stores are scattered tile by tile.
func (s *warpStage) flush(m *mem.Memory) {
	if s == nil || len(s.recs) == 0 {
		return
	}
	data := m.Bytes(0, m.Size())
	for round := 0; ; round++ {
		s.group = s.group[:0]
		live := false
		for l, first := range s.lanes {
			end := len(s.recs)
			if l+1 < len(s.lanes) {
				end = s.lanes[l+1]
			}
			if first+round >= end {
				continue
			}
			live = true
			r := s.recs[first+round]
			if r.strided {
				s.group = append(s.group, r)
			} else {
				copy(data[r.addr:], s.payload[r.off:r.off+r.n])
			}
		}
		if !live {
			break
		}
		s.scatter(data)
	}
	s.recs, s.payload, s.lanes = s.recs[:0], s.payload[:0], s.lanes[:0]
	s.stride, s.owner = 0, nil
}

// scatter commits one round's strided stores, stageTile steps of every
// lane at a time.
func (s *warpStage) scatter(data []byte) {
	most := 0
	for _, r := range s.group {
		if r.n > most {
			most = r.n
		}
	}
	const tileBytes = stageTile * WordSize
	for lo := 0; lo < most; lo += tileBytes {
		for _, r := range s.group {
			if lo >= r.n {
				continue
			}
			hi := lo + tileBytes
			if hi > r.n {
				hi = r.n
			}
			mem.ScatterWords(data[int(r.addr)+lo/WordSize*s.stride:], s.payload[r.off+lo:r.off+hi], s.stride)
		}
	}
}
