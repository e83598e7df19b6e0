package cohort

import (
	"testing"
	"time"
)

// FuzzPoolLedger drives a pool of 1–4 contexts and 1–3 keys through a
// byte-chosen sequence of Add-or-park, Release, current and stale
// deadline fires, FlushOldest, FlushAll and Drain, and after every step
// checks the ledger:
//   - every request is launched exactly once, or is still held (forming
//     or parked), or was shed because the park was full;
//   - Free + PartiallyFull + Full/Busy contexts always equal n, and the
//     pool's free list and forming map agree with the context states;
//   - per key, requests launch in arrival order;
//   - a launched cohort never mixes keys.
//
// The first three bytes set the geometry: contexts, keys, cohort size, an
// early-launch advisor, and whether onReady sheds a cohort by releasing
// it at once (as the live server does when dispatch refuses it).
func FuzzPoolLedger(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 8, 16, 3, 4, 5, 6, 7})
	f.Add([]byte{3, 2, 3, 1, 0, 8, 16, 1, 9, 17, 4, 3, 11, 5, 6, 0, 7, 15})
	f.Add([]byte{1, 1, 1, 2, 0, 8, 0, 8, 0, 8, 3, 3, 4, 5, 15, 0, 8, 3})
	f.Add([]byte{2, 2, 0, 3, 0, 1, 2, 8, 9, 10, 4, 4, 5, 5, 3, 11, 3, 6, 7, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		n, keys, size := 1+int(ops[0]%4), 1+int(ops[1]%3), 1+int(ops[2]%4)
		advise, shedInline := ops[0]&4 != 0, ops[1]&4 != 0
		const parkLimit = 6
		ops = ops[3:]

		clk := &fakeClock{}
		state := map[int]int{} // request id → held, launched or shed
		nHeld := 0
		lastLaunched := map[int]int{}
		var busy []*Context[int, ledgerReq]
		var p *Pool[int, ledgerReq]
		var advisor func(*Context[int, ledgerReq]) bool
		if advise {
			advisor = func(c *Context[int, ledgerReq]) bool { return c.Len() >= 2 }
		}
		// Key 0 arms no deadline; keys 1 and 2 have windows of 1 and 2.
		p = NewPool(clk, n, size, func(k int) time.Duration { return time.Duration(k) }, advisor,
			func(c *Context[int, ledgerReq], _ Reason) {
				for _, r := range c.Requests() {
					if r.key != c.Key {
						t.Fatalf("cohort for key %d holds request %d of key %d", c.Key, r.id, r.key)
					}
					if state[r.id] != held {
						t.Fatalf("request %d launched in state %d", r.id, state[r.id])
					}
					if last, ok := lastLaunched[r.key]; ok && r.id < last {
						t.Fatalf("key %d launched request %d after %d", r.key, r.id, last)
					}
					state[r.id] = launched
					nHeld--
					lastLaunched[r.key] = r.id
				}
				c.MarkBusy()
				if shedInline && c.Len()%2 == 1 {
					p.Release(c)
					return
				}
				busy = append(busy, c)
			})
		next := 0
		for _, op := range ops {
			arg := int(op >> 3)
			switch op % 8 {
			case 0, 1, 2:
				r := ledgerReq{next, arg % keys}
				next++
				state[r.id] = held
				nHeld++
				if !p.Add(r.key, r) {
					if p.Parked() < parkLimit {
						p.Park(r.key, r)
					} else {
						state[r.id] = shed
						nHeld--
					}
				}
			case 3:
				if len(busy) > 0 {
					i := arg % len(busy)
					c := busy[i]
					busy = append(busy[:i], busy[i+1:]...)
					p.Release(c)
				}
			case 4, 5:
				// 4 fires a deadline still armed, 5 one already stopped.
				stale := op%8 == 5
				var cands []*fakeDeadline
				for _, dl := range clk.deadlines {
					if !dl.fired && dl.stopped == stale {
						cands = append(cands, dl)
					}
				}
				if len(cands) > 0 {
					dl := cands[arg%len(cands)]
					before := p.stats.Formed
					clk.fire(dl)
					if stale && p.stats.Formed != before {
						t.Fatal("a stale deadline launched a cohort")
					}
				}
			case 6:
				p.FlushOldest()
			case 7:
				if arg%2 == 0 {
					p.FlushAll()
				} else {
					p.Drain()
				}
			}
			checkLedger(t, p, n, state, nHeld)
		}
	})
}

type ledgerReq struct{ id, key int }

// A request's ledger state.
const (
	held = iota + 1
	launched
	shed
)

// checkLedger holds the pool to the ledger: each request the pool holds
// is held there once and is in ledger state held, and the pool holds
// every one of the nHeld such requests.
func checkLedger(t *testing.T, p *Pool[int, ledgerReq], n int, state map[int]int, nHeld int) {
	t.Helper()
	var counts [Busy + 1]int
	inPool := map[int]bool{}
	hold := func(r ledgerReq) {
		if inPool[r.id] || state[r.id] != held {
			t.Fatalf("request %d held twice or in ledger state %d", r.id, state[r.id])
		}
		inPool[r.id] = true
	}
	for _, c := range p.contexts {
		counts[c.state]++
		if c.state == PartiallyFull {
			for _, r := range c.Requests() {
				hold(r)
			}
		}
	}
	for _, e := range p.parked {
		hold(e.req)
	}
	if counts[Free]+counts[PartiallyFull]+counts[Full]+counts[Busy] != n {
		t.Fatalf("context states %v do not add up to %d", counts, n)
	}
	if counts[Free] != len(p.free) || counts[PartiallyFull] != len(p.open) {
		t.Fatalf("states %v, free list %d, forming %d", counts, len(p.free), len(p.open))
	}
	if len(inPool) != nHeld {
		t.Fatalf("the pool holds %d requests, the ledger %d", len(inPool), nHeld)
	}
}
