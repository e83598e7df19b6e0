package main

import (
	"bytes"
	"reflect"
	"testing"

	"rhythm/internal/session"
)

func sameEntries(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !bytes.Equal(x.raw, y.raw) || x.cookieOff != y.cookieOff || x.slot != y.slot ||
			x.kind != y.kind || x.typ != y.typ || x.write != y.write {
			return false
		}
	}
	return true
}

// The seed drives every generator: the same seed yields a byte-identical
// corpus, another seed a different one.
func TestCorpusDeterministic(t *testing.T) {
	reg := defaultRegistry()
	for name, tr := range map[string]traffic{
		"mixed":  mixedTraffic(reg),
		"cached": cachedTraffic(reg, 128, 0.02),
		"units":  hostUnitTraffic(reg),
	} {
		a := newCorpusGen(reg, tr, 42, 1).build(1000)
		b := newCorpusGen(reg, tr, 42, 1).build(1000)
		if !reflect.DeepEqual(a.uids, b.uids) || !sameEntries(a.setup, b.setup) || !sameEntries(a.loop, b.loop) {
			t.Errorf("%s: the same seed gave two different corpora", name)
		}
		c := newCorpusGen(reg, tr, 43, 1).build(1000)
		if sameEntries(a.loop, c.loop) {
			t.Errorf("%s: seeds 42 and 43 gave the same loop", name)
		}
		d := newCorpusGen(reg, tr, 42, 0).build(1000)
		for _, u := range d.uids {
			for _, v := range a.uids {
				if u == v {
					t.Fatalf("%s: clients 0 and 1 share user %d", name, u)
				}
			}
		}
	}
}

func TestUnitListDeterministic(t *testing.T) {
	reg := defaultRegistry()
	a, err := buildUnitCorpus(reg, 7, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildUnitCorpus(reg, 7, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.loop, b.loop) || !reflect.DeepEqual(a.setup, b.setup) {
		t.Error("the same seed gave two different unit lists")
	}
	for _, e := range a.setup {
		var uid uint64
		for _, p := range e.req.Params {
			if p.Key == "userid" {
				for _, ch := range p.Value {
					uid = uid*10 + uint64(ch-'0')
				}
			}
		}
		if g := session.BucketFor(uid, sessionBuckets) % hostUnitGroups; g != 1 {
			t.Fatalf("user %d of group 1's corpus lives in group %d", uid, g)
		}
	}

	s1 := satPhases(reg, 7, session.NewArray(sessionBuckets, 1028))
	s2 := satPhases(reg, 7, session.NewArray(sessionBuckets, 1028))
	if !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed gave two different device_saturated rounds")
	}
	n := 0
	for _, ph := range s1 {
		for _, p := range ph {
			n++
			if len(p.reqs) != satCohort {
				t.Errorf("unit of %d requests, want full cohorts of %d", len(p.reqs), satCohort)
			}
		}
	}
	if n != satRoundUnits {
		t.Errorf("%d units per round, want %d", n, satRoundUnits)
	}
}

// Cycling the loop must be consistent: every prefix draws only on
// logged-in slots, and the loop ends with every slot logged in again.
func TestCorpusSlotLifecycle(t *testing.T) {
	reg := defaultRegistry()
	cor := newCorpusGen(reg, mixedTraffic(reg), 5, 0).build(3000)
	if len(cor.setup) != len(cor.uids)+1 {
		t.Fatalf("set-up has %d entries for %d users and one telemetry stream", len(cor.setup), len(cor.uids))
	}
	out := make([]bool, len(cor.uids))
	logouts := 0
	types := make(map[int]bool)
	for i, e := range cor.loop {
		types[int(e.typ)] = true
		switch {
		case e.kind == kindLogin:
			out[e.slot] = false
		case e.cookieOff >= 0 && out[e.slot]:
			t.Fatalf("entry %d uses slot %d after its logout", i, e.slot)
		}
		if e.kind == kindLogout {
			out[e.slot] = true
			logouts++
		}
		if e.cookieOff >= 0 && !bytes.HasPrefix(e.raw[e.cookieOff-len(cookiePrefix):], []byte(cookiePrefix)) {
			t.Fatalf("entry %d: cookie offset %d does not follow %q", i, e.cookieOff, cookiePrefix)
		}
	}
	for s, o := range out {
		if o {
			t.Errorf("slot %d is logged out at the end of the loop", s)
		}
	}
	if logouts == 0 {
		t.Error("a Table 2 loop of 3000 requests has no logout")
	}
	// 14 banking types with weight, 4 ecom reads, 4 telemetry types.
	if len(types) != 22 {
		t.Errorf("loop covers %d request types, want 22", len(types))
	}
}

func TestSpreadUIDs(t *testing.T) {
	uids := spreadUIDs(9, 1, 512, func(s int) int { return s % sessionBuckets })
	seen := make(map[uint64]bool)
	for s, uid := range uids {
		if seen[uid] {
			t.Fatalf("user %d picked twice", uid)
		}
		seen[uid] = true
		if b := session.BucketFor(uid, sessionBuckets); b != s%sessionBuckets {
			t.Fatalf("slot %d: user %d lands in bucket %d", s, uid, b)
		}
	}
}
