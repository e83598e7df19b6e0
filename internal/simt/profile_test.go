package simt

import (
	"testing"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
)

// launchN runs n one-warp kernel launches on a fresh device configured
// with the given ring size and returns the device.
func launchN(t *testing.T, ring, n int) *Device {
	t.Helper()
	cfg := GTXTitan()
	cfg.ProfileRing = ring
	eng := sim.NewEngine()
	dev := NewDevice(eng, cfg, 1<<20, nil)
	base := dev.Mem.Alloc(4096, 256)
	st := dev.NewStream()
	for i := 0; i < n; i++ {
		st.Launch(FuncProgram{"k", func(th *Thread) {
			th.Compute(10)
			th.Store(base+mem.Addr(4*th.Lane), []byte{1, 2, 3, 4})
		}}, 32, nil)
	}
	eng.Run()
	return dev
}

func TestProfileRingWrap(t *testing.T) {
	const ring, launches = 8, 21
	dev := launchN(t, ring, launches)
	if got := dev.ProfiledLaunches(); got != launches {
		t.Fatalf("ProfiledLaunches = %d, want %d", got, launches)
	}
	recs := dev.Profile()
	if len(recs) != ring {
		t.Fatalf("Profile kept %d records, want ring size %d", len(recs), ring)
	}
	// The ring must hold the newest `ring` records in sequence order.
	for i, r := range recs {
		want := uint64(launches - ring + i + 1)
		if r.Seq != want {
			t.Fatalf("recs[%d].Seq = %d, want %d", i, r.Seq, want)
		}
		if r.Kernel != "k" {
			t.Fatalf("recs[%d].Kernel = %q", i, r.Kernel)
		}
		if r.End <= r.Start {
			t.Fatalf("recs[%d]: End %d <= Start %d", i, r.End, r.Start)
		}
	}
}

func TestProfileUnderfilledRing(t *testing.T) {
	dev := launchN(t, 16, 3)
	recs := dev.Profile()
	if len(recs) != 3 {
		t.Fatalf("Profile kept %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("recs[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
}

func TestProfileOff(t *testing.T) {
	cfg := GTXTitan()
	cfg.ProfileOff = true
	eng := sim.NewEngine()
	dev := NewDevice(eng, cfg, 1<<20, nil)
	var seq uint64 = 99
	dev.NewStream().Launch(FuncProgram{"k", func(th *Thread) { th.Compute(1) }}, 32,
		func(st LaunchStats) { seq = st.Seq })
	eng.Run()
	if dev.Profile() != nil {
		t.Fatal("Profile() should be nil with ProfileOff")
	}
	if dev.ProfiledLaunches() != 0 {
		t.Fatalf("ProfiledLaunches = %d, want 0", dev.ProfiledLaunches())
	}
	if seq != 0 {
		t.Fatalf("LaunchStats.Seq = %d, want 0 when profiling is off", seq)
	}
}

// TestProfileRecordCounters checks a launch record carries the same
// counters as its LaunchStats and a sane ideal-coalescing floor.
func TestProfileRecordCounters(t *testing.T) {
	cfg := GTXTitan()
	eng := sim.NewEngine()
	dev := NewDevice(eng, cfg, 1<<20, nil)
	base := dev.Mem.Alloc(1<<16, 256)
	var st LaunchStats
	// Strided 4 B stores per lane at 4 KB stride: terrible coalescing —
	// every lane access is its own transaction, while the ideal floor is
	// the requested bytes over the segment size.
	dev.NewStream().Launch(FuncProgram{"strided", func(th *Thread) {
		th.Store(base+mem.Addr(4096*th.Lane), []byte{1, 2, 3, 4})
	}}, 16, func(s LaunchStats) { st = s })
	eng.Run()

	recs := dev.Profile()
	if len(recs) != 1 {
		t.Fatalf("Profile len = %d, want 1", len(recs))
	}
	r := recs[0]
	if st.Seq != r.Seq || st.Seq != 1 {
		t.Fatalf("Seq mismatch: stats %d, record %d", st.Seq, r.Seq)
	}
	if r.Transactions != st.Transactions || r.IdealTransactions != st.IdealTxns {
		t.Fatalf("record txns (%d/%d) != stats (%d/%d)",
			r.Transactions, r.IdealTransactions, st.Transactions, st.IdealTxns)
	}
	if r.Transactions != 16 {
		t.Fatalf("Transactions = %d, want 16 (one per 4 KB-strided lane)", r.Transactions)
	}
	// 16 lanes × 4 B = 64 B requested: one 128 B segment would suffice.
	if r.IdealTransactions != 1 {
		t.Fatalf("IdealTransactions = %d, want 1", r.IdealTransactions)
	}
	if r.Occupancy <= 0 || r.Occupancy > 1 {
		t.Fatalf("Occupancy = %v out of (0,1]", r.Occupancy)
	}
	if r.EnergyJ <= 0 {
		t.Fatalf("EnergyJ = %v, want > 0 for the Titan power model", r.EnergyJ)
	}
	ds := dev.Stats()
	if ds.IdealTxns != r.IdealTransactions || ds.EnergyJ != r.EnergyJ {
		t.Fatalf("DeviceStats (ideal %d, energy %v) disagrees with record (%d, %v)",
			ds.IdealTxns, ds.EnergyJ, r.IdealTransactions, r.EnergyJ)
	}
}

// TestProfileTransposeRecorded checks transposes land in the ring as
// full-occupancy memory-bound records (the §6.1.2 pipeline bubbles).
func TestProfileTransposeRecorded(t *testing.T) {
	cfg := GTXTitan()
	eng := sim.NewEngine()
	dev := NewDevice(eng, cfg, 1<<20, nil)
	src := dev.Mem.Alloc(64*64*4, 256)
	dst := dev.Mem.Alloc(64*64*4, 256)
	dev.NewStream().Transpose(dst, src, 64, 64, 4, nil)
	eng.Run()
	recs := dev.Profile()
	if len(recs) != 1 {
		t.Fatalf("Profile len = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Kernel != "transpose" || r.Occupancy != 1 || r.MemBytes == 0 {
		t.Fatalf("unexpected transpose record %+v", r)
	}
}

// TestProfileRecordNoAllocs proves the recording hot path allocates
// nothing: a ring add is a mutex acquisition plus a struct copy.
func TestProfileRecordNoAllocs(t *testing.T) {
	ring := newLaunchRing(64)
	rec := LaunchRecord{Kernel: "k", Threads: 128, Warps: 4}
	allocs := testing.AllocsPerRun(1000, func() {
		ring.add(rec)
	})
	if allocs != 0 {
		t.Fatalf("launchRing.add allocates %v objects/op, want 0", allocs)
	}
}
