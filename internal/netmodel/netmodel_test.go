package netmodel

import (
	"math"
	"testing"

	"rhythm/internal/banking"
)

func TestBusBytesPerRequest(t *testing.T) {
	// login: 512 request + 2×(1K+4K) backend + 8K response.
	want := 512 + 2*(1024+4096) + 8*1024
	if got := BusBytesPerRequest(banking.Login); got != want {
		t.Fatalf("login bus bytes = %d, want %d", got, want)
	}
	// logout has no backend round trips.
	want = 512 + 64*1024
	if got := BusBytesPerRequest(banking.Logout); got != want {
		t.Fatalf("logout bus bytes = %d, want %d", got, want)
	}
}

func TestPCIeBoundMagnitude(t *testing.T) {
	// Paper §6.1.1: Titan A is bounded to roughly 400K reqs/s overall on
	// PCIe 3.0; per-type bounds must bracket that.
	var lo, hi float64 = math.Inf(1), 0
	for rt := banking.ReqType(0); rt < banking.NumTypes; rt++ {
		b := PCIeBound(rt, PCIe3Bps)
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	if lo < 100e3 || hi > 2.5e6 {
		t.Fatalf("per-type PCIe bounds [%.0f, %.0f] out of plausible range", lo, hi)
	}
	// Smaller responses → higher bound.
	if PCIeBound(banking.Login, PCIe3Bps) <= PCIeBound(banking.Logout, PCIe3Bps) {
		t.Fatal("login (8K) should have a higher PCIe bound than logout (64K)")
	}
	// PCIe 4.0 doubles every bound.
	r := PCIeBound(banking.Transfer, PCIe4Bps) / PCIeBound(banking.Transfer, PCIe3Bps)
	if math.Abs(r-2) > 1e-9 {
		t.Fatalf("PCIe4/PCIe3 = %v, want 2", r)
	}
}

func TestNetworkGbpsMatchesPaperShape(t *testing.T) {
	// §6.3: Titan A at 398K reqs/s needs ~67 Gbps; Titan B at 1.535M
	// ~258 Gbps; Titan C at 3.082M ~517 Gbps. Allow 15% slack: our mix
	// averages differ in the decimals.
	cases := []struct {
		tput float64
		want float64
	}{
		{398e3, 67}, {1535e3, 258}, {3082e3, 517},
	}
	for _, c := range cases {
		got := NetworkGbps(c.tput)
		if math.Abs(got-c.want)/c.want > 0.15 {
			t.Errorf("NetworkGbps(%.0f) = %.1f, want ~%.0f", c.tput, got, c.want)
		}
	}
}

func TestCompressionBringsTitanCNear100G(t *testing.T) {
	// §6.3: with 80% compression Titan C operates on a 100 Gbps link
	// (paper arithmetic: 517 × 0.2 ≈ 103).
	got := CompressedGbps(3082e3, 0.8)
	if got > 115 {
		t.Fatalf("compressed Titan C bandwidth = %.1f Gbps, want ~100", got)
	}
	if CompressedGbps(3082e3, 0) != NetworkGbps(3082e3) {
		t.Fatal("zero compression should be identity")
	}
}

func TestCompressedGbpsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ratio 1 did not panic")
		}
	}()
	CompressedGbps(1000, 1)
}

func TestSessionMemoryPaperNumbers(t *testing.T) {
	// §6.3: 16M sessions → 640 MB; 64M-slot array → 2.5 GB.
	if got := SessionMemory(16 << 20); got != 640<<20 {
		t.Fatalf("16M sessions = %d bytes, want 640 MB", got)
	}
	if got := SessionMemory(64 << 20); got != 2560<<20 {
		t.Fatalf("64M slots = %d bytes, want 2.5 GB", got)
	}
}

func TestMaxCohortsInFlightPaperScale(t *testing.T) {
	// §6.3: on a 6 GB Titan with the 64M-slot session array, about 8
	// cohorts of 4096 fit. Our buffers differ slightly (we also stage
	// backend rows), so accept 4-12.
	got := MaxCohortsInFlight(6<<30, 64<<20, banking.AccountSummary, 4096)
	if got < 4 || got > 12 {
		t.Fatalf("cohorts in flight = %d, want 4..12", got)
	}
	if MaxCohortsInFlight(1<<30, 64<<20, banking.AccountSummary, 4096) != 0 {
		t.Fatal("session array alone should exhaust 1 GB")
	}
}
