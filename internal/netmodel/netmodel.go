// Package netmodel provides the analytic bandwidth and capacity bounds
// the paper derives in Fig 9 (PCIe 3.0 limits on Titan A) and §6.3
// (network bandwidth and device-memory requirements).
package netmodel

import (
	"rhythm/internal/backend"
	"rhythm/internal/banking"
)

// Usable interconnect bandwidths, bytes/sec.
const (
	// PCIe3Bps is the paper's usable PCIe 3.0 x16 bandwidth ("peak
	// bandwidth (12GB/s)", §6.1.1).
	PCIe3Bps = 12e9
	// PCIe4Bps doubles it ("PCIe 4.0 standard, which doubles usable
	// bandwidth to 24 GB/s", §6.1.1).
	PCIe4Bps = 24e9
)

// BusBytesPerRequest reports the bytes one request of type t moves over
// the PCIe bus on Titan A: the request slot in, each backend round trip
// (request out, response in), and the padded response buffer out —
// the accounting of §6.1.1.
func BusBytesPerRequest(t banking.ReqType) int {
	s := banking.SpecFor(t)
	return banking.RequestSlot +
		s.Backends*(backend.RequestSlot+backend.ResponseSlot) +
		s.BufferBytes()
}

// PCIeBound reports the PCIe-limited throughput (reqs/sec) for type t at
// the given bus bandwidth — the "throughput bound" series of Fig 9.
func PCIeBound(t banking.ReqType, busBps float64) float64 {
	return busBps / float64(BusBytesPerRequest(t))
}

// NetworkBytesPerRequest reports the bytes one average request moves over
// the network: the request in, the backend round trips (a remote
// backend), and the meaningful (SPECWeb-sized) response content out —
// the accounting behind §6.3's 67/258/517 Gbps figures.
func NetworkBytesPerRequest() float64 {
	return float64(banking.RequestSlot) +
		banking.AvgBackends()*float64(backend.RequestSlot+backend.ResponseSlot) +
		banking.AvgContentBytes()
}

// NetworkGbps reports the network bandwidth (Gbit/s) a server consumes at
// the given throughput (reqs/sec).
func NetworkGbps(throughput float64) float64 {
	return throughput * NetworkBytesPerRequest() * 8 / 1e9
}

// CompressedGbps applies an HTML compression ratio (the paper cites >80%
// compression [37]) to the stream, using the paper's arithmetic — the
// whole bandwidth scales by (1-ratio), which is how §6.3 lands Titan C
// on a 100 Gbps link (517 × 0.2 ≈ 103).
func CompressedGbps(throughput, ratio float64) float64 {
	if ratio < 0 || ratio >= 1 {
		panic("netmodel: compression ratio must be in [0,1)")
	}
	return NetworkGbps(throughput) * (1 - ratio)
}

// SessionMemory reports the device bytes a session array needs (§6.3:
// 16M live sessions in a 64M-slot array at 40 B/slot ≈ 2.5 GB).
func SessionMemory(slots int64) int64 { return slots * 40 }

// MaxCohortsInFlight reports how many cohorts of type t and the given
// size fit in deviceBytes once the session array is resident — the §6.3
// constraint that limits the paper to 8 in-flight cohorts of 4096.
func MaxCohortsInFlight(deviceBytes, sessionSlots int64, t banking.ReqType, cohortSize int) int {
	free := deviceBytes - SessionMemory(sessionSlots)
	if free <= 0 {
		return 0
	}
	per := banking.CohortDeviceBytes(t, cohortSize)
	return int(free / per)
}
