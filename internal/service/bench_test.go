package service_test

import (
	"runtime"
	"testing"
	"time"

	"rhythm/internal/banking"
	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// BenchmarkStageKernelEmit times the launch that builds the pages and
// prices their emission: the final stage kernel of one full 128-lane
// cohort of a 16 KB class (banking transfer), on the host, per request.
// Binding and the stage-0 launch before it run off the clock; ns/req,
// B/req and allocs/req cover the final launch alone. The kernel renders
// nothing, so the 16 KB row a request's response costs when it is read
// is BenchmarkBindAndResponses' to report.
func BenchmarkStageKernelEmit(b *testing.B) {
	benchmarkCohort(b, false)
}

// BenchmarkBindAndResponses times the egress around the launches, per
// request: Bind, and Responses after the final kernel, which renders
// every page into a fresh class-sized row on the device's host workers.
func BenchmarkBindAndResponses(b *testing.B) {
	benchmarkCohort(b, true)
}

// benchmarkCohort runs b.N transfer cohorts on one slot and meters the
// final launch, or with egress Bind and Responses in its place.
func benchmarkCohort(b *testing.B, egress bool) {
	const lanes = 128
	w, local := bankingInput.w, int(banking.Transfer)
	if w.Def(local).BufferBytes != 16<<10 || w.Def(local).Backends != 1 {
		b.Fatal("want a 16 KB type with one backend stage")
	}
	wd := bankingWorld(b, local, lanes, nil)
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), deviceMem, nil)
	slot := w.NewSlot(dev, lanes, service.Live)
	stream := dev.NewStream()
	var ns time.Duration
	var bytes, allocs uint64
	var ms runtime.MemStats
	// metered runs f, on the clock and the allocation meters when on.
	metered := func(on bool, f func()) {
		if !on {
			f()
			return
		}
		runtime.ReadMemStats(&ms)
		alloc, mallocs, start := ms.TotalAlloc, ms.Mallocs, time.Now()
		f()
		ns += time.Since(start)
		runtime.ReadMemStats(&ms)
		bytes += ms.TotalAlloc - alloc
		allocs += ms.Mallocs - mallocs
	}
	for i := 0; i < b.N; i++ {
		var unit *service.PageUnit
		metered(egress, func() { unit = slot.Bind(local, wd.reqs, wd.sessions, wd.be) })
		stream.Launch(unit.Stage(0), lanes, nil)
		eng.Run()
		metered(!egress, func() {
			stream.Launch(unit.Stage(1), lanes, nil)
			eng.Run()
		})
		if egress {
			metered(true, func() { sink = unit.Responses() })
		}
	}
	n := float64(b.N * lanes)
	b.ReportMetric(float64(ns)/n, "ns/req")
	b.ReportMetric(float64(bytes)/n, "B/req")
	b.ReportMetric(float64(allocs)/n, "allocs/req")
}

// sink keeps the benchmarked Responses call from being optimized away.
var sink [][]byte
