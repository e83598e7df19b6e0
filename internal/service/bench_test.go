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

// BenchmarkStageKernelEmit times the launch that builds, renders and
// emits the pages: the final stage kernel of one full 128-lane cohort of
// a 16 KB class (banking transfer), on the host, per request. Binding
// and the stage-0 launch before it run off the clock; ns/req and B/req
// cover the final launch alone.
func BenchmarkStageKernelEmit(b *testing.B) {
	const lanes = 128
	w, local := bankingInput.w, int(banking.Transfer)
	if w.Def(local).BufferBytes != 16<<10 || w.Def(local).Backends != 1 {
		b.Fatal("want a 16 KB type with one backend stage")
	}
	wd := bankingWorld(b, local, lanes, nil)
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), deviceMem, nil)
	slot := w.NewSlot(dev, lanes, service.TitanB)
	stream := dev.NewStream()
	var ns, bytes int64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		unit := slot.Bind(local, wd.reqs, wd.sessions, wd.be)
		stream.Launch(unit.Stage(0), lanes, nil, nil)
		eng.Run()
		runtime.ReadMemStats(&ms)
		alloc, start := ms.TotalAlloc, time.Now()
		stream.Launch(unit.Stage(1), lanes, nil, nil)
		eng.Run()
		ns += int64(time.Since(start))
		runtime.ReadMemStats(&ms)
		bytes += int64(ms.TotalAlloc - alloc)
	}
	b.ReportMetric(float64(ns)/float64(b.N*lanes), "ns/req")
	b.ReportMetric(float64(bytes)/float64(b.N*lanes), "B/req")
}
