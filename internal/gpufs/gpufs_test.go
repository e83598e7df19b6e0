package gpufs

import (
	"bytes"
	"testing"

	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

func testFS(t *testing.T) (*FS, *simt.Device, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 16<<20, nil)
	return New(dev, DefaultOptions()), dev, eng
}

func TestLoadOpenRead(t *testing.T) {
	fs, dev, eng := testFS(t)
	content := bytes.Repeat([]byte("check-image-scanline."), 100)
	id := fs.Load("/checks/0001.gif", content)
	if fs.ResidentBytes != int64(len(content)) {
		t.Fatalf("ResidentBytes = %d", fs.ResidentBytes)
	}

	// Kernel-side read: every thread reads a distinct 21-byte record.
	var fail bool
	dev.NewStream().Launch(simt.FuncProgram{Label: "read", Body: func(th *simt.Thread) {
		rec := fs.ReadAt(th, id, th.ID*21, 21)
		if string(rec) != "check-image-scanline." {
			fail = true
		}
	}}, 32, nil)
	eng.Run()
	if fail {
		t.Fatal("kernel read wrong bytes")
	}
	if fs.Faults != 0 {
		t.Fatalf("resident reads faulted: %d", fs.Faults)
	}
}

func TestDoubleLoadPanics(t *testing.T) {
	fs, _, _ := testFS(t)
	fs.Load("/a", []byte("x"))
	defer func() {
		if recover() == nil {
			t.Error("double Load did not panic")
		}
	}()
	fs.Load("/a", []byte("y"))
}

// TestOpenMissing: a file id no Load returned names no resident file,
// and a kernel read of it panics instead of reading stray memory.
func TestOpenMissing(t *testing.T) {
	fs, dev, eng := testFS(t)
	fs.Load("/a", make([]byte, 64))
	defer func() {
		if recover() == nil {
			t.Error("read of a missing file did not panic")
		}
	}()
	dev.NewStream().Launch(simt.FuncProgram{Label: "missing", Body: func(th *simt.Thread) {
		fs.ReadAt(th, FileID(1), 0, 1)
	}}, 1, nil)
	eng.Run()
}

func TestReadBeyondEOFPanics(t *testing.T) {
	fs, dev, eng := testFS(t)
	id := fs.Load("/a", make([]byte, 64))
	defer func() {
		if recover() == nil {
			t.Error("OOB read did not panic")
		}
	}()
	dev.NewStream().Launch(simt.FuncProgram{Label: "oob", Body: func(th *simt.Thread) {
		fs.ReadAt(th, id, 60, 10)
	}}, 1, nil)
	eng.Run()
}

func TestHostReadFaultPath(t *testing.T) {
	eng := sim.NewEngine()
	bus := sim.NewPipe(eng, 12e9, 1000)
	dev := simt.NewDevice(eng, simt.GTXTitan(), 1<<20, bus)
	fs := New(dev, DefaultOptions())

	data := make([]byte, 12<<10)
	var gotAt sim.Time
	var got []byte
	fs.HostRead(data, func(d []byte) {
		got = d
		gotAt = eng.Now()
	})
	eng.Run()
	if len(got) != len(data) {
		t.Fatal("fault read returned wrong data")
	}
	// Must pay SSD service (3 pages) + latency + bus transfer.
	min := sim.Time(3_000) + DefaultOptions().SSDLatency
	if gotAt < min {
		t.Fatalf("fault completed at %v, want >= %v", gotAt, min)
	}
	if fs.Faults != 1 {
		t.Fatalf("Faults = %d", fs.Faults)
	}
}

func TestHostReadQueuesOnSSD(t *testing.T) {
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 1<<20, nil)
	opts := DefaultOptions()
	opts.SSDQueues = 1
	opts.SSDLatency = 0
	fs := New(dev, opts)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		fs.HostRead(make([]byte, 4096), func([]byte) { done = append(done, eng.Now()) })
	}
	eng.Run()
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	if done[2] != 3*1000 {
		t.Fatalf("serialized reads finished at %v, want 3µs", done[2])
	}
}
