// Package gpufs models a GPUfs-style filesystem abstraction for the
// SIMT device (Silberstein et al., ASPLOS 2013 — the paper's reference
// [50]). The paper needs it for the two requests it leaves to future
// work: serving check_detail_images from the device and processing image
// cohorts without a host bounce (§5.1, §3.2 "GPU access to the file
// system (e.g., GPUfs) would enable dispatch execution on the device").
//
// The model has two tiers, like GPUfs's buffer cache:
//
//   - Resident files live in device memory; kernel reads are ordinary
//     coalesced device-memory loads.
//   - Non-resident files fault to the host: a read is staged through a
//     host I/O service modeled on the vector-interface SSD the paper
//     cites [55] (~1M IOPS), then DMA'd over the bus when one exists.
package gpufs

import (
	"fmt"

	"rhythm/internal/mem"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// FileID names an open resident file.
type FileID int

type fileEntry struct {
	path string
	addr mem.Addr
	size int
}

// FS is a device filesystem instance.
type FS struct {
	dev   *simt.Device
	eng   *sim.Engine
	ssd   *sim.Server
	ioLat sim.Time

	files  []fileEntry
	byPath map[string]FileID

	// Faults counts host-side reads (cache misses).
	Faults uint64
	// ResidentBytes is the device memory consumed by the cache.
	ResidentBytes int64
}

// Options configures the host I/O tier.
type Options struct {
	// SSDQueues is the number of parallel I/O channels (vector
	// interfaces expose many).
	SSDQueues int
	// SSDServiceTime is the per-read service time; 1 µs ≈ the 1M IOPS
	// store of [55].
	SSDServiceTime sim.Time
	// SSDLatency is the fixed completion latency added to each read.
	SSDLatency sim.Time
}

// DefaultOptions returns the vector-interface SSD of [55].
func DefaultOptions() Options {
	return Options{SSDQueues: 8, SSDServiceTime: 1_000, SSDLatency: 60_000}
}

// New builds a filesystem on dev.
func New(dev *simt.Device, opts Options) *FS {
	if opts.SSDQueues <= 0 {
		panic("gpufs: need at least one SSD queue")
	}
	return &FS{
		dev:    dev,
		eng:    dev.Engine(),
		ssd:    sim.NewServer(dev.Engine(), opts.SSDQueues),
		ioLat:  opts.SSDLatency,
		byPath: make(map[string]FileID),
	}
}

// Load makes a file resident: its contents are copied into device memory
// (GPUfs pre-populating its buffer cache) and kernels can read it with
// coalesced loads.
func (fs *FS) Load(path string, data []byte) FileID {
	if _, ok := fs.byPath[path]; ok {
		panic(fmt.Sprintf("gpufs: %q already resident", path))
	}
	addr := fs.dev.Mem.Alloc(len(data), 128)
	fs.dev.Mem.Write(addr, data)
	id := FileID(len(fs.files))
	fs.files = append(fs.files, fileEntry{path: path, addr: addr, size: len(data)})
	fs.byPath[path] = id
	fs.ResidentBytes += int64(len(data))
	return id
}

func (fs *FS) file(id FileID) fileEntry {
	if int(id) < 0 || int(id) >= len(fs.files) {
		panic(fmt.Sprintf("gpufs: bad file id %d", id))
	}
	return fs.files[id]
}

// ReadAt reads [off, off+n) of a resident file from within a kernel,
// charging the thread's coalesced device-memory traffic.
func (fs *FS) ReadAt(t *simt.Thread, id FileID, off, n int) []byte {
	f := fs.file(id)
	if off < 0 || n < 0 || off+n > f.size {
		panic(fmt.Sprintf("gpufs: read [%d,%d) beyond %q (%d bytes)", off, off+n, f.path, f.size))
	}
	return t.Load(f.addr+mem.Addr(off), n)
}

// HostRead is the fault path: the file is not resident, so the read goes
// to the host I/O tier and completes asynchronously. The device-side
// caller (the pipeline) treats it like any other host round trip.
func (fs *FS) HostRead(data []byte, done func([]byte)) {
	fs.Faults++
	fs.ssd.Submit(fs.ssdService(len(data)), func() {
		if fs.dev.Bus == nil {
			fs.eng.After(fs.ioLat, func() { done(data) })
			return
		}
		end := fs.dev.Bus.Transfer(len(data), nil)
		fs.eng.At(end+fs.ioLat, func() { done(data) })
	})
}

// ssdService prices one read: a 4 KB page per service slot.
func (fs *FS) ssdService(n int) sim.Time {
	pages := (n + 4095) / 4096
	if pages < 1 {
		pages = 1
	}
	return sim.Time(pages) * 1_000
}
