package harness

import (
	"fmt"

	"rhythm/internal/gpufs"
	"rhythm/internal/mem"
	"rhythm/internal/netmodel"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// The check_detail_images request is the one the paper could not run on
// the GPU: "check detail images is completely disk bound, requiring
// GPUfs integration to allow us to process it on the GPU. We plan to
// address both these requests in future work" (§5.1). This study
// implements that future work on the model: the cleared-check images
// live in a GPUfs-style device-resident cache and a cohort kernel serves
// them; the baseline faults every image from the host SSD.

// checkImageCount is the distinct cleared-check image files on disk.
const checkImageCount = 64

// checkImageBytes is one check scan (front+back composite GIF).
const checkImageBytes = 11 << 10

// checkImageHeader is the fixed response header for an image response.
var checkImageHeader = fmt.Sprintf(
	"HTTP/1.1 200 OK\r\nContent-Type: image/gif\r\nConnection: keep-alive\r\nContent-Length: %10d\r\n\r\n",
	checkImageBytes)

// CheckImagesResult compares device-resident (GPUfs) serving against
// host-faulted serving.
type CheckImagesResult struct {
	CohortSize int
	// GPUFs is the device-resident path's throughput (reqs/sec).
	GPUFs float64
	// HostFS is the fault-every-request path's throughput.
	HostFS float64
	// Faults counts host reads in the HostFS run.
	Faults uint64
}

// CheckImagesStudy runs both configurations over the same request count.
func CheckImagesStudy(cfg Config) CheckImagesResult {
	cohorts := cfg.GPUCohortsPerType
	if cohorts < 2 {
		cohorts = 2
	}
	res := CheckImagesResult{CohortSize: cfg.CohortSize}
	res.GPUFs = runCheckImages(cfg.CohortSize, cohorts, true, nil)
	res.HostFS = runCheckImages(cfg.CohortSize, cohorts, false, &res.Faults)
	return res
}

// checkImageKernel serves one cohort: thread r reads its check image
// from the resident cache and emits header+bytes column-major.
type checkImageKernel struct {
	fs      *gpufs.FS
	ids     []gpufs.FileID // file per request
	respCol mem.Addr
	size    int // cohort slots
	buf     int // response buffer bytes per request
}

func (checkImageKernel) Name() string        { return "check_detail_images" }
func (checkImageKernel) Entry() simt.BlockID { return 0 }

func (k checkImageKernel) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	switch b {
	case 0: // parse + session check (small fixed cost)
		t.Compute(1200)
		return 1
	case 1: // read the image from the GPUfs cache and emit the response
		img := k.fs.ReadAt(t, k.ids[t.ID], 0, checkImageBytes)
		resp := make([]byte, k.buf)
		n := copy(resp, checkImageHeader)
		copy(resp[n:], img)
		t.Compute(len(resp) / 16) // emission loop
		stride := 4 * k.size
		t.StoreStrided(k.respCol+mem.Addr(4*t.ID), resp, 4, stride)
		return simt.Halt
	}
	panic("bad block")
}

func runCheckImages(size, cohorts int, resident bool, faults *uint64) float64 {
	eng := sim.NewEngine()
	bufBytes := 16 << 10 // header + 11 KB image, padded class
	memBytes := 2*size*bufBytes + checkImageCount*checkImageBytes + size*checkImageBytes + 32<<20
	var bus *sim.Pipe
	if !resident {
		bus = sim.NewPipe(eng, netmodel.PCIe3Bps, 1000)
	}
	dev := simt.NewDevice(eng, simt.GTXTitan(), memBytes, bus)
	fs := gpufs.New(dev, gpufs.DefaultOptions())

	// The 64 check scans; resident mode pre-populates the device cache.
	images := make([][]byte, checkImageCount)
	var ids []gpufs.FileID
	for i := range images {
		img := make([]byte, checkImageBytes)
		copy(img, "GIF89a")
		for j := 8; j < len(img); j++ {
			img[j] = byte(i*31 + j)
		}
		img[len(img)-1] = 0x3B
		images[i] = img
		if resident {
			ids = append(ids, fs.Load(fmt.Sprintf("/checks/%04d.gif", i), img))
		}
	}
	respCol := dev.Mem.Alloc(size*bufBytes, 256)
	respRow := dev.Mem.Alloc(size*bufBytes, 256)
	stage := dev.Mem.Alloc(size*checkImageBytes, 256)
	stream := dev.NewStream()

	start := eng.Now()
	for c := 0; c < cohorts; c++ {
		reqIDs := make([]gpufs.FileID, size)
		if resident {
			for r := range reqIDs {
				reqIDs[r] = ids[(c*size+r)%checkImageCount]
			}
			stream.Launch(checkImageKernel{fs: fs, ids: reqIDs, respCol: respCol, size: size, buf: bufBytes},
				size, nil)
			stream.Transpose(respRow, respCol, bufBytes/4, size, 4, nil)
		} else {
			// Disk-bound path: every request faults its image from the
			// host SSD, then the batch is DMA'd and emitted.
			remaining := size
			for r := 0; r < size; r++ {
				img := images[(c*size+r)%checkImageCount]
				fs.HostRead(img, func(d []byte) {
					remaining--
					if remaining == 0 {
						// The faulted images are DMA'd to a staging area
						// and emitted by the same kernel shape as the
						// resident path.
						stream.MemcpyH2D(stage, make([]byte, size*checkImageBytes), nil)
						stream.Launch(simt.FuncProgram{Label: "check_images_host", Body: func(t *simt.Thread) {
							t.Compute(1200)
							img := t.Load(stage+mem.Addr(t.ID*checkImageBytes), checkImageBytes)
							resp := make([]byte, bufBytes)
							n := copy(resp, checkImageHeader)
							copy(resp[n:], img)
							t.Compute(len(resp) / 16)
							t.StoreStrided(respCol+mem.Addr(4*t.ID), resp, 4, 4*size)
						}}, size, nil)
						stream.Transpose(respRow, respCol, bufBytes/4, size, 4, nil)
					}
				})
			}
		}
		// Serialize cohorts for a conservative estimate.
		done := false
		stream.Barrier(func() { done = true })
		for !done && eng.Step() {
		}
	}
	eng.Run()
	elapsed := (eng.Now() - start).Seconds()
	if faults != nil {
		*faults = fs.Faults
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(size*cohorts) / elapsed
}

// Render formats the study.
func (r CheckImagesResult) Render() *Table {
	t := &Table{
		Title:   "Future work (Sec 5.1): check_detail_images via GPUfs",
		Caption: "the paper skipped this request as 'completely disk bound, requiring GPUfs'; with a device-resident image cache it serves at device speed",
		Headers: []string{"Configuration", "KReq/s", "Host faults"},
	}
	t.AddRow("GPUfs device-resident image cache", kilo(r.GPUFs), "0")
	t.AddRow("host filesystem (disk-bound baseline)", kilo(r.HostFS), fmt.Sprint(r.Faults))
	t.AddRow("GPUfs speedup", f2(r.GPUFs/r.HostFS)+"x", "")
	return t
}
