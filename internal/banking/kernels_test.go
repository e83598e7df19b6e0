package banking

import (
	"bytes"
	"reflect"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// kernelRig wires a device, sessions, and generator for direct kernel
// tests (the pipeline package tests the full flow; these pin the kernel
// contracts in isolation).
type kernelRig struct {
	eng      *sim.Engine
	dev      *simt.Device
	db       *backend.DB
	sessions *session.Array
	gen      *Generator
}

func newKernelRig(t *testing.T, memBytes int) *kernelRig {
	t.Helper()
	eng := sim.NewEngine()
	r := &kernelRig{
		eng:      eng,
		dev:      simt.NewDevice(eng, simt.GTXTitan(), memBytes, nil),
		db:       backend.New(),
		sessions: session.NewArray(256, 64),
	}
	r.gen = NewGenerator(9, r.sessions)
	r.gen.Populate(256)
	return r
}

func TestParserKernelColumnMajor(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	const n = 48
	pb := NewParseBatch(rig.dev, n)
	pb.Reset(n)
	raws := make([][]byte, n)
	for i := range raws {
		switch i % 3 {
		case 0:
			raws[i] = rig.gen.Request(Transfer)
		case 1:
			raws[i] = rig.gen.Request(Login)
		default:
			raws[i] = imageRequest(i)
		}
	}
	// A reused image holds the last batch's bytes; packing clears them.
	image := PackRequests(bytes.Repeat([]byte{'x'}, n*RequestSlot), raws)
	if !bytes.Equal(image, PackRequests(nil, raws)) {
		t.Fatal("packing into a used image left stale bytes")
	}
	rig.dev.Mem.Write(pb.Buf, image)
	mem.TransposeElems(rig.dev.Mem, pb.ColBuf, pb.Buf, n, RequestSlot/4, 4)

	var ls simt.LaunchStats
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: true}), n,
		func(s simt.LaunchStats) { ls = s })
	rig.eng.Run()

	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			if pb.Errs[i] != nil || pb.Types[i] != Transfer {
				t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
			}
		case 1:
			if pb.Errs[i] != nil || pb.Types[i] != Login {
				t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
			}
			if pb.Reqs[i].Param("userid") == "" {
				t.Fatalf("req %d: login params not extracted", i)
			}
		default:
			if !pb.IsImage[i] {
				t.Fatalf("req %d: image not recognized", i)
			}
		}
	}
	// Every lane read its column into the warp's one gather buffer; the
	// requests parked in the batch keep their own bytes.
	for i, raw := range raws {
		if want, _ := httpx.Parse(raw); !reflect.DeepEqual(pb.Reqs[i], want) {
			t.Fatalf("req %d: parked as %+v, want %+v", i, pb.Reqs[i], want)
		}
	}
	// Three request kinds in one cohort: the parser must have diverged.
	if ls.DivergentExec == 0 {
		t.Fatal("mixed parse reported no divergence")
	}
}

func TestParserKernelRowMajor(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	const n = 8
	pb := NewParseBatch(rig.dev, n)
	pb.Reset(n)
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = rig.gen.Request(Profile)
	}
	rig.dev.Mem.Write(pb.Buf, PackRequests(nil, raws))
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: false}), n, nil)
	rig.eng.Run()
	for i := 0; i < n; i++ {
		if pb.Errs[i] != nil || pb.Types[i] != Profile {
			t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
		}
	}
}

func TestParserKernelMalformed(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	pb := NewParseBatch(rig.dev, 2)
	pb.Reset(2)
	rig.dev.Mem.Write(pb.Buf, PackRequests(nil, [][]byte{
		[]byte("NONSENSE"),
		[]byte("GET /not-a-page HTTP/1.1\r\n\r\n"),
	}))
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: false}), 2, nil)
	rig.eng.Run()
	if pb.Errs[0] == nil || pb.Errs[1] == nil {
		t.Fatalf("errors not recorded: %v %v", pb.Errs[0], pb.Errs[1])
	}
}

func TestCohortDeviceBytesAccounting(t *testing.T) {
	if CohortDeviceBytes(Logout, 4096) <= CohortDeviceBytes(Login, 4096) {
		t.Fatal("64 KB buffers must dominate 8 KB buffers")
	}
}
