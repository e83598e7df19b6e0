package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rhythm/internal/cluster"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/workloads"
)

// wireSamples holds real units and their results from every registered
// workload, run once on a loopback fabric: the seeds of the decoder
// fuzzers and the pages of the round-trip tests.
type wireSamples struct {
	reg        *service.Registry
	dispatches []dispatchMsg
	results    []*cluster.Result
	largest    []byte          // a 64 KB banking page (logout)
	errorRes   *cluster.Result // the §4.4 error page of a login whose password is too long
	cohort     *cluster.Result // three ecom product pages
	snapshot   []byte          // the node's cluster snapshot, as a stats reply carries it
}

var (
	samplesOnce sync.Once
	samples     wireSamples
)

func rawGet(path, cookie string) []byte {
	if cookie != "" {
		cookie = "Cookie: " + cookie + "\r\n"
	}
	return []byte("GET " + path + " HTTP/1.1\r\nHost: x\r\n" + cookie + "\r\n")
}

func rawPost(path, body string) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body))
}

func loadWireSamples(t testing.TB) *wireSamples {
	samplesOnce.Do(func() {
		reg := workloads.Default()
		f, err := New(Config{Registry: reg, Nodes: 1, DevicesPerNode: 1, CohortSize: 8,
			SessionBuckets: testBuckets, SessionNodesPerBucket: testNodesPerBucket})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		unit := func(raws ...[]byte) *cluster.Unit {
			var u *cluster.Unit
			for _, raw := range raws {
				req, err := httpx.Parse(raw)
				if err != nil {
					panic(err)
				}
				rt, ok := reg.Classify(&req)
				if !ok {
					panic("no request type for " + req.Path)
				}
				if u == nil {
					u = &cluster.Unit{Type: rt, Group: f.GroupFor(&req, rt)}
				}
				u.Reqs = append(u.Reqs, req)
			}
			return u
		}
		run := func(u *cluster.Unit) *cluster.Result {
			done := make(chan *cluster.Result, 1)
			u.Done = func(r *cluster.Result) { done <- r }
			for !f.Dispatch(u) {
				runtime.Gosched()
			}
			res := <-done
			if res.Err != nil {
				panic(res.Err)
			}
			samples.dispatches = append(samples.dispatches, dispatchMsg{ID: uint64(len(samples.results) + 1),
				Type: uint16(u.Type), Group: int32(u.Group), Host: u.Host, Reqs: u.Reqs})
			samples.results = append(samples.results, res)
			return res
		}
		uids := []uint64{7401, 7402, 7403}
		for _, uid := range uids {
			run(unit(loginRaw(uid)))
		}
		sid := func(uid uint64) string { return "MY_ID=" + predictSID(uid) }
		run(unit(rawGet("/account_summary.php", sid(7401)),
			rawGet("/account_summary.php", sid(7402)), rawGet("/account_summary.php", sid(7403))))
		host := unit(rawGet("/profile.php", sid(7402)))
		host.Host = true
		run(host)
		samples.largest = run(unit(rawGet("/logout.php", sid(7401)))).Resps[0]
		samples.errorRes = run(unit(rawPost("/login.php", "userid=7404&passwd="+strings.Repeat("x", 1500))))
		run(unit(rawGet("/index.php", "")))
		samples.cohort = run(unit(rawGet("/product.php?id=1", ""), rawGet("/product.php?id=42", ""),
			rawGet("/product.php?id=4242", "")))
		run(unit(rawGet("/search.php?q=lamp", "")))
		run(unit(rawPost("/cart.php", "uid=9001&id=4242&qty=2")))
		run(unit(rawGet("/t/subscribe?dev=11&sub=1", "")))
		run(unit(rawPost("/t/ingest", "dev=11&f=00a0")))
		run(unit(rawGet("/t/poll?dev=11&sub=1", "")))
		snap, _ := f.tr.NodeSnapshot(0)
		body, err := json.Marshal(snap)
		if err != nil {
			panic(err)
		}
		samples.snapshot = body
		samples.reg = reg
	})
	if samples.reg == nil {
		t.Fatal("wire samples failed to build")
	}
	return &samples
}

// resultPayload encodes res as a result frame and strips the header.
func resultPayload(id uint64, res *cluster.Result) []byte {
	return appendResultFrame(nil, id, res)[frameHeaderBytes:]
}

// oneRespPayload hand-builds a result payload carrying one response with
// the given lengths, so the decoder's checks can be driven directly.
func oneRespPayload(padded, live uint32, data []byte) []byte {
	b := resultPayload(1, &cluster.Result{})
	b = appendU32(b[:len(b)-4], 1)
	b = appendU32(b, padded)
	b = appendU32(b, live)
	return append(b, data...)
}

// TestResultFrameRoundTrip: every response comes back byte-identical —
// through the live-bytes encoding and its space refill — and the decoder
// rejects a padded length below the live length or above the registry's
// largest buffer.
func TestResultFrameRoundTrip(t *testing.T) {
	s := loadWireSamples(t)
	maxResp := s.reg.MaxBufferBytes()
	if maxResp != 64<<10 || len(s.largest) != maxResp {
		t.Fatalf("largest buffer %d, logout page %d bytes; want both 64 KB", maxResp, len(s.largest))
	}
	if s.errorRes.KernelErrs != 1 {
		t.Fatalf("the long-password login took the error path %d times, want 1", s.errorRes.KernelErrs)
	}
	pad := func(s string, n int) []byte { return []byte(s + strings.Repeat(" ", n-len(s))) }
	cases := []struct {
		name string
		resp []byte
	}{
		{"empty", []byte{}},
		{"no trailing spaces", []byte("HTTP/1.1 200 OK\r\n\r\n<p>done</p>")},
		{"all spaces", pad("", 4096)},
		{"content ending in spaces before the padding", pad("<p>total:   ", 1024)},
		{"a run hitting every chunk size", pad("x", 1+4096+512+64+8+7)},
		{"the 64 KB banking page", s.largest},
		{"the error page", s.errorRes.Resps[0]},
	}
	for _, c := range cases {
		if got, want := httpx.LiveLen(c.resp), len(bytes.TrimRight(c.resp, " ")); got != want {
			t.Errorf("%s: httpx.LiveLen %d, want %d", c.name, got, want)
		}
		res := &cluster.Result{Resps: [][]byte{c.resp, c.resp}, Device: 3, Attempts: 1}
		p := resultPayload(9, res)
		id, got, err := decodeResult(p, maxResp)
		if err != nil || id != 9 || len(got.Resps) != 2 {
			t.Fatalf("%s: id %d, err %v", c.name, id, err)
		}
		for i, r := range got.Resps {
			if !bytes.Equal(r, c.resp) {
				t.Errorf("%s: response %d came back %d bytes, differs from the %d sent", c.name, i, len(r), len(c.resp))
			}
		}
		if len(c.resp) > 0 && &got.Resps[0][0] == &got.Resps[1][0] {
			t.Errorf("%s: two responses share a backing array", c.name)
		}
	}

	for _, c := range []struct {
		name          string
		padded, live  uint32
		data          string
		wantDecodable bool
	}{
		{"padded to the largest buffer", uint32(maxResp), 3, "abc", true},
		{"padded below live", 2, 3, "abc", false},
		{"padded above the largest buffer", uint32(maxResp) + 1, 3, "abc", false},
		{"live bytes ending in a space", 8, 4, "abc ", false},
	} {
		_, res, err := decodeResult(oneRespPayload(c.padded, c.live, []byte(c.data)), maxResp)
		if (err == nil) != c.wantDecodable {
			t.Errorf("%s: err %v", c.name, err)
		}
		if err == nil && (len(res.Resps[0]) != int(c.padded) || !bytes.HasPrefix(res.Resps[0], []byte(c.data))) {
			t.Errorf("%s: decoded %d bytes", c.name, len(res.Resps[0]))
		}
	}
}

// TestResultFrameAllocations: a result frame is encoded into a pooled
// buffer without allocating, and decoding allocates one slice per
// response plus a fixed count: the Result, its Resps slice and, with
// stages, the Stages slice and one kernel name per stage.
func TestResultFrameAllocations(t *testing.T) {
	s := loadWireSamples(t)
	res := s.cohort
	ns := len(res.Stages)
	if ns == 0 || len(res.Resps) != 3 {
		t.Fatalf("cohort sample has %d stages, %d responses", ns, len(res.Resps))
	}
	f := getFrame()
	*f = appendResultFrame(*f, 1, res)
	if a := testing.AllocsPerRun(100, func() { *f = appendResultFrame((*f)[:0], 1, res) }); a != 0 {
		t.Errorf("appendResultFrame into a pooled buffer: %.1f allocations, want 0", a)
	}
	p := bytes.Clone((*f)[frameHeaderBytes:])
	putFrame(f)
	want := float64(len(res.Resps) + 2 + 1 + ns)
	if a := testing.AllocsPerRun(100, func() { decodeResult(p, s.reg.MaxBufferBytes()) }); a != want {
		t.Errorf("decodeResult of %d responses and %d stages: %.1f allocations, want %.0f", len(res.Resps), ns, a, want)
	}
}

// TestWireCountsBoundAllocation: a count the peer declares sizes nothing
// until the payload can hold that many elements. A 19-byte dispatch
// payload declaring 2²⁰ requests, and result payloads declaring 65 535
// stages or 2³²−1 responses, fail as truncated without allocating for
// the count (the dispatch decoder used to make 2²⁰ requests, ≈ 110 MB,
// before noticing).
func TestWireCountsBoundAllocation(t *testing.T) {
	dispatch := appendDispatchFrame(nil, &dispatchMsg{ID: 1})[frameHeaderBytes:]
	dispatch = appendU32(dispatch[:len(dispatch)-4], 1<<20)

	head := resultPayload(1, &cluster.Result{})
	head = head[:len(head)-4-2] // drop the stage and response counts
	stages := appendU16(bytes.Clone(head), 1<<16-1)
	resps := appendU32(appendU16(bytes.Clone(head), 0), 1<<32-1)

	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"dispatch with 2^20 requests", func() error { _, err := decodeDispatch(dispatch); return err }},
		{"result with 65535 stages", func() error { _, _, err := decodeResult(stages, 64<<10); return err }},
		{"result with 2^32-1 responses", func() error { _, _, err := decodeResult(resps, 64<<10); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes for elements the frame does not hold", c.name, grew)
		}
	}
}

// TestHelloVersionRefused: a worker that speaks wire version 1 to this
// frontend is refused at the handshake, naming both versions.
func TestHelloVersionRefused(t *testing.T) {
	reg := workloads.Banking()
	frontend, worker := net.Pipe()
	defer frontend.Close()
	h := hello{Version: 1, Devices: 1, Groups: 1, NumTypes: reg.NumTypes()}
	for _, w := range reg.Workloads() {
		h.Workloads = append(h.Workloads, w.Name())
	}
	go func() {
		worker.Write(appendHelloFrame(nil, h))
		worker.Close()
	}()
	_, err := readHello(frontend, reg)
	if err == nil || err.Error() != "wire version 1, frontend speaks 2" {
		t.Fatalf("version-1 hello: err %v", err)
	}
	h.Version = wireVersion
	if err := checkHello(h, reg); err != nil {
		t.Fatalf("same hello at version %d refused: %v", wireVersion, err)
	}
}

// allocBytes runs fn and reports the bytes it allocated.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// wireAllocSlack covers size-class rounding of a decoder's few fixed
// allocations.
const wireAllocSlack = 64 << 10

// FuzzDecodeDispatch: decoding peer bytes never panics, allocates at
// most 16 bytes per input byte, and whatever decodes re-encodes to the
// same bytes at the size dispatchWireBytes prices.
func FuzzDecodeDispatch(f *testing.F) {
	for _, m := range loadWireSamples(f).dispatches {
		f.Add(appendDispatchFrame(nil, &m)[frameHeaderBytes:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var m dispatchMsg
		var err error
		if grew := allocBytes(func() { m, err = decodeDispatch(p) }); grew > uint64(16*len(p)+wireAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
		}
		if err != nil {
			return
		}
		frame := appendDispatchFrame(nil, &m)
		if !bytes.Equal(frame[frameHeaderBytes:], p) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(p))
		}
		if len(frame) != dispatchWireBytes(m.Reqs) {
			t.Fatalf("frame %d bytes, dispatchWireBytes %d", len(frame), dispatchWireBytes(m.Reqs))
		}
	})
}

// fuzzSeedMax leaves the large banking pages out of the result fuzzer's
// seeds: a 50 KB input slows mutation to a crawl, and
// TestResultFrameRoundTrip covers those pages.
const fuzzSeedMax = 16 << 10

// FuzzDecodeResult: decoding peer bytes never panics, no response is
// padded past the registry's largest buffer, allocation is at most 16
// bytes per input byte plus twice the responses' padded bytes, and
// whatever decodes re-encodes to the same bytes.
func FuzzDecodeResult(f *testing.F) {
	s := loadWireSamples(f)
	for i, res := range s.results {
		if p := resultPayload(uint64(i+1), res); len(p) <= fuzzSeedMax {
			f.Add(p)
		}
	}
	maxResp := s.reg.MaxBufferBytes()
	f.Fuzz(func(t *testing.T, p []byte) {
		var id uint64
		var res *cluster.Result
		var err error
		grew := allocBytes(func() { id, res, err = decodeResult(p, maxResp) })
		padded := 0
		for _, r := range res.Resps {
			if len(r) > maxResp {
				t.Fatalf("response padded to %d bytes, largest buffer %d", len(r), maxResp)
			}
			padded += len(r)
		}
		if grew > uint64(16*len(p)+2*padded+wireAllocSlack) {
			t.Fatalf("decoding %d bytes (%d padded response bytes) allocated %d", len(p), padded, grew)
		}
		if err != nil {
			return
		}
		if got := resultPayload(id, res); !bytes.Equal(got, p) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(p))
		}
	})
}

// The three small decoders — the handshake, nacks and stats — share one
// fuzz contract with the big two: decoding peer bytes never panics,
// allocates at most smallAllocFactor bytes per input byte (plus
// wireAllocSlack), and whatever decodes re-encodes to the same bytes.
const smallAllocFactor = 16

// checkSmallDecode runs decode on p under the allocation bound and
// returns its error.
func checkSmallDecode(t *testing.T, p []byte, decode func() error) error {
	t.Helper()
	var err error
	if grew := allocBytes(func() { err = decode() }); grew > uint64(smallAllocFactor*len(p)+wireAllocSlack) {
		t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
	}
	return err
}

// FuzzDecodeHello: the worker's handshake, seeded with the hellos a
// worker of every registered workload speaks.
func FuzzDecodeHello(f *testing.F) {
	reg := loadWireSamples(f).reg
	h := hello{Version: wireVersion, Devices: 1, Groups: 1, NumTypes: reg.NumTypes()}
	for _, w := range reg.Workloads() {
		h.Workloads = append(h.Workloads, w.Name())
		f.Add(appendHelloFrame(nil, h)[frameHeaderBytes:])
	}
	h.Devices, h.Groups = 4, 16
	f.Add(appendHelloFrame(nil, h)[frameHeaderBytes:])
	f.Fuzz(func(t *testing.T, p []byte) {
		var h hello
		if checkSmallDecode(t, p, func() (err error) { h, err = decodeHello(p); return err }) != nil {
			return
		}
		if got := appendHelloFrame(nil, h)[frameHeaderBytes:]; !bytes.Equal(got, p) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(p))
		}
	})
}

// FuzzDecodeNack: a worker's refusal of a unit, seeded with every reason.
func FuzzDecodeNack(f *testing.F) {
	for _, reason := range []byte{nackQuiesce, nackNoDevice, nackBusy} {
		f.Add(appendNackFrame(nil, nackMsg{ID: 41 + uint64(reason), Reason: reason})[frameHeaderBytes:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var m nackMsg
		if checkSmallDecode(t, p, func() (err error) { m, err = decodeNack(p); return err }) != nil {
			return
		}
		if got := appendNackFrame(nil, m)[frameHeaderBytes:]; !bytes.Equal(got, p) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(p))
		}
	})
}

// FuzzDecodeStats: a stats request (reply false) and a stats reply
// carrying a real node snapshot, each decoded as its own kind.
func FuzzDecodeStats(f *testing.F) {
	f.Add(appendStatsFrame(nil, frameStatsReq, 7, nil)[frameHeaderBytes:], false)
	f.Add(appendStatsFrame(nil, frameStats, 7, loadWireSamples(f).snapshot)[frameHeaderBytes:], true)
	f.Fuzz(func(t *testing.T, p []byte, reply bool) {
		var m statsMsg
		if checkSmallDecode(t, p, func() (err error) { m, err = decodeStats(p, reply); return err }) != nil {
			return
		}
		kind := byte(frameStatsReq)
		if reply {
			kind = frameStats
		}
		if got := appendStatsFrame(nil, kind, m.ReqID, m.JSON)[frameHeaderBytes:]; !bytes.Equal(got, p) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(p))
		}
	})
}
