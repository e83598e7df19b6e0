// Package servicetest is the shared harness of the page workloads' own
// tests: it runs a scripted sequence of requests through a workload's
// scalar host path and through its stage kernels, and holds the host
// path's bytes to SHA-256 digests committed under testdata — so a
// formatting change common to both paths, which every host ≡ device
// comparison passes, still fails a test.
package servicetest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

var update = flag.Bool("update", false, "rewrite the testdata digests from the current code")

// World is one shard group's state.
type World struct {
	Sessions *session.Array
	Backend  service.Backend
}

// Round is one cohort's worth of raw requests of one local type. The
// host path runs them one by one, the device as one cohort, so a round
// must not hold two requests whose backend writes to one entity would
// interleave differently stage by stage (one user per round for types
// with more than one backend stage).
type Round struct {
	Local int
	Raw   []string
}

// Script builds a fresh world and the rounds to run against it, in
// order. Two calls yield twins.
type Script func(t testing.TB) (World, []Round)

// Result is one request's outcome.
type Result struct {
	Resp   []byte
	Failed bool
}

func parse(t testing.TB, raw string) httpx.Request {
	t.Helper()
	req, err := httpx.Parse([]byte(raw))
	if err != nil {
		t.Fatalf("parse %q: %v", raw, err)
	}
	return req
}

// Host runs the script on the scalar host path, one result per request
// of each round.
func Host(t testing.TB, w *service.PageWorkload, script Script, padding bool) [][]Result {
	t.Helper()
	wd, rounds := script(t)
	return runHost(t, w, wd, rounds, padding)
}

func runHost(t testing.TB, w *service.PageWorkload, wd World, rounds []Round, padding bool) [][]Result {
	out := make([][]Result, len(rounds))
	for i, rd := range rounds {
		for _, raw := range rd.Raw {
			req := parse(t, raw)
			ctx := w.Execute(rd.Local, &req, wd.Sessions, wd.Backend, padding)
			out[i] = append(out[i], Result{Resp: ctx.RenderAlloc(), Failed: ctx.Err != ""})
		}
	}
	return out
}

// Device runs each round of the script as one cohort through the chain
// of variant v (Titan B or C: a device backend), on one slot that is
// rebound round after round the way a serving device's is.
func Device(t testing.TB, w *service.PageWorkload, script Script, v service.Variant) [][]Result {
	t.Helper()
	wd, rounds := script(t)
	lanes := 0
	for _, rd := range rounds {
		lanes = max(lanes, len(rd.Raw))
	}
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 0, nil)
	slot := w.NewSlot(dev, lanes, v)
	stream := dev.NewStream()
	out := make([][]Result, len(rounds))
	for i, rd := range rounds {
		reqs := make([]httpx.Request, len(rd.Raw))
		for j, raw := range rd.Raw {
			reqs[j] = parse(t, raw)
		}
		unit := slot.Bind(rd.Local, reqs, wd.Sessions, wd.Backend)
		unit.Run(stream, nil, nil, nil)
		eng.Run()
		if s, ok := wd.Backend.(*scribbler); ok {
			s.scribble() // CheckKeptLines: the slots, before the pages render
		}
		for j, resp := range unit.Responses() {
			out[i] = append(out[i], Result{Resp: resp, Failed: unit.Failed(j)})
		}
	}
	return out
}

// CheckStageKernels fails unless the script's rounds, bound as cohorts,
// render through the stage kernels what the host path renders one by
// one, padded and unpadded, error lanes and early exits included.
func CheckStageKernels(t *testing.T, w *service.PageWorkload, script Script) {
	t.Helper()
	assertSame(t, "padded", Device(t, w, script, service.Live), Host(t, w, script, true))
	assertSame(t, "unpadded", Device(t, w, script, service.Variant{ColMajor: true}), Host(t, w, script, false))
}

// assertSame fails unless got and want agree request by request, in
// bytes and in which requests took the error path.
func assertSame(t testing.TB, what string, got, want [][]Result) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: round %d has %d results, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].Failed != want[i][j].Failed {
				t.Fatalf("%s: round %d request %d failed=%v, want %v", what, i, j, got[i][j].Failed, want[i][j].Failed)
			}
			if !bytes.Equal(got[i][j].Resp, want[i][j].Resp) {
				t.Fatalf("%s: round %d request %d: response bytes differ", what, i, j)
			}
		}
	}
}

// digests renders one line per request type: how many requests of the
// type the script ran, how many took the error path, their total length
// and the SHA-256 of their responses concatenated in script order.
func digests(t testing.TB, w *service.PageWorkload, script Script) (lines []byte, errorPages int) {
	var out bytes.Buffer
	for _, padding := range []bool{true, false} {
		wd, rounds := script(t)
		results := runHost(t, w, wd, rounds, padding)
		for local, sp := range w.Types() {
			h := sha256.New()
			n, failed, length := 0, 0, 0
			for i, rd := range rounds {
				if rd.Local != local {
					continue
				}
				for _, r := range results[i] {
					h.Write(r.Resp)
					n++
					length += len(r.Resp)
					if r.Failed {
						failed++
					}
				}
			}
			errorPages += failed
			fmt.Fprintf(&out, "%s/%s padding=%v requests=%d failed=%d bytes=%d sha256=%x\n",
				w.Name(), sp.Name, padding, n, failed, length, h.Sum(nil))
		}
	}
	return out.Bytes(), errorPages
}

// CheckDigests holds the host path's bytes for the script, with padding
// on and off, to the digests committed in file (rewritten under
// -update). Every type of the workload must appear in the script, and
// at least one request must take the error path.
func CheckDigests(t *testing.T, w *service.PageWorkload, script Script, file string) {
	t.Helper()
	got, errorPages := digests(t, w, script)
	if bytes.Contains(got, []byte(" requests=0 ")) {
		t.Fatalf("the script leaves a request type out:\n%s", got)
	}
	if errorPages == 0 {
		t.Fatalf("no request of the script takes the error path:\n%s", got)
	}
	if *update {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update on code whose bytes are known good)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response bytes changed.\n got:\n%s\nwant:\n%s", got, want)
	}
}
