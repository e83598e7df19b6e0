package main

import (
	"bytes"
	"fmt"
	"time"

	"rhythm"
	"rhythm/internal/service"
)

// The correctness gate runs before every timed window. A socket
// workload's gate plays one seeded script of at least gateRequests
// requests, covering every type of the workload's mix, over a single
// connection against a fresh instance of the workload's server and, in
// lock step, against a fresh host-mode reference. Responses must be
// byte-identical once the X-Rhythm-Trace header is removed (the repo's
// host ≡ cohort ≡ fabric contract), every status must be 200, and
// neither server's error counters may move: an error page is a 200.
const gateRequests = 512

var traceHeader = []byte("X-Rhythm-Trace:")

// stripTrace removes the X-Rhythm-Trace header line, which carries a
// per-server request id.
func stripTrace(resp []byte) []byte {
	i := bytes.Index(resp, traceHeader)
	if i < 0 {
		return resp
	}
	j := bytes.IndexByte(resp[i:], '\n')
	if j < 0 {
		return resp
	}
	return append(append([]byte(nil), resp[:i]...), resp[i+j+1:]...)
}

func socketGate(spec socketSpec, reg *service.Registry, seed int64) (int64, error) {
	sut, err := startServer(spec.opts()...)
	if err != nil {
		return 0, err
	}
	defer stopServer(sut)
	ref, err := startServer(rhythm.WithHostExecution())
	if err != nil {
		return 0, err
	}
	defer stopServer(ref)

	tr := spec.traffic(reg, 1)
	tr.users = 8
	// The script is generated twice: each connection patches cookies
	// into its own copy.
	script := func() *corpus { return newCorpusGen(reg, tr, seed+104729, 0).build(gateRequests) }
	corS, corR := script(), script()
	want := make(map[service.TypeID]bool)
	for w, weights := range tr.localWeights(reg) {
		for local, wt := range weights {
			if wt > 0 {
				want[reg.GID(w, local)] = true
			}
		}
	}
	for _, e := range corS.loop {
		delete(want, e.typ)
	}
	if len(want) != 0 {
		return 0, fmt.Errorf("gate script misses %d request types of the mix", len(want))
	}

	cs, err := dialClient(sut.Addr().String(), 0, corS)
	if err != nil {
		return 0, err
	}
	defer cs.close()
	cr, err := dialClient(ref.Addr().String(), 0, corR)
	if err != nil {
		return 0, err
	}
	defer cr.close()
	cs.conn.SetDeadline(time.Now().Add(ioTimeout))
	cr.conn.SetDeadline(time.Now().Add(ioTimeout))

	sutBefore, refBefore := readCounters(sut), readCounters(ref)
	var checked int64
	var got, exp []byte
	play := func(s, r []entry) error {
		for i := range s {
			got, exp = got[:0], exp[:0]
			stR, err := cr.exchange(&r[i], &exp)
			if err != nil {
				return fmt.Errorf("reference: %s: %w", firstLine(r[i].raw), err)
			}
			stS, err := cs.exchange(&s[i], &got)
			if err != nil {
				return fmt.Errorf("%s: %w", firstLine(s[i].raw), err)
			}
			if stR != 200 || stS != 200 {
				return fmt.Errorf("%s: status %d (reference %d)", firstLine(s[i].raw), stS, stR)
			}
			if !bytes.Equal(stripTrace(got), stripTrace(exp)) {
				return fmt.Errorf("%s: response differs from the host-mode reference (%d vs %d bytes)",
					firstLine(s[i].raw), len(got), len(exp))
			}
			checked++
		}
		return nil
	}
	if err := play(corS.setup, corR.setup); err != nil {
		return checked, err
	}
	if err := play(corS.loop, corR.loop); err != nil {
		return checked, err
	}
	if n := serverFailures(sutBefore, readCounters(sut)) + serverFailures(refBefore, readCounters(ref)); n != 0 {
		return checked, fmt.Errorf("server error counters rose by %d during the gate script", n)
	}
	return checked, nil
}
