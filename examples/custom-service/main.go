// Custom service: bring YOUR workload to Rhythm through the service
// registry. This example writes a from-scratch workload — a tiny JSON
// "shout" service backed by a stateful per-shard store — registers it
// as the only workload of a fresh registry, and serves it over real TCP
// in both execution modes: the scalar host path and the cohort pipeline
// on the modeled SIMT device. The same stage function runs in both, so
// the responses are byte-identical — the registry's core contract
// (DESIGN.md §16).
//
// A workload declares three things:
//
//  1. a type table (service.SvcDef): path, response-buffer class,
//     backend round trips, mix share, session semantics;
//  2. stage functions (service.StageFunc): stage i returns the backend
//     request to issue, the final stage builds the page;
//  3. a backend store (service.Backend): one instance per shard group,
//     answering fixed-size textual request slots.
//
// Everything else — host execution, cohort buffers, stage kernels,
// fixed-geometry rendering, stats and metrics labels — comes from the
// registry machinery.
//
// Run with: go run ./examples/custom-service
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"time"

	"rhythm"
	"rhythm/internal/service"
)

// shoutStore is the workload's backend: one instance per shard group,
// driven single-writer by the serving stack, answering the Besim-shape
// textual protocol. "SHOUT <msg>" -> "OK\n<MSG>\n<count>"; the count
// makes the store visibly stateful, so byte identity between the two
// servers also proves both executed the same request sequence.
type shoutStore struct {
	served uint64
}

// Handle implements service.Backend: it appends the response to dst.
func (s *shoutStore) Handle(dst, req []byte) []byte {
	// req is exactly the bytes the stage returned, on either path.
	msg, ok := strings.CutPrefix(string(req), "SHOUT ")
	if !ok {
		return append(dst, "FAIL bad verb"...)
	}
	s.served++
	return fmt.Appendf(dst, "OK\n%s\n%d", strings.ToUpper(msg), s.served)
}

// Reads implements service.Backend: every SHOUT counts, so no request
// is a pure read.
func (s *shoutStore) Reads([]byte) bool { return false }

// SetWriteHook implements service.Backend. The hook feeds render-cache
// invalidation; this workload declares no cacheable types, so there is
// nothing to invalidate.
func (s *shoutStore) SetWriteHook(func(uid uint64)) {}

// shoutStage is the type's process logic, shared verbatim by the host
// path and the device kernels. Stage 0 validates the request and
// returns the backend request; stage 1 renders the JSON page from the
// backend's response.
func shoutStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		msg := ctx.Req.Param("msg")
		if msg == "" || len(msg) > 64 {
			ctx.Fail("shout: need msg=<1..64 chars>")
			return nil
		}
		return ctx.Page.Appendf("SHOUT %s", msg)
	}
	lines := strings.Split(string(bresp), "\n")
	if len(lines) != 3 || lines[0] != "OK" {
		ctx.Fail("shout backend error")
		return nil
	}
	p := ctx.Page
	p.Static(`{"service":"shout","msg":`)
	p.Dynamic(strconv.Quote(ctx.Req.Param("msg")))
	p.Static(`,"shout":`)
	p.Dynamic(strconv.Quote(lines[1]))
	p.Static(`,"served":`)
	p.Dynamic(lines[2])
	p.Static("}\n")
	// Realign cohort lanes after the variable-length dynamics: trailing
	// spaces are insignificant in JSON, and the fixed geometry is what
	// lets every lane of a cohort store its page coalesced (§4.3.2).
	p.PadTo(256)
	return nil
}

// newShoutWorkload builds the registrable workload: one GET type, one
// backend round trip, a 4 KB response-buffer class, no sessions.
func newShoutWorkload() *service.PageWorkload {
	return service.NewPageWorkload(service.PageWorkloadConfig{
		Name: "shout",
		Defs: []service.SvcDef{
			{Name: "shout", Path: "/shout.php", MixPercent: 100, Backends: 1,
				BufferBytes: 4 << 10, ContentType: "application/json", Stage: shoutStage},
		},
		NewBackend: func() service.Backend { return &shoutStore{} },
	})
}

func main() {
	// A registry containing only our workload: the serving stack has no
	// banking knowledge to fall back on — everything it needs (paths,
	// buffer classes, kernels, labels) comes from the registration.
	reg := service.NewRegistry(newShoutWorkload())

	host, err := rhythm.New("127.0.0.1:0", rhythm.WithRegistry(reg), rhythm.WithHostExecution())
	if err != nil {
		log.Fatal(err)
	}
	dev, err := rhythm.New("127.0.0.1:0", rhythm.WithRegistry(reg),
		rhythm.WithFormation(32, 4, 2*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	go host.Serve()
	go dev.Serve()

	fmt.Println("custom workload on the Rhythm registry: host vs cohort over TCP")
	msgs := []string{"hello", "cohorts-not-threads", "same-bytes-everywhere", ""}
	for _, msg := range msgs {
		uri := "/shout.php?msg=" + msg
		hs, hb := get(host.Addr().String(), uri)
		ds, db := get(dev.Addr().String(), uri)
		if hs != ds || !bytes.Equal(hb, db) {
			log.Fatalf("host and cohort responses diverge for %s: %d vs %d\n%q\n%q", uri, hs, ds, hb, db)
		}
		fmt.Printf("  %-40s %d %s\n", uri, hs, firstLine(hb))
	}

	st := dev.Snapshot().Cohort
	ts := st.Types["shout/shout"]
	fmt.Printf("  cohort server: %d responses byte-identical to the host path\n", st.Served)
	fmt.Printf("  device path:   %d cohorts launched for %q (workload %q), mean occupancy %.1f\n",
		ts.Cohorts, "shout/shout", ts.Workload, ts.MeanOccupancy)
	fmt.Println()
	fmt.Println("The empty-msg request took the divergent error path — also")
	fmt.Println("byte-identical, because the error page is part of the contract.")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	host.Drain(ctx)
	dev.Drain(ctx)
}

// get issues one GET over a fresh connection and returns the status
// code and response body.
func get(addr, uri string) (int, []byte) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: demo\r\n\r\n", uri)
	r := bufio.NewReader(conn)
	statusLine, err := r.ReadString('\n')
	if err != nil {
		log.Fatal(err)
	}
	status, _ := strconv.Atoi(strings.SplitN(statusLine, " ", 3)[1])
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(line), "content-length:"); ok {
			cl, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(r, body); err != nil {
		log.Fatal(err)
	}
	return status, body
}

// firstLine trims a fixed-geometry body down to its readable head.
func firstLine(b []byte) string {
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimRight(line, " ")
}
