// Command rhythm-trace runs the request-similarity study of §2.3
// standalone: it traces the dynamic basic blocks of independent requests
// for each Banking request type, merges the unique traces diff-style,
// and reports the speedup idealized SIMD execution would achieve —
// reproducing Figure 2.
//
// With -capture it instead acts as a client for a live rhythmd's
// /v1/trace endpoint: it records a window of request-lifecycle and
// kernel-launch spans and writes the Chrome trace-event document to a
// file for Perfetto / chrome://tracing.
//
// Usage:
//
//	rhythm-trace [-requests 61] [-seed 1] [-v]
//	rhythm-trace -capture 127.0.0.1:8080 [-secs 5] [-o trace.json]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"rhythm"
	"rhythm/internal/harness"
)

func main() {
	requests := flag.Int("requests", 61, "requests to trace per type (the paper traced 61)")
	seed := flag.Int64("seed", 1, "workload seed")
	verbose := flag.Bool("v", false, "also print per-type trace block counts")
	capture := flag.String("capture", "", "capture a live trace from this rhythmd address instead of running the Fig. 2 study")
	secs := flag.Int("secs", 5, "capture window in seconds (with -capture; 0 = dump the server's buffered traces)")
	out := flag.String("o", "trace.json", "output file for the captured trace (with -capture)")
	flag.Parse()

	if *capture != "" {
		if err := captureTrace(*capture, *secs, *out); err != nil {
			fmt.Fprintf(os.Stderr, "rhythm-trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := harness.DefaultConfig()
	cfg.TraceRequests = *requests
	cfg.Seed = *seed

	res := harness.Fig2(cfg)
	res.Render().Print(os.Stdout)
	if *verbose {
		fmt.Println("Interpretation: normalized speedup ~1.0 means requests of that type")
		fmt.Println("execute nearly identical control flow and batch perfectly into SIMT")
		fmt.Println("cohorts; divergence comes only from data-dependent loop trip counts")
		fmt.Println("(number of accounts, transactions, payees).")
	}
}

// captureTrace fetches /v1/trace?secs=N from a live server and
// writes the JSON document to path.
func captureTrace(addr string, secs int, path string) error {
	uri := rhythm.TracePathV1
	if secs > 0 {
		uri += "?secs=" + strconv.Itoa(secs)
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Duration(secs)*time.Second + 30*time.Second))
	if secs > 0 {
		fmt.Fprintf(os.Stderr, "rhythm-trace: recording %ds of traffic on %s...\n", secs, addr)
	}
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: trace\r\n\r\n", uri)
	r := bufio.NewReader(conn)
	statusLine, err := r.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.Contains(statusLine, " 200 ") {
		return fmt.Errorf("server answered %s", strings.TrimSpace(statusLine))
	}
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(trimmed), "content-length:"); ok {
			if cl, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return fmt.Errorf("bad content length %q", v)
			}
		}
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	fmt.Printf("rhythm-trace: wrote %d bytes to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", len(body), path)
	return nil
}
