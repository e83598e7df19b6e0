// Command rhythm-flight is the tail-latency debugging client for a live
// rhythmd (DESIGN.md §15). It fetches the flight recorder's anomaly
// ring from /v1/debug/flight and prints each promoted record — trace
// ID, latency, promotion reason, device and failover hops, cohort size
// and formation wait, and the linked kernel launch seqs — newest last.
// Trace IDs match the X-Rhythm-Trace response header (surface the worst
// ones with rhythm-load -slowest) and the exemplar labels on
// /v1/metrics latency buckets.
//
// With -health it instead fetches the /v1/health SLO burn-rate verdict;
// with -chrome it writes the anomaly records as a Chrome trace-event
// document for Perfetto / chrome://tracing; with -capture it records a
// window of every request's lifecycle and kernel-launch spans from
// /v1/trace and writes that Chrome trace-event document.
//
// Usage:
//
//	rhythm-flight [-n 20] 127.0.0.1:8080
//	rhythm-flight -health 127.0.0.1:8080
//	rhythm-flight -chrome [-o flight-trace.json] 127.0.0.1:8080
//	rhythm-flight -capture [-secs 5] [-o trace.json] 127.0.0.1:8080
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"rhythm"
)

func main() {
	n := flag.Int("n", 20, "newest anomaly records to fetch (0 = the whole ring)")
	health := flag.Bool("health", false, "fetch the /v1/health burn-rate verdict instead of flight records")
	chrome := flag.Bool("chrome", false, "export the anomaly records as a Chrome trace-event document")
	capture := flag.Bool("capture", false, "capture a live trace of every request from /v1/trace instead")
	secs := flag.Int("secs", 5, "capture window in seconds (with -capture; 0 = dump the server's buffered traces)")
	out := flag.String("o", "", "output file for -chrome (default flight-trace.json) or -capture (default trace.json)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rhythm-flight [flags] host:port")
		flag.Usage()
		os.Exit(2)
	}
	addr := flag.Arg(0)

	if err := run(addr, *n, *health, *chrome, *capture, *secs, *out); err != nil {
		fmt.Fprintf(os.Stderr, "rhythm-flight: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, n int, health, chrome, capture bool, secs int, out string) error {
	switch {
	case health:
		body, err := fetch(addr, rhythm.HealthPathV1, 0)
		if err != nil {
			return err
		}
		return printHealth(body)
	case chrome:
		uri := rhythm.FlightPathV1 + "?format=chrome"
		if n > 0 {
			uri += "&n=" + strconv.Itoa(n)
		}
		return save(addr, uri, 0, out, "flight-trace.json")
	case capture:
		uri := rhythm.TracePathV1
		if secs > 0 {
			uri += "?secs=" + strconv.Itoa(secs)
			fmt.Fprintf(os.Stderr, "rhythm-flight: recording %ds of traffic on %s...\n", secs, addr)
		}
		return save(addr, uri, time.Duration(secs)*time.Second, out, "trace.json")
	default:
		uri := rhythm.FlightPathV1
		if n > 0 {
			uri += "?n=" + strconv.Itoa(n)
		}
		body, err := fetch(addr, uri, 0)
		if err != nil {
			return err
		}
		return printFlight(body)
	}
}

// save writes the Chrome trace-event document at uri to out, or to def
// when out is empty.
func save(addr, uri string, window time.Duration, out, def string) error {
	body, err := fetch(addr, uri, window)
	if err != nil {
		return err
	}
	if out == "" {
		out = def
	}
	if err := os.WriteFile(out, body, 0o644); err != nil {
		return err
	}
	fmt.Printf("rhythm-flight: wrote %d bytes to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", len(body), out)
	return nil
}

// flightDoc mirrors the /v1/debug/flight JSON document
// (internal/flight Snapshot.JSON).
type flightDoc struct {
	Total       uint64            `json:"total"`
	Promoted    uint64            `json:"promoted"`
	ByReason    map[string]uint64 `json:"by_reason"`
	ThresholdUs float64           `json:"slow_threshold_us"`
	RingSize    int               `json:"ring_size"`
	Records     []struct {
		TraceID         uint64   `json:"trace_id"`
		Type            string   `json:"type"`
		Start           string   `json:"start"`
		LatencyUs       float64  `json:"latency_us"`
		Status          string   `json:"status"`
		Reason          string   `json:"reason"`
		Device          int      `json:"device"`
		Attempts        int      `json:"attempts"`
		HostExec        bool     `json:"host_exec"`
		CohortSize      int      `json:"cohort_size"`
		LaunchReason    string   `json:"launch_reason"`
		FormationWaitUs float64  `json:"formation_wait_us"`
		LaunchSeqs      []uint64 `json:"launch_seqs"`
		Spans           []struct {
			Name  string  `json:"name"`
			DurUs float64 `json:"dur_us"`
		} `json:"spans"`
	} `json:"records"`
}

func printFlight(body []byte) error {
	var doc flightDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("parse flight document: %w", err)
	}
	fmt.Printf("flight recorder: %d requests, %d anomalies promoted (ring %d)\n",
		doc.Total, doc.Promoted, doc.RingSize)
	if doc.ThresholdUs > 0 {
		fmt.Printf("slow threshold: %.1f ms (adaptive p99 bucket edge)\n", doc.ThresholdUs/1e3)
	}
	if len(doc.ByReason) > 0 {
		fmt.Print("by reason:")
		for _, reason := range []string{"slow", "error", "shed", "deadline", "kernel-error"} {
			if c, ok := doc.ByReason[reason]; ok {
				fmt.Printf(" %s=%d", reason, c)
			}
		}
		fmt.Println()
	}
	if len(doc.Records) == 0 {
		fmt.Println("no anomaly records retained — the tail is clean")
		return nil
	}
	fmt.Println()
	fmt.Printf("%10s  %9s  %-8s  %-22s  %6s  %3s  %s\n",
		"trace", "latency", "reason", "type", "device", "try", "detail")
	for _, r := range doc.Records {
		device := "-"
		if r.Device >= 0 {
			device = strconv.Itoa(r.Device)
		}
		if r.HostExec {
			device = "host"
		}
		var detail strings.Builder
		if r.CohortSize > 0 {
			fmt.Fprintf(&detail, "cohort=%d/%s wait=%.1fms", r.CohortSize, r.LaunchReason, r.FormationWaitUs/1e3)
		}
		if len(r.LaunchSeqs) > 0 {
			if detail.Len() > 0 {
				detail.WriteByte(' ')
			}
			fmt.Fprintf(&detail, "launches=%v", r.LaunchSeqs)
		}
		if len(r.Spans) > 0 {
			slowest, dur := "", 0.0
			for _, sp := range r.Spans {
				if sp.DurUs > dur {
					slowest, dur = sp.Name, sp.DurUs
				}
			}
			if detail.Len() > 0 {
				detail.WriteByte(' ')
			}
			fmt.Fprintf(&detail, "worst-span=%s(%.1fms)", slowest, dur/1e3)
		}
		fmt.Printf("%10d  %7.1fms  %-8s  %-22s  %6s  %3d  %s\n",
			r.TraceID, r.LatencyUs/1e3, r.Reason, r.Type, device, r.Attempts, detail.String())
	}
	return nil
}

// healthDoc mirrors the /v1/health document (metrics.go healthDocument).
type healthDoc struct {
	State          string  `json:"state"`
	Objective      float64 `json:"objective"`
	SLOMillis      float64 `json:"slo_ms"`
	FastWindowSecs float64 `json:"fast_window_secs"`
	SlowWindowSecs float64 `json:"slow_window_secs"`
	FastBurn       float64 `json:"fast_burn"`
	SlowBurn       float64 `json:"slow_burn"`
	Types          []struct {
		Type     string  `json:"type"`
		State    string  `json:"state"`
		FastBurn float64 `json:"fast_burn"`
		SlowBurn float64 `json:"slow_burn"`
		Bad      uint64  `json:"bad_fast_window"`
		Total    uint64  `json:"total_fast_window"`
	} `json:"types"`
	Exemplars []struct {
		TraceID   uint64  `json:"trace_id"`
		Type      string  `json:"type"`
		Reason    string  `json:"reason"`
		LatencyUs float64 `json:"latency_us"`
	} `json:"exemplars"`
}

func printHealth(body []byte) error {
	var doc healthDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("parse health document: %w", err)
	}
	fmt.Printf("health: %s  (objective %.4g, SLO %.4gms)\n", strings.ToUpper(doc.State), doc.Objective, doc.SLOMillis)
	fmt.Printf("burn rates: fast(%.0fs)=%.2f  slow(%.0fs)=%.2f  (1.0 = burning the error budget exactly)\n",
		doc.FastWindowSecs, doc.FastBurn, doc.SlowWindowSecs, doc.SlowBurn)
	for _, ty := range doc.Types {
		if ty.Total == 0 {
			continue
		}
		fmt.Printf("  %-22s %-8s fast=%.2f slow=%.2f bad=%d/%d\n",
			ty.Type, ty.State, ty.FastBurn, ty.SlowBurn, ty.Bad, ty.Total)
	}
	if len(doc.Exemplars) > 0 {
		fmt.Println("flight exemplars (inspect with rhythm-flight <addr>):")
		for _, ex := range doc.Exemplars {
			fmt.Printf("  trace=%d %s %s %.1fms\n", ex.TraceID, ex.Type, ex.Reason, ex.LatencyUs/1e3)
		}
	}
	return nil
}

// fetch issues one GET against the server's hand-rolled HTTP path and
// returns the response body; the server may take window to answer, on
// top of the usual 30 s.
func fetch(addr, uri string, window time.Duration) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(window + 30*time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: flight\r\n\r\n", uri)
	r := bufio.NewReader(conn)
	statusLine, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	if !strings.Contains(statusLine, " 200 ") {
		return nil, fmt.Errorf("server answered %s", strings.TrimSpace(statusLine))
	}
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(trimmed), "content-length:"); ok {
			if cl, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return nil, fmt.Errorf("bad content length %q", v)
			}
		}
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
