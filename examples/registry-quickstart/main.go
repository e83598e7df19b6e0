// Registry quickstart: what Rhythm's workload registry gives you out of
// the box. The default registry fuses three registered workloads —
// SPECWeb Banking, an e-commerce catalog, and streaming telemetry —
// into one dense workload-qualified type space, and a single cohort
// server serves all of them on the same modeled SIMT devices: one
// classifier, one formation pipeline, shared execution slots, stats and
// metrics labeled per workload (DESIGN.md §16).
//
// This demo prints the registered type table, boots one cohort server,
// drives one small flow from each workload over TCP, and shows the
// per-workload serving stats. To put your own workload on the device
// instead, see examples/custom-service.
//
// Run with: go run ./examples/registry-quickstart
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"time"

	"rhythm"
)

func main() {
	reg := rhythm.DefaultRegistry()
	fmt.Println("Rhythm registry quickstart — every workload is a registration")
	fmt.Printf("registered workloads:")
	for _, w := range reg.Workloads() {
		fmt.Printf(" %s(%d types)", w.Name(), len(w.Types()))
	}
	fmt.Println()
	fmt.Printf("  %-4s %-26s %-8s %-6s %-8s %s\n", "gid", "type", "buffer", "mix%", "backends", "session cookie")
	for _, spec := range reg.Specs() {
		cookie := reg.WorkloadOf(spec.GID).SessionCookie()
		if cookie == "" {
			cookie = "-"
		}
		fmt.Printf("  %-4d %-26s %-8d %-6.0f %-8d %s\n",
			spec.GID, spec.Display, spec.BufferBytes, spec.MixPercent, spec.Backends, cookie)
	}

	// One cohort server, all three workloads: small cohorts and a short
	// formation timeout so this low-rate demo still batches.
	srv, err := rhythm.New("127.0.0.1:0", rhythm.WithFormation(8, 4, 2*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	addr := srv.Addr().String()
	uid, passwd := srv.Seed(1001)

	fmt.Println()
	fmt.Println("one request flow per workload, all through the same device pool:")
	// Banking: the session'd login -> summary flow.
	cookie := request(addr, "POST", "/login.php", fmt.Sprintf("userid=%d&passwd=%s", uid, passwd), "")
	request(addr, "GET", "/account_summary.php", "", cookie)
	// Ecom: a catalog read.
	request(addr, "GET", "/browse.php?cat=books", "", "")
	// Telemetry: subscribe, publish a frame, drain it.
	request(addr, "GET", "/t/subscribe?dev=7&sub=1", "", "")
	request(addr, "POST", "/t/ingest", "dev=7&f=c0de", "")
	request(addr, "GET", "/t/poll?dev=7&sub=1", "", "")

	st := srv.Snapshot().Cohort
	byWorkload := map[string]uint64{}
	for _, ts := range st.Types {
		byWorkload[ts.Workload] += ts.Requests
	}
	fmt.Println()
	fmt.Printf("served %d responses across %s (schema v%d stats):\n",
		st.Served, strings.Join(st.Workloads, "+"), st.SchemaVersion)
	for _, name := range st.Workloads {
		fmt.Printf("  %-10s %d requests\n", name, byWorkload[name])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Drain(ctx)
}

// request issues one HTTP request, prints a one-line summary, and
// returns any Set-Cookie value for the caller to thread through the
// rest of its session.
func request(addr, method, uri, body, cookie string) string {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: demo\r\n", method, uri)
	if cookie != "" {
		fmt.Fprintf(&b, "Cookie: %s\r\n", cookie)
	}
	if method == "POST" {
		fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n%s", len(body), body)
	} else {
		b.WriteString("\r\n")
	}
	if _, err := io.WriteString(conn, b.String()); err != nil {
		log.Fatal(err)
	}

	r := bufio.NewReader(conn)
	statusLine, err := r.ReadString('\n')
	if err != nil {
		log.Fatal(err)
	}
	status, _ := strconv.Atoi(strings.SplitN(statusLine, " ", 3)[1])
	cl, setCookie := 0, ""
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
		if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok {
			setCookie, _, _ = strings.Cut(v, ";")
		}
	}
	resp := make([]byte, cl)
	if _, err := io.ReadFull(r, resp); err != nil {
		log.Fatal(err)
	}
	head, _, _ := strings.Cut(string(resp), "\n")
	if len(head) > 56 {
		head = head[:56] + "..."
	}
	fmt.Printf("  %-4s %-28s -> %d %s\n", method, uri, status, strings.TrimRight(head, " "))
	return setCookie
}
