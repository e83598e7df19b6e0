// Command rhythm-load is a closed-loop load generator for rhythmd: each
// connection logs in once, then issues banking requests back-to-back on
// its keep-alive socket for the run duration. It reports client-side
// throughput and p50/p99/max latency, and — when the server exposes
// /v1/stats — the server-side cohort behaviour over the run window
// (cohorts formed, mean occupancy at launch, timeout-vs-full ratio), so
// batching on the wire is directly visible:
//
//	rhythmd -cohort &
//	rhythm-load -addr 127.0.0.1:8080 -conns 16 -duration 10s
//
// Against a cohort-mode server, rising -conns raises mean occupancy:
// more concurrent requests of a type land inside one formation window.
//
// -rate R switches to open-loop arrivals: requests are released by a
// Poisson process at R req/s total (exponential inter-arrival gaps
// spread across the connections) instead of back-to-back, and latency
// is measured from the scheduled arrival time — so queueing delay shows
// up in the percentiles instead of silently throttling offered load,
// the way a closed loop does.
//
// -rate-schedule runs an open-loop schedule of rate segments instead of
// one fixed rate: "40x2s,1200x3s" offers 40 req/s for 2s then steps to
// 1200 req/s for 3s; "100-2000x10s" ramps linearly from 100 to 2000
// req/s over 10s. The total run length is the sum of the segment
// durations (-duration is ignored). Against a cohort server that does
// not pin a formation timeout this is the way to watch the formation
// controller widen and narrow its windows; with -hist the controller's
// per-type window/threshold gauges are printed after the run.
//
// -slowest N prints the N worst requests with the server-assigned trace
// id from each response's X-Rhythm-Trace header. Slow requests past the
// server's promotion threshold have a full causal flight record —
// formation wait, cohort size, launch seqs, device, failover hops —
// retrievable by that id at /v1/debug/flight (or with cmd/rhythm-flight).
//
// -workload selects one registered workload's canned flow (banking,
// ecom, telemetry) instead of the banking -paths cycle, and -mix drives
// a weighted blend on the same connections: "banking=70,ecom=25,telemetry=5"
// interleaves the three flows deterministically at those per-request
// shares. The ecom flow cycles the catalog reads (index, browse,
// search, product); the telemetry flow subscribes each connection to
// its device stream, then alternates frame ingests with subscriber
// polls and status reads. With either flag the summary gains a
// per-workload breakdown, and -hist prints one latency histogram per
// workload on top of the merged one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhythm"
	"rhythm/internal/backend"
	"rhythm/internal/ecom"
	"rhythm/internal/stats"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "server address")
		conns    = flag.Int("conns", 16, "concurrent keep-alive connections")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		users    = flag.Int("users", 64, "distinct user accounts (deterministic passwords)")
		first    = flag.Uint64("first-user", 1001, "first user id")
		paths    = flag.String("paths", "/account_summary.php,/profile.php,/transfer.php",
			"comma-separated request paths to cycle through")
		hist     = flag.Bool("hist", false, "print the client-side latency histogram (cumulative buckets) with p99.9/max rows and, on adaptive servers, the controller gauges")
		slowest  = flag.Int("slowest", 0, "print the N slowest requests with their server-assigned X-Rhythm-Trace ids (join against /v1/debug/flight)")
		rate     = flag.Float64("rate", 0, "open-loop Poisson arrival rate in req/s across all conns (0 = closed loop)")
		schedule = flag.String("rate-schedule", "", `open-loop rate schedule, e.g. "40x2s,1200x3s" (steps) or "100-2000x10s" (ramp); overrides -rate and -duration`)
		workload = flag.String("workload", "", "drive one registered workload's canned flow (banking, ecom, telemetry) instead of the -paths cycle")
		mixSpec  = flag.String("mix", "", `weighted workload mix per request, e.g. "banking=70,ecom=25,telemetry=5"; overrides -workload`)
	)
	flag.Parse()

	targets := strings.Split(*paths, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}

	mix, err := resolveMix(*workload, *mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhythm-load: %v\n", err)
		os.Exit(2)
	}
	sched := mixSchedule(mix)
	showBreakdown := *workload != "" || *mixSpec != ""

	var segs []rateSegment
	if *schedule != "" {
		var err error
		if segs, err = parseSchedule(*schedule); err != nil {
			fmt.Fprintf(os.Stderr, "rhythm-load: -rate-schedule: %v\n", err)
			os.Exit(2)
		}
		*duration = 0
		for _, s := range segs {
			*duration += s.dur
		}
	} else if *rate > 0 {
		segs = []rateSegment{{from: *rate, to: *rate, dur: *duration}}
	}

	before, beforeOK := fetchStats(*addr)

	results := make([]result, *conns)
	deadline := time.Now().Add(*duration)
	var arrivals chan time.Time
	if len(segs) > 0 {
		arrivals = make(chan time.Time, 65536)
		go pace(arrivals, segs)
	}
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			r.lat = stats.NewLatencyRecorder()
			r.latBy = map[string]*stats.LatencyRecorder{}
			r.okBy = map[string]uint64{}
			uid := *first + uint64(i)%uint64(*users)
			if err := drive(*addr, uid, i, targets, sched, deadline, arrivals, r, *slowest); err != nil {
				r.fail = err
			}
		}(i)
	}
	wg.Wait()

	lat := stats.NewLatencyRecorder()
	latBy := map[string]*stats.LatencyRecorder{}
	okBy := map[string]uint64{}
	var ok, errs uint64
	var slow []slowReq
	failures := 0
	for i := range results {
		if results[i].fail != nil {
			failures++
			fmt.Fprintf(os.Stderr, "rhythm-load: conn %d: %v\n", i, results[i].fail)
			continue
		}
		lat.Merge(results[i].lat)
		for name, l := range results[i].latBy {
			if latBy[name] == nil {
				latBy[name] = stats.NewLatencyRecorder()
			}
			latBy[name].Merge(l)
		}
		for name, n := range results[i].okBy {
			okBy[name] += n
		}
		ok += results[i].ok
		errs += results[i].errs
		for _, s := range results[i].slow {
			slow = addSlow(slow, *slowest, s)
		}
	}
	elapsed := duration.Seconds()

	if *schedule != "" {
		fmt.Printf("rhythm-load: open loop schedule %s (Poisson) over %d conns x %v against %s\n",
			*schedule, *conns, *duration, *addr)
	} else if *rate > 0 {
		fmt.Printf("rhythm-load: open loop %.0f req/s (Poisson) over %d conns x %v against %s\n",
			*rate, *conns, *duration, *addr)
	} else {
		fmt.Printf("rhythm-load: %d conns x %v against %s\n", *conns, *duration, *addr)
	}
	fmt.Printf("  requests:   %d ok, %d non-200 (503/504 shed), %d dead conns\n", ok, errs, failures)
	fmt.Printf("  throughput: %.1f req/s\n", float64(ok)/elapsed)
	fmt.Printf("  latency:    p50 %v  p99 %v  p99.9 %v  max %v\n",
		time.Duration(lat.Percentile(50)), time.Duration(lat.Percentile(99)),
		time.Duration(lat.Percentile(99.9)), time.Duration(lat.Max()))
	if showBreakdown {
		fmt.Println("  per-workload:")
		for _, m := range mix {
			l := latBy[m.name]
			if l == nil {
				continue
			}
			fmt.Printf("    %-10s %8d ok (%5.1f%%)  p50 %v  p99 %v  max %v\n",
				m.name, okBy[m.name], 100*float64(okBy[m.name])/float64(ok),
				time.Duration(l.Percentile(50)), time.Duration(l.Percentile(99)),
				time.Duration(l.Max()))
		}
	}
	if *hist {
		printHistogram(lat, "histogram")
		if showBreakdown {
			for _, m := range mix {
				if latBy[m.name] != nil {
					printHistogram(latBy[m.name], m.name+" histogram")
				}
			}
		}
	}
	if *slowest > 0 {
		printSlowest(slow)
	}

	after, afterOK := fetchStats(*addr)
	if !beforeOK || !afterOK {
		fmt.Println("  (no /v1/stats endpoint reachable: server-side cohort stats skipped)")
		return
	}
	if after.Mode != "cohort" {
		fmt.Printf("  server mode: %s (no cohort batching)\n", after.Mode)
		return
	}
	formed := after.CohortsFormed - before.CohortsFormed
	batched := after.RequestsBatched - before.RequestsBatched
	timedOut := after.CohortsTimedOut - before.CohortsTimedOut
	filled := after.CohortsFilled - before.CohortsFilled
	fmt.Printf("server cohort stats over the run:\n")
	if formed == 0 {
		fmt.Println("  no cohorts launched")
	} else {
		early := after.CohortsEarly - before.CohortsEarly
		fmt.Printf("  cohorts:    %d launched (%d filled, %d timed out, %d early), %d requests batched\n",
			formed, filled, timedOut, early, batched)
		fmt.Printf("  occupancy:  %.2f mean at launch (max seen %d), timeout ratio %.0f%%\n",
			float64(batched)/float64(formed), after.MaxOccupancy, 100*float64(timedOut)/float64(formed))
		fmt.Printf("  formation:  %.2fms mean wait, %.2fms p99 (server lifetime); launch %.0fus mean device time\n",
			after.FormWaitMsMean, after.FormWaitMsP99, after.LaunchDevUsMean)
	}
	if *hist && after.Adapt != nil {
		printAdapt(after)
	}
}

// printAdapt renders the formation controller's per-type gauges — the
// same state /v1/metrics exposes as rhythm_adapt_* families.
func printAdapt(st rhythm.CohortServerStats) {
	ad := st.Adapt
	policy := fmt.Sprintf("adaptive, SLO p99 %.0fms", ad.SLOMs)
	if ad.Pinned {
		policy = "pinned to a fixed formation timeout"
	}
	fmt.Printf("formation controller (%s; %d ticks, retry-after %.1fs):\n",
		policy, ad.Ticks, ad.RetryAfterMs/1e3)
	for _, ts := range ad.Types {
		route := "device"
		if ts.HostRoute {
			route = "host"
		}
		fmt.Printf("  %-24s window %8.0fus  threshold %4d  rate %8.1f req/s  route %-6s  crossover %8.0f req/s\n",
			ts.Type, ts.WindowUs, ts.EarlyThreshold, ts.RateReqS, route, ts.CrossoverReqS)
	}
	fmt.Printf("  host fallbacks: %d\n", st.HostFallbacks)
}

// printHistogram renders the merged latency samples over the same
// fixed buckets the server's /v1/metrics histograms use (octaves from 4.1µs),
// cumulative counts plus a per-bucket bar.
func printHistogram(lat *stats.LatencyRecorder, label string) {
	bounds := stats.LatencyBucketsNs()
	cum := lat.Buckets(bounds)
	total := cum[len(cum)-1]
	if total == 0 {
		fmt.Printf("  %s:  no samples\n", label)
		return
	}
	fmt.Printf("  %s (cumulative):\n", label)
	prev := uint64(0)
	for i, c := range cum {
		label := "+Inf"
		if i < len(bounds) {
			label = time.Duration(bounds[i]).String()
		}
		inBucket := c - prev
		prev = c
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", int(40*inBucket/total))
		fmt.Printf("    le %-8s %8d (%5.1f%%) %s\n", label, c, 100*float64(c)/float64(total), bar)
		if c == total && i < len(bounds) {
			break
		}
	}
	fmt.Printf("    p99.9    %v\n", time.Duration(lat.Percentile(99.9)))
	fmt.Printf("    max      %v\n", time.Duration(lat.Max()))
}

// slowReq is one candidate for the -slowest table: client-observed
// latency plus the server-assigned flight trace ID from the
// X-Rhythm-Trace response header.
type slowReq struct {
	lat    time.Duration
	path   string
	status int
	trace  string
}

// addSlow maintains a slice of the n slowest requests, sorted slowest
// first.
func addSlow(s []slowReq, n int, r ...slowReq) []slowReq {
	for _, c := range r {
		i := len(s)
		for i > 0 && s[i-1].lat < c.lat {
			i--
		}
		if i == n {
			continue
		}
		s = append(s, slowReq{})
		copy(s[i+1:], s[i:])
		s[i] = c
		if len(s) > n {
			s = s[:n]
		}
	}
	return s
}

// printSlowest renders the -slowest table. The trace column joins
// against the server's flight recorder: promoted anomalies show their
// full causal record at /v1/debug/flight (or via rhythm-flight).
func printSlowest(slow []slowReq) {
	if len(slow) == 0 {
		fmt.Println("  slowest:    no samples")
		return
	}
	fmt.Println("  slowest requests (server trace ids; join against /v1/debug/flight):")
	fmt.Printf("    %-12s %-6s %-12s %s\n", "latency", "status", "trace", "path")
	for _, s := range slow {
		trace := s.trace
		if trace == "" {
			trace = "-"
		}
		fmt.Printf("    %-12v %-6d %-12s %s\n", s.lat, s.status, trace, s.path)
	}
}

// result is one connection's tally: overall latency plus the
// per-workload recorders behind the -workload/-mix breakdown.
type result struct {
	lat      *stats.LatencyRecorder
	latBy    map[string]*stats.LatencyRecorder
	okBy     map[string]uint64
	ok, errs uint64
	slow     []slowReq
	fail     error
}

// mixEntry is one workload's weight in the -mix blend.
type mixEntry struct {
	name   string
	weight int
}

// knownWorkloads are the flows this generator can drive; they mirror
// the server's default registry.
var knownWorkloads = map[string]bool{"banking": true, "ecom": true, "telemetry": true}

// resolveMix turns the -workload/-mix flags into a weighted blend.
// Neither flag set is the legacy banking -paths cycle (a banking-only
// mix drives exactly that).
func resolveMix(workload, mixSpec string) ([]mixEntry, error) {
	if mixSpec == "" {
		if workload == "" {
			workload = "banking"
		}
		if !knownWorkloads[workload] {
			return nil, fmt.Errorf("-workload %q: want banking, ecom, or telemetry", workload)
		}
		return []mixEntry{{name: workload, weight: 1}}, nil
	}
	var mix []mixEntry
	seen := map[string]bool{}
	for _, part := range strings.Split(mixSpec, ",") {
		part = strings.TrimSpace(part)
		name, wStr, okCut := strings.Cut(part, "=")
		if !okCut {
			return nil, fmt.Errorf("-mix segment %q: want workload=weight", part)
		}
		name = strings.TrimSpace(name)
		if !knownWorkloads[name] {
			return nil, fmt.Errorf("-mix workload %q: want banking, ecom, or telemetry", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("-mix workload %q repeated", name)
		}
		seen[name] = true
		w, err := strconv.Atoi(strings.TrimSpace(wStr))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-mix segment %q: weight must be a positive integer", part)
		}
		mix = append(mix, mixEntry{name: name, weight: w})
	}
	return mix, nil
}

// mixSchedule expands the weighted blend into a deterministic
// interleaved slot sequence all connections cycle through: one slot per
// weight unit, shuffled with a fixed seed so the workloads blend on the
// wire instead of arriving in runs.
func mixSchedule(mix []mixEntry) []string {
	var slots []string
	for _, m := range mix {
		for k := 0; k < m.weight; k++ {
			slots = append(slots, m.name)
		}
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

// buildReq renders the j'th request of one workload's canned flow on
// one connection. Banking cycles the -paths targets (the session cookie
// is attached by the caller); ecom cycles the catalog reads; telemetry
// subscribes once, then alternates frame ingests with subscriber polls
// and status reads. The connection's uid doubles as the telemetry
// device id, so distinct connections drive distinct streams.
func buildReq(wl string, j, conn int, uid uint64, targets []string) (method, path, body string) {
	switch wl {
	case "banking":
		return "GET", targets[j%len(targets)], ""
	case "ecom":
		switch j % 4 {
		case 0:
			return "GET", "/index.php", ""
		case 1:
			return "GET", "/browse.php?cat=" + ecom.Categories[(j/4)%len(ecom.Categories)], ""
		case 2:
			return "GET", fmt.Sprintf("/search.php?q=kw%d", (conn*131+j)%977), ""
		default:
			return "GET", fmt.Sprintf("/product.php?id=%d", (conn*1009+j*37)%100000), ""
		}
	case "telemetry":
		if j == 0 {
			return "GET", fmt.Sprintf("/t/subscribe?dev=%d&sub=%d", uid, conn), ""
		}
		switch j % 4 {
		case 1, 2:
			return "POST", "/t/ingest", fmt.Sprintf("dev=%d&f=%04x", uid, j&0xffff)
		case 3:
			return "GET", fmt.Sprintf("/t/poll?dev=%d&sub=%d", uid, conn), ""
		default:
			return "GET", fmt.Sprintf("/t/status?dev=%d", uid), ""
		}
	}
	panic("unknown workload " + wl)
}

// rateSegment is one piece of the offered-load schedule: the rate moves
// linearly from `from` to `to` req/s over dur (from == to is a step).
type rateSegment struct {
	from, to float64
	dur      time.Duration
}

// parseSchedule parses "40x2s,1200x3s" / "100-2000x10s" into segments.
func parseSchedule(s string) ([]rateSegment, error) {
	var segs []rateSegment
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		rateStr, durStr, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("segment %q: want RATExDUR or FROM-TOxDUR", part)
		}
		seg := rateSegment{}
		if fromStr, toStr, ramp := strings.Cut(rateStr, "-"); ramp {
			var err1, err2 error
			seg.from, err1 = strconv.ParseFloat(fromStr, 64)
			seg.to, err2 = strconv.ParseFloat(toStr, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("segment %q: bad ramp rates", part)
			}
		} else {
			r, err := strconv.ParseFloat(rateStr, 64)
			if err != nil {
				return nil, fmt.Errorf("segment %q: bad rate", part)
			}
			seg.from, seg.to = r, r
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("segment %q: bad duration", part)
		}
		if seg.from <= 0 || seg.to <= 0 {
			return nil, fmt.Errorf("segment %q: rates must be positive", part)
		}
		seg.dur = d
		segs = append(segs, seg)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("empty schedule")
	}
	return segs, nil
}

// pace releases Poisson arrivals — exponential inter-arrival gaps at
// the schedule's instantaneous rate — onto the shared channel, walking
// the segments in order, then closes it. A fixed seed keeps
// offered-load schedules reproducible across runs.
func pace(arrivals chan<- time.Time, segs []rateSegment) {
	rng := rand.New(rand.NewSource(1))
	next := time.Now()
	segStart := next
	for _, seg := range segs {
		segEnd := segStart.Add(seg.dur)
		if next.Before(segStart) {
			next = segStart
		}
		for {
			// Instantaneous rate at the current offset into the segment
			// (linear interpolation; constant for steps).
			frac := float64(next.Sub(segStart)) / float64(seg.dur)
			r := seg.from + (seg.to-seg.from)*frac
			next = next.Add(time.Duration(rng.ExpFloat64() / r * float64(time.Second)))
			if !next.Before(segEnd) {
				break
			}
			arrivals <- next
		}
		segStart = segEnd
	}
	close(arrivals)
}

// drive runs one connection: a banking login when the mix needs one,
// then requests from the interleaved workload schedule until the
// deadline — back-to-back when arrivals is nil (closed loop), else one
// request per arrival token, with latency measured from the scheduled
// arrival time so queueing delay is charged to the request.
func drive(addr string, uid uint64, connIdx int, targets, sched []string, deadline time.Time, arrivals <-chan time.Time, res *result, slowN int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	var cookie string
	for _, wl := range sched {
		if wl != "banking" {
			continue
		}
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, backend.PasswordFor(uid))
		fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: load\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		status, hdrs, _, err := readResponse(r)
		if err != nil {
			return fmt.Errorf("login read: %w", err)
		}
		if status != 200 {
			return fmt.Errorf("login status %d", status)
		}
		cookie = hdrs["set-cookie"]
		if !strings.HasPrefix(cookie, "MY_ID=") {
			return fmt.Errorf("no session cookie (got %q)", cookie)
		}
		break
	}

	counts := map[string]int{}
	for i := 0; ; i++ {
		var start time.Time
		if arrivals != nil {
			arr, more := <-arrivals
			if !more {
				return nil
			}
			if d := time.Until(arr); d > 0 {
				time.Sleep(d)
			}
			start = arr
		} else {
			if !time.Now().Before(deadline) {
				return nil
			}
		}
		wl := sched[i%len(sched)]
		j := counts[wl]
		counts[wl]++
		method, path, body := buildReq(wl, j, connIdx, uid, targets)
		if arrivals == nil {
			// Closed loop: charge latency from immediately before the
			// request hits the wire, not from the loop iteration start,
			// so client-side bookkeeping never inflates the percentiles.
			start = time.Now()
		}
		switch {
		case method == "POST":
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: load\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body)
		case wl == "banking":
			fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: load\r\nCookie: %s\r\n\r\n", path, cookie)
		default:
			fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: load\r\n\r\n", path)
		}
		status, rhdrs, _, err := readResponse(r)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		elapsed := time.Since(start)
		res.lat.Record(float64(elapsed))
		if res.latBy[wl] == nil {
			res.latBy[wl] = stats.NewLatencyRecorder()
		}
		res.latBy[wl].Record(float64(elapsed))
		if status == 200 {
			res.ok++
			res.okBy[wl]++
		} else {
			res.errs++
		}
		if slowN > 0 {
			res.slow = addSlow(res.slow, slowN, slowReq{
				lat: elapsed, path: path, status: status, trace: rhdrs["x-rhythm-trace"],
			})
		}
	}
}

// readResponse reads one HTTP/1.1 response with a Content-Length body.
// Header names are lower-cased in the returned map.
func readResponse(r *bufio.Reader) (int, map[string]string, []byte, error) {
	statusLine, err := r.ReadString('\n')
	if err != nil {
		return 0, nil, nil, err
	}
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 {
		return 0, nil, nil, fmt.Errorf("bad status line %q", statusLine)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("bad status line %q", statusLine)
	}
	hdrs := map[string]string{}
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return 0, nil, nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		k, v, _ := strings.Cut(line, ":")
		hdrs[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	if v, ok := hdrs["content-length"]; ok {
		if cl, err = strconv.Atoi(v); err != nil || cl < 0 {
			return 0, nil, nil, fmt.Errorf("bad content length %q", v)
		}
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, nil, err
	}
	return status, hdrs, body, nil
}

// fetchStats grabs /v1/stats on a throwaway connection.
func fetchStats(addr string) (rhythm.CohortServerStats, bool) {
	var st rhythm.CohortServerStats
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return st, false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: load\r\n\r\n", rhythm.StatsPathV1)
	status, _, body, err := readResponse(bufio.NewReader(conn))
	if err != nil || status != 200 {
		return st, false
	}
	if json.Unmarshal(body, &st) != nil {
		return st, false
	}
	return st, true
}
