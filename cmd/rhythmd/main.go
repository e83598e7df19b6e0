// Command rhythmd serves the registered Rhythm workloads — SPECWeb2009
// Banking, SPECWeb E-commerce, and streaming telemetry — over real TCP.
// -workloads restricts the set (e.g. -workloads banking).
//
// It runs one server, the paper's live cohort path: requests are
// classified, and the formation controller either answers a request at
// once on the host path of the device that owns its state (a request
// type arriving too slowly for batching to pay) or batches it into a
// cohort executed as stage kernels on the modeled SIMT device. Without
// -cohort the controller is pinned to the host route, the conventional
// server the paper measures against: every request runs the same
// services the SIMT kernels run, on the connection that received it, so
// the pages are byte-identical to what the device pipeline generates.
// Either way, poke it with curl or drive it with cmd/rhythm-load; live
// counters are at /v1/stats, whose "mode" is "host" for the pinned
// server and "cohort" otherwise.
//
// Usage:
//
//	rhythmd [-addr :8080] [-workloads banking,ecom,telemetry] [-seed-users 8] [-cohort]
//	        [-cohort-size 128] [-contexts 4] [-formation-timeout 0]
//	        [-deadline 5s] [-profile-off] [-sim-parallelism 0]
//	        [-pprof 127.0.0.1:6060]
//	        [-devices 4] [-fault-plan faults.json]
//	        [-slo-p99 50ms] [-adapt-crossover 300]
//	        [-render-cache 4096]
//	        [-flight-ring 256] [-flight-slow 250ms]
//	        [-health-objective 0.99] [-health-fast-window 5m] [-health-slow-window 1h]
//	        [-loopback-nodes 4] [-nodes host1:9001,host2:9001] [-link-gbps 10]
//	        [-node-fault-plan nodefaults.json] [-workload-quota banking=0.5,ecom=0.3]
//
// Worker mode (DESIGN.md §17):
//
//	rhythmd -worker [-addr :9001] [-devices 4] [-groups 16]
//	        [-workloads banking,ecom,telemetry] [-cohort-size 128] [-contexts 4]
//
// -worker turns the process into one device-fabric node: a cluster of
// modeled SIMT devices behind a listener speaking the fabric's
// multiplexed wire protocol, no HTTP. A cohort-mode frontend started
// with -nodes ships formed cohorts to the workers; -groups is the
// GLOBAL shard-group table size and must be identical on every worker
// of one fabric (the frontend adopts it at dial time). All workers must
// also serve the same -workloads in the same order — the hello
// handshake fingerprints the registry. SIGTERM quiesces: the node
// completes every launched cohort (its writes commit exactly once),
// NACKs the rest, says bye, and exits; the frontend re-routes its
// groups with recorded hops.
//
// -loopback-nodes N splits the frontend's own device pool into N
// in-process fabric nodes (same routing, no sockets); -link-gbps
// budgets each node's link (NIC for tcp, modeled PCIe for loopback),
// shedding 503s at saturation; -workload-quota caps named workloads'
// shares of admission capacity. The node-level view is at /v1/topology.
//
// -render-cache N enables the whole-page render cache (DESIGN.md §14):
// repeated read-only requests are answered from memory,
// bypassing execution and kernel launch, and are invalidated per user
// when a backend write commits, so responses stay byte-identical to a
// fresh render. Cache counters appear in /v1/stats and as
// rhythm_render_cache_* in /v1/metrics.
//
// Cohort formation has one policy, the adaptive controller (DESIGN.md
// §12): each request type's window and early-launch threshold track its
// arrival rate against a p99 target (-slo-p99, default 50ms), and below
// the crossover rate (explicit via -adapt-crossover, else derived from
// the measured service model; negative disables) requests are served on
// the scalar host path. -formation-timeout pins the controller to the
// paper's fixed §3.1 policy instead — launch when full or after that
// long, never route to the host — unless -slo-p99 is given beside it.
// Controller state appears under "adapt" in /v1/stats and as
// rhythm_adapt_* in /v1/metrics.
//
// -devices N shards session and account state across N modeled SIMT
// devices with session-affinity routing and failover; -fault-plan
// injects a deterministic device-fault schedule (JSON, see DESIGN.md
// §11) for failover drills. Per-device counters appear under "devices"
// in /v1/stats and as rhythm_cluster_* in /v1/metrics.
//
// Observability: Prometheus counters and histograms at
// /v1/metrics, request-lifecycle traces (Chrome trace-event JSON,
// loadable in Perfetto) at /v1/trace?secs=N, raw JSON counters at
// /v1/stats. -pprof starts a
// net/http/pprof side listener for Go runtime profiles of the serving
// process itself.
//
// Tail-latency debugging (DESIGN.md §15): every request is
// assigned a trace ID, echoed in the X-Rhythm-Trace response header.
// Slow, errored, shed, and deadline-missed requests are promoted into
// the flight recorder's bounded anomaly ring, browsable at
// /v1/debug/flight?n=N (&format=chrome exports Perfetto-loadable
// trace events; see also cmd/rhythm-flight). /v1/health reports the
// SLO burn-rate verdict (ok/warn/critical) with per-type burn rates and
// the top contributing flight exemplars. -flight-slow pins the slow
// threshold (default: adaptive p99), -flight-ring sizes the ring, and
// the -health-* flags tune the burn windows.
//
// It prints demo credentials at startup; log in with
// POST /login.php (userid, passwd) and browse. SIGINT/SIGTERM drains
// gracefully (partial cohorts flush before exit).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rhythm"
	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
	"rhythm/internal/simt"
	"rhythm/internal/workloads"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workloadsF  = flag.String("workloads", "", "comma-separated workloads to serve (banking,ecom,telemetry; empty = all)")
		seedUsers   = flag.Int("seed-users", 8, "demo user accounts to print credentials for")
		cohortOn    = flag.Bool("cohort", false, "let the formation controller batch requests into cohorts on the modeled devices (without it, every request takes the host route)")
		size        = flag.Int("cohort-size", 128, "requests per cohort")
		contexts    = flag.Int("contexts", 4, "cohort contexts in flight per device")
		formation   = flag.Duration("formation-timeout", 0, "pin the paper's fixed formation timeout (0 = adaptive, negative = never time out)")
		deadline    = flag.Duration("deadline", 5*time.Second, "per-request deadline incl. formation delay")
		profileOff  = flag.Bool("profile-off", false, "disable the kernel-launch profiler")
		simPar      = flag.Int("sim-parallelism", 0, "host workers per device for independent kernel launches (0 = all cores, 1 = serial; results identical)")
		pprofAddr   = flag.String("pprof", "", "start a net/http/pprof listener on this address (e.g. 127.0.0.1:6060)")
		devices     = flag.Int("devices", 1, "SIMT devices in the pool")
		faultPlan   = flag.String("fault-plan", "", "JSON device-fault schedule to inject")
		sloP99      = flag.Duration("slo-p99", 0, "p99 latency target of the adaptive formation controller; also the /v1/health latency target (0 = 50ms, and 250ms for health)")
		crossover   = flag.Float64("adapt-crossover", 0, "host/device routing crossover in req/s (0 = derive from service model, <0 = never route to host)")
		renderCache = flag.Int("render-cache", 0, "enable the whole-page render cache bounded to N entries (0 = off)")
		flightRing  = flag.Int("flight-ring", 0, "flight-recorder anomaly ring size (0 = 256)")
		flightSlow  = flag.Duration("flight-slow", 0, "explicit slow-promotion latency threshold for the flight recorder (0 = adaptive p99)")
		healthObj   = flag.Float64("health-objective", 0, "/v1/health burn-rate objective, the target good fraction (0 = 0.99)")
		healthFast  = flag.Duration("health-fast-window", 0, "/v1/health fast burn window (0 = 5m)")
		healthSlowW = flag.Duration("health-slow-window", 0, "/v1/health slow burn window (0 = 1h)")
		workerOn    = flag.Bool("worker", false, "run as a device-fabric worker node (wire protocol, no HTTP; see -nodes)")
		groups      = flag.Int("groups", 0, "GLOBAL shard-group table size (worker mode; must match across all workers of one fabric; 0 = -devices)")
		nodesF      = flag.String("nodes", "", "comma-separated worker addresses: ship cohorts to remote rhythmd -worker processes")
		loopNodes   = flag.Int("loopback-nodes", 0, "split the device pool into N in-process fabric nodes (0 = classic single-node)")
		linkGbps    = flag.Float64("link-gbps", 0, "per-node link budget in Gbit/s, shedding 503s at saturation (0 = unmetered)")
		nodeFaults  = flag.String("node-fault-plan", "", "JSON node-fault schedule killing whole fabric nodes")
		quotasF     = flag.String("workload-quota", "", "per-workload admission shares, e.g. banking=0.5,ecom=0.3")
	)
	flag.Parse()

	if *workerOn {
		runWorker(*addr, *workloadsF, *devices, *groups, *size, *contexts, *faultPlan)
		return
	}

	var plan *cluster.FaultPlan
	if *faultPlan != "" {
		var err error
		if plan, err = cluster.LoadFaultPlan(*faultPlan); err != nil {
			log.Fatalf("rhythmd: -fault-plan: %v", err)
		}
	}

	if *pprofAddr != "" {
		// Side listener only: the banking port keeps its hand-rolled
		// HTTP path, pprof gets the stdlib mux it needs.
		go func() {
			log.Printf("rhythmd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("rhythmd: pprof listener: %v", err)
			}
		}()
	}

	var opts []rhythm.Option
	if *workloadsF != "" {
		opt, err := rhythm.WithWorkloads(strings.Split(*workloadsF, ",")...)
		if err != nil {
			log.Fatalf("rhythmd: -workloads: %v", err)
		}
		opts = append(opts, opt)
	}
	opts = append(opts,
		rhythm.WithDevices(*devices),
		rhythm.WithFormation(*size, *contexts**devices, *formation),
		rhythm.WithSLO(*sloP99),
		rhythm.WithCrossoverRate(*crossover),
		rhythm.WithRequestDeadline(*deadline),
	)
	if *profileOff {
		opts = append(opts, rhythm.WithProfileOff())
	}
	if *simPar != 0 {
		opts = append(opts, rhythm.WithSimParallelism(*simPar))
	}
	if plan != nil {
		opts = append(opts, rhythm.WithFaultPlan(plan))
	}
	if *nodesF != "" {
		opts = append(opts, rhythm.WithNodes(strings.Split(*nodesF, ",")...))
	}
	if *loopNodes > 0 {
		opts = append(opts, rhythm.WithLoopbackNodes(*loopNodes))
	}
	if *linkGbps > 0 {
		opts = append(opts, rhythm.WithLinkBudget(*linkGbps*1e9/8))
	}
	if *nodeFaults != "" {
		plan, err := fabric.LoadNodeFaultPlan(*nodeFaults)
		if err != nil {
			log.Fatalf("rhythmd: -node-fault-plan: %v", err)
		}
		opts = append(opts, rhythm.WithNodeFaultPlan(plan))
	}
	if *quotasF != "" {
		for _, kv := range strings.Split(*quotasF, ",") {
			name, val, ok := strings.Cut(kv, "=")
			if !ok {
				log.Fatalf("rhythmd: -workload-quota: %q is not name=share", kv)
			}
			share, err := strconv.ParseFloat(val, 64)
			if err != nil {
				log.Fatalf("rhythmd: -workload-quota %q: %v", kv, err)
			}
			opts = append(opts, rhythm.WithWorkloadQuota(name, share))
		}
	}
	if !*cohortOn {
		// Last, so it wins over the formation and crossover options.
		opts = append(opts, rhythm.WithHostExecution())
	}
	if *renderCache > 0 {
		opts = append(opts, rhythm.WithRenderCache(*renderCache))
	}
	if *flightRing != 0 || *flightSlow != 0 {
		opts = append(opts, rhythm.WithFlightRecorder(*flightRing, *flightSlow))
	}
	if *healthObj != 0 || *healthFast != 0 || *healthSlowW != 0 {
		opts = append(opts, rhythm.WithHealthSLO(*healthObj, *healthFast, *healthSlowW))
	}

	srv, err := rhythm.New(*addr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	served := *workloadsF
	if served == "" {
		served = "banking,ecom,telemetry"
	}
	st := srv.Snapshot().Cohort
	fmt.Printf("rhythmd: serving %s on http://%s (%s mode: devices=%d size=%d contexts=%d formation=%s)\n",
		served, srv.Addr(), st.Mode, *devices, *size, *contexts**devices, policy(st))
	printCreds(srv.Addr().String(), *seedUsers, srv.Seed)

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		waitForSignal()
		fmt.Println("rhythmd: draining (flushing partial cohorts)...")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("rhythmd: drain: %v", err)
		}
	}()
	if err := srv.Serve(); err != nil {
		log.Fatal(err)
	}
	<-drained
	report(srv.Snapshot())
}

// runWorker hosts one device-fabric node: a cluster of modeled SIMT
// devices behind a listener speaking the wire protocol (DESIGN.md §17).
// SIGTERM/SIGINT quiesces — every launched cohort completes and ships
// its result, the rest NACK, every frontend gets a bye — then exits.
func runWorker(addr, workloadsF string, devices, groups, size, contexts int, faultPlan string) {
	reg := rhythm.DefaultRegistry()
	if workloadsF != "" {
		var err error
		if reg, err = workloads.Named(strings.Split(workloadsF, ",")...); err != nil {
			log.Fatalf("rhythmd: -workloads: %v", err)
		}
	}
	var plan *cluster.FaultPlan
	if faultPlan != "" {
		var err error
		if plan, err = cluster.LoadFaultPlan(faultPlan); err != nil {
			log.Fatalf("rhythmd: -fault-plan: %v", err)
		}
	}
	// Session-array geometry must match the frontend's defaults so a
	// request stream produces identical session ids wherever it lands.
	w := fabric.NewWorker(fabric.WorkerConfig{
		Registry:              reg,
		Devices:               devices,
		Groups:                groups,
		CohortSize:            size,
		SlotsPerDevice:        contexts,
		SessionBuckets:        256,
		SessionNodesPerBucket: (1<<16)/256*4 + 4,
		Simt:                  simt.GTXTitan(),
		Faults:                plan,
	})
	if err := w.Listen(addr); err != nil {
		log.Fatalf("rhythmd: worker listen: %v", err)
	}
	if groups == 0 {
		groups = devices
	}
	fmt.Printf("rhythmd: worker node on %s (devices=%d groups=%d cohort-size=%d contexts=%d)\n",
		w.Addr(), devices, groups, size, contexts)
	go func() {
		waitForSignal()
		fmt.Println("rhythmd: worker quiescing (draining launched cohorts)...")
		w.Quiesce()
		// Let the result and bye frames flush to every frontend before
		// the listener and connections die.
		time.Sleep(500 * time.Millisecond)
		w.Close()
	}()
	if err := w.Serve(); err != nil {
		log.Fatalf("rhythmd: worker serve: %v", err)
	}
	fmt.Println("rhythmd: worker drained, exiting")
}

func report(snap rhythm.ServerStats) {
	st := snap.Cohort
	fmt.Printf("rhythmd: served %d responses, %d cohorts (%.1f mean occupancy, %d timed out, %d early), host_fallbacks=%d\n",
		st.Served, st.CohortsFormed, st.MeanOccupancy, st.CohortsTimedOut, st.CohortsEarly, st.HostFallbacks)
	fmt.Printf("rhythmd: formation %s, %d controller ticks\n", policy(st), st.Adapt.Ticks)
	if len(st.Devices) > 1 {
		for _, d := range st.Devices {
			fmt.Printf("rhythmd: device %d: %s, %d units, %.1fms virtual time\n",
				d.ID, d.Health, d.UnitsDone, d.VirtualTimeUs/1e3)
		}
		fmt.Printf("rhythmd: failovers=%d retries=%d shed=%d\n", st.Failovers, st.DeviceRetries, st.ShedCohorts)
	}
}

// policy names the formation policy in force, as the controller reports
// it: adaptive to a p99 target, or pinned to the host route or to the
// type-independent window.
func policy(st *rhythm.CohortServerStats) string {
	if st.Adapt.HostPinned {
		return "pinned (host route)"
	}
	if !st.Adapt.Pinned {
		return fmt.Sprintf("adaptive (p99 target %gms)", st.Adapt.SLOMs)
	}
	if st.Adapt.PinWindowUs < 0 {
		return "pinned (no timeout)"
	}
	return fmt.Sprintf("pinned (timeout %gms)", st.Adapt.PinWindowUs/1e3)
}

func printCreds(addr string, seedUsers int, seed func(uint64) (uint64, string)) {
	fmt.Println("demo credentials (POST /login.php with userid & passwd):")
	for i := 1; i <= seedUsers; i++ {
		uid, pw := seed(uint64(1000 + i))
		fmt.Printf("  userid=%d passwd=%s\n", uid, pw)
	}
	fmt.Println("example:")
	uid, pw := seed(1001)
	fmt.Printf("  curl -si -c /tmp/jar -d 'userid=%d&passwd=%s' http://%s/login.php | head -5\n", uid, pw, addr)
	fmt.Printf("  curl -si -b /tmp/jar http://%s/account_summary.php | head -20\n", addr)
	fmt.Printf("  curl -s http://%s/v1/stats\n", addr)
	fmt.Printf("  curl -s http://%s/v1/metrics\n", addr)
	fmt.Printf("  curl -s 'http://%s/v1/trace?secs=5' > trace.json   # load in Perfetto\n", addr)
	fmt.Printf("  curl -s http://%s/v1/health\n", addr)
	fmt.Printf("  curl -s 'http://%s/v1/debug/flight?n=20'\n", addr)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
