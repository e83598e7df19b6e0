#!/usr/bin/env bash
# End-to-end smoke test: boot rhythmd pinned to the host route and in
# cohort mode, drive the same login -> account_summary -> logout flow
# through both over real HTTP, and diff the response bodies. The cohort path renders
# pages through SIMT stage kernels on the modeled device, so any
# divergence from the host path is a correctness bug, not formatting
# noise. Runs under CI but works locally too: .github/scripts/e2e-smoke.sh
set -euo pipefail

BIN=${BIN:-$(mktemp -d)/rhythmd}
LOADBIN=${LOADBIN:-$(dirname "$BIN")/rhythm-load}
FLIGHTBIN=${FLIGHTBIN:-$(dirname "$BIN")/rhythm-flight}
HOST_ADDR=127.0.0.1:18601
COHORT_ADDR=127.0.0.1:18602
CLUSTER_ADDR=127.0.0.1:18603
ADAPT_ADDR=127.0.0.1:18604
CACHEH_ADDR=127.0.0.1:18605
CACHEC_ADDR=127.0.0.1:18606
FLIGHT_ADDR=127.0.0.1:18607
MIX_ADDR=127.0.0.1:18608
SCALE_ADDR=127.0.0.1:18609
W0_ADDR=127.0.0.1:18610
W1_ADDR=127.0.0.1:18611
DEFAULT_ADDR=127.0.0.1:18612
WORK=$(mktemp -d)
trap 'kill $HOST_PID $COHORT_PID $CLUSTER_PID $ADAPT_PID $CACHEH_PID $CACHEC_PID $FLIGHT_PID $MIX_PID $W0_PID $W1_PID $SCALE_PID $DEFAULT_PID 2>/dev/null || true; wait 2>/dev/null || true' EXIT

if [ ! -x "$BIN" ]; then
    go build -o "$BIN" ./cmd/rhythmd
fi
if [ ! -x "$LOADBIN" ]; then
    go build -o "$LOADBIN" ./cmd/rhythm-load
fi
if [ ! -x "$FLIGHTBIN" ]; then
    go build -o "$FLIGHTBIN" ./cmd/rhythm-flight
fi

# Fault plan for the multi-device leg: kill the device that owns the
# demo user's shard group (userid 1001 hashes to bucket 131, group
# 131%4 = 3 — deterministic, same hash the server uses) right after its
# first cohort. The login lands cleanly, then the device is lost and
# the rest of the session must fail over with identical pages.
cat >"$WORK/faults.json" <<'EOF'
{"faults": [{"device": 3, "kind": "loss", "after_units": 1}]}
EOF

"$BIN" -addr "$HOST_ADDR" >"$WORK/host.log" 2>&1 &
HOST_PID=$!
"$BIN" -cohort -addr "$COHORT_ADDR" -cohort-size 8 -formation-timeout 2ms >"$WORK/cohort.log" 2>&1 &
COHORT_PID=$!
"$BIN" -cohort -addr "$CLUSTER_ADDR" -cohort-size 8 -formation-timeout 2ms \
    -devices 4 -fault-plan "$WORK/faults.json" >"$WORK/cluster.log" 2>&1 &
CLUSTER_PID=$!
# Default leg: -cohort and no formation flags, so the controller runs
# adaptive at its default target. A one-at-a-time curl flow is below any
# crossover: every page is answered on the host route of the owning
# device, byte-identical, and no cohort forms. Every other cohort leg
# pins -formation-timeout 2ms, the paper's fixed policy.
"$BIN" -cohort -addr "$DEFAULT_ADDR" >"$WORK/default.log" 2>&1 &
DEFAULT_PID=$!
# Adaptive leg: p99 SLO drives the formation controller; crossover 300
# req/s routes the low-rate curl flow to the scalar host path while the
# rhythm-load step to 1200 req/s must flip it back to batching with
# early (threshold) launches.
"$BIN" -cohort -addr "$ADAPT_ADDR" -cohort-size 32 -formation-timeout 2ms \
    -slo-p99 50ms -adapt-crossover 300 >"$WORK/adapt.log" 2>&1 &
ADAPT_PID=$!
# Render-cache legs: the same host and cohort servers with the
# whole-page cache enabled. The session below is replayed twice; the
# second pass must be served from the cache with unchanged bytes.
"$BIN" -addr "$CACHEH_ADDR" -render-cache 4096 >"$WORK/cacheh.log" 2>&1 &
CACHEH_PID=$!
"$BIN" -cohort -addr "$CACHEC_ADDR" -cohort-size 8 -formation-timeout 2ms \
    -render-cache 4096 >"$WORK/cachec.log" 2>&1 &
CACHEC_PID=$!
# Flight-recorder leg: same multi-device fault injection as the cluster
# leg, but with the slow-promotion threshold pinned below the 2ms
# formation timeout so every device-path request is promoted into the
# anomaly ring — the injected loss must then surface as a retained
# record carrying the full failover attempt trail.
"$BIN" -cohort -addr "$FLIGHT_ADDR" -cohort-size 8 -formation-timeout 2ms \
    -devices 4 -fault-plan "$WORK/faults.json" -flight-slow 1ms \
    >"$WORK/flight.log" 2>&1 &
FLIGHT_PID=$!
# Mixed-workload leg: all three registered workloads (banking, ecom,
# streaming telemetry) on one 4-device cohort cluster. Each workload's
# pages must be byte-identical to the scalar host path, the versioned
# stats must namespace types by workload, and the telemetry fan-out
# must deliver every published frame to every subscriber in order.
"$BIN" -cohort -addr "$MIX_ADDR" -cohort-size 8 -formation-timeout 2ms \
    -devices 4 -workloads banking,ecom,telemetry >"$WORK/mix.log" 2>&1 &
MIX_PID=$!
# Scale-out leg (DESIGN.md §17): two rhythmd -worker processes host the
# modeled devices behind the fabric wire protocol, and a cohort frontend
# ships formed cohorts to them over TCP. Every page must still be
# byte-identical to the host path, and SIGTERMing a worker mid-run must
# quiesce it (exactly-once writes) while the frontend fails its groups
# over to the survivor.
"$BIN" -worker -addr "$W0_ADDR" -devices 2 -groups 4 -cohort-size 8 \
    >"$WORK/w0.log" 2>&1 &
W0_PID=$!
"$BIN" -worker -addr "$W1_ADDR" -devices 2 -groups 4 -cohort-size 8 \
    >"$WORK/w1.log" 2>&1 &
W1_PID=$!
for w in w0 w1; do
    for _ in $(seq 1 50); do
        grep -q 'worker node on' "$WORK/$w.log" && break
        sleep 0.1
    done
    grep -q 'worker node on' "$WORK/$w.log" || {
        echo "e2e-smoke: fabric worker $w never came up" >&2
        cat "$WORK/$w.log" >&2
        exit 1
    }
done
"$BIN" -cohort -addr "$SCALE_ADDR" -cohort-size 8 -formation-timeout 2ms \
    -nodes "$W0_ADDR,$W1_ADDR" >"$WORK/scale.log" 2>&1 &
SCALE_PID=$!

wait_ready() {
    for _ in $(seq 1 50); do
        if curl -sf "http://$1/v1/stats" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "e2e-smoke: server on $1 never became ready" >&2
    cat "$WORK"/*.log >&2
    return 1
}
wait_ready "$HOST_ADDR"
wait_ready "$COHORT_ADDR"
wait_ready "$CLUSTER_ADDR"
wait_ready "$ADAPT_ADDR"
wait_ready "$CACHEH_ADDR"
wait_ready "$CACHEC_ADDR"
wait_ready "$FLIGHT_ADDR"
wait_ready "$MIX_ADDR"
wait_ready "$SCALE_ADDR"
wait_ready "$DEFAULT_ADDR"

# Demo credentials are deterministic; both modes print the same list.
CRED=$(grep -m1 '^  userid=' "$WORK/host.log")
USERID=$(echo "$CRED" | sed -n 's/.*userid=\([0-9]*\).*/\1/p')
PASSWD=$(echo "$CRED" | sed -n 's/.*passwd=\([^ ]*\).*/\1/p')
echo "e2e-smoke: driving userid=$USERID through every mode"

# drive <name> <addr>: login, browse, logout; bodies land in $WORK/<name>.*
drive() {
    local name=$1 addr=$2 jar="$WORK/$1.jar"
    curl -sf -c "$jar" -d "userid=$USERID&passwd=$PASSWD" \
        -o "$WORK/$name.login" "http://$addr/login.php"
    curl -sf -b "$jar" -o "$WORK/$name.summary" "http://$addr/account_summary.php"
    curl -sf -b "$jar" -o "$WORK/$name.profile" "http://$addr/profile.php"
    curl -sf -b "$jar" -o "$WORK/$name.logout" "http://$addr/logout.php"
}
drive host "$HOST_ADDR"
drive cohort "$COHORT_ADDR"
drive cluster "$CLUSTER_ADDR"
drive adapt "$ADAPT_ADDR"
drive flight "$FLIGHT_ADDR"
drive mix "$MIX_ADDR"
drive scale "$SCALE_ADDR"
drive default "$DEFAULT_ADDR"

# drive_ecom <name> <addr>: the e-commerce catalog pages plus a
# cart -> checkout session (the cart POST mints the EC_ID cookie).
drive_ecom() {
    local name=$1 addr=$2 jar="$WORK/$1.ecom.jar"
    curl -sf -o "$WORK/$name.ec_index" "http://$addr/index.php"
    curl -sf -o "$WORK/$name.ec_browse" "http://$addr/browse.php?cat=books"
    curl -sf -o "$WORK/$name.ec_search" "http://$addr/search.php?q=lamp"
    curl -sf -o "$WORK/$name.ec_product" "http://$addr/product.php?id=4242"
    curl -sf -c "$jar" -d "uid=9001&id=4242&qty=2" \
        -o "$WORK/$name.ec_cart" "http://$addr/cart.php"
    curl -sf -b "$jar" -d "" -o "$WORK/$name.ec_checkout" "http://$addr/checkout.php"
}
# drive_telemetry <name> <addr>: two subscribers on one device stream,
# three published frames, then both cursors drained plus the status
# page. Cookie-less: the device id is the affinity key.
drive_telemetry() {
    local name=$1 addr=$2 f
    curl -sf -o "$WORK/$name.t_sub1" "http://$addr/t/subscribe?dev=42&sub=1"
    curl -sf -o "$WORK/$name.t_sub2" "http://$addr/t/subscribe?dev=42&sub=2"
    for f in 00aa 00ab 00ac; do
        curl -sf -d "dev=42&f=$f" -o "$WORK/$name.t_ingest_$f" "http://$addr/t/ingest"
    done
    curl -sf -o "$WORK/$name.t_poll1" "http://$addr/t/poll?dev=42&sub=1"
    curl -sf -o "$WORK/$name.t_poll2" "http://$addr/t/poll?dev=42&sub=2"
    curl -sf -o "$WORK/$name.t_status" "http://$addr/t/status?dev=42"
}
drive_ecom host "$HOST_ADDR"
drive_ecom mix "$MIX_ADDR"
drive_ecom scale "$SCALE_ADDR"
drive_telemetry host "$HOST_ADDR"
drive_telemetry mix "$MIX_ADDR"
drive_telemetry scale "$SCALE_ADDR"

# drive_twice <name> <addr>: like drive, but browse the authenticated
# pages twice before logging out. Against a -render-cache server the
# second pass is served from the cache; both passes must match the
# uncached host's bytes exactly.
drive_twice() {
    local name=$1 addr=$2 jar="$WORK/$1.jar"
    curl -sf -c "$jar" -d "userid=$USERID&passwd=$PASSWD" \
        -o "$WORK/$name.login" "http://$addr/login.php"
    curl -sf -b "$jar" -o "$WORK/$name.summary" "http://$addr/account_summary.php"
    curl -sf -b "$jar" -o "$WORK/$name.profile" "http://$addr/profile.php"
    curl -sf -b "$jar" -o "$WORK/$name.summary2" "http://$addr/account_summary.php"
    curl -sf -b "$jar" -o "$WORK/$name.profile2" "http://$addr/profile.php"
    curl -sf -b "$jar" -o "$WORK/$name.logout" "http://$addr/logout.php"
}
drive_twice cacheh "$CACHEH_ADDR"
drive_twice cachec "$CACHEC_ADDR"

# The modes must render byte-identical pages (cookies live in
# headers; only bodies are compared here — the in-repo differential
# test covers full-response identity for every request type). The
# cluster leg loses its device mid-session, so identity there also
# proves the failover/idempotency contract end to end.
for page in login summary profile logout; do
    for mode in cohort cluster adapt flight mix scale default; do
        if ! diff -q "$WORK/host.$page" "$WORK/$mode.$page"; then
            echo "e2e-smoke: $page body differs between host and $mode mode" >&2
            diff "$WORK/host.$page" "$WORK/$mode.$page" | head -20 >&2 || true
            exit 1
        fi
    done
done
grep -q "Account Summary" "$WORK/host.summary" || {
    echo "e2e-smoke: summary page missing expected content" >&2
    exit 1
}

# Per-workload byte identity on the mixed 4-device leg: every ecom and
# telemetry page the SIMT cohort path rendered must match the scalar
# host path exactly, same as the banking pages above.
for page in ec_index ec_browse ec_search ec_product ec_cart ec_checkout \
    t_sub1 t_sub2 t_ingest_00aa t_ingest_00ab t_ingest_00ac \
    t_poll1 t_poll2 t_status; do
    for mode in mix scale; do
        if ! diff -q "$WORK/host.$page" "$WORK/$mode.$page"; then
            echo "e2e-smoke: $page body differs between host and $mode mode" >&2
            diff "$WORK/host.$page" "$WORK/$mode.$page" | head -20 >&2 || true
            exit 1
        fi
    done
done
grep -q "Thank you for your order" "$WORK/host.ec_checkout" || {
    echo "e2e-smoke: checkout page missing order confirmation" >&2
    head -5 "$WORK/host.ec_checkout" >&2
    exit 1
}
# Telemetry fan-out: both subscribers must have drained all three
# published frames, in sequence order, with nothing lost to the ring.
for poll in t_poll1 t_poll2; do
    grep -q 'lost=0' "$WORK/mix.$poll" || {
        echo "e2e-smoke: telemetry $poll reports lost frames" >&2
        head -5 "$WORK/mix.$poll" >&2
        exit 1
    }
    for frame in '0:00aa' '1:00ab' '2:00ac'; do
        grep -Eq "^ *$frame" "$WORK/mix.$poll" || {
            echo "e2e-smoke: telemetry $poll missing frame $frame" >&2
            head -10 "$WORK/mix.$poll" >&2
            exit 1
        }
    done
done

# Render-cache legs: every page of both passes must be byte-identical
# to the uncached host path (a cache hit may not be distinguishable
# from a fresh render), and the servers must actually have served the
# second pass from the cache.
check_cache_leg() {
    local name=$1 addr=$2 page ref cstats
    for page in login summary profile summary2 profile2 logout; do
        ref=${page%2}
        if ! diff -q "$WORK/host.$ref" "$WORK/$name.$page"; then
            echo "e2e-smoke: $page body differs between host and $name (-render-cache) mode" >&2
            diff "$WORK/host.$ref" "$WORK/$name.$page" | head -20 >&2 || true
            exit 1
        fi
    done
    cstats=$(curl -sf "http://$addr/v1/stats")
    echo "$cstats" | grep -Eq '"cache_hits": [1-9]' || {
        echo "e2e-smoke: $name served no cache hits after the session replay: $cstats" >&2
        exit 1
    }
    echo "$cstats" | grep -Eq '"cache_misses": [1-9]' || {
        echo "e2e-smoke: $name recorded no cache misses on the first pass: $cstats" >&2
        exit 1
    }
}
check_cache_leg cacheh "$CACHEH_ADDR"
check_cache_leg cachec "$CACHEC_ADDR"

# The cohort server must actually have batched through the device path.
STATS=$(curl -sf "http://$COHORT_ADDR/v1/stats")
echo "$STATS" | grep -q '"mode": "cohort"' || {
    echo "e2e-smoke: cohort stats endpoint wrong: $STATS" >&2
    exit 1
}
echo "$STATS" | grep -q '"cohorts_formed": 0' && {
    echo "e2e-smoke: cohort server formed no cohorts: $STATS" >&2
    exit 1
}

# The host leg is the same server pinned to the host route: every page
# answered there, nothing formed, whatever the traffic.
HSTATS=$(curl -sf "http://$HOST_ADDR/v1/stats")
for needle in '"mode": "host"' '"host_fallbacks": [1-9]' '"cohorts_formed": 0,' '"host_pinned": true'; do
    echo "$HSTATS" | grep -q "$needle" || {
        echo "e2e-smoke: host-leg /v1/stats missing $needle: $HSTATS" >&2
        exit 1
    }
done
grep -q 'formation=pinned (host route)' "$WORK/host.log" || {
    echo "e2e-smoke: host leg did not announce the host pin:" >&2
    cat "$WORK/host.log" >&2
    exit 1
}

# The default leg must have answered every page on the host route and
# formed nothing, under an adaptive (not pinned) controller.
DSTATS=$(curl -sf "http://$DEFAULT_ADDR/v1/stats")
for needle in '"host_fallbacks": [1-9]' '"cohorts_formed": 0,' '"adapt": {' '"pinned": false'; do
    echo "$DSTATS" | grep -q "$needle" || {
        echo "e2e-smoke: default-leg /v1/stats missing $needle: $DSTATS" >&2
        exit 1
    }
done
grep -q 'formation=adaptive (p99 target 50ms)' "$WORK/default.log" || {
    echo "e2e-smoke: default leg did not announce the adaptive policy:" >&2
    cat "$WORK/default.log" >&2
    exit 1
}
grep -q 'formation=pinned (timeout 2ms)' "$WORK/cohort.log" || {
    echo "e2e-smoke: cohort leg did not announce the pinned policy:" >&2
    cat "$WORK/cohort.log" >&2
    exit 1
}

# The cluster leg must have taken the injected loss: device 3 dead, its
# group failed over, and every request still answered (asserted above
# by byte identity).
CSTATS=$(curl -sf "http://$CLUSTER_ADDR/v1/stats")
echo "$CSTATS" | grep -q '"health": "dead"' || {
    echo "e2e-smoke: cluster stats report no dead device after loss fault: $CSTATS" >&2
    exit 1
}
echo "$CSTATS" | grep -Eq '"failovers": [1-9]' || {
    echo "e2e-smoke: cluster stats counted no failovers after loss fault: $CSTATS" >&2
    exit 1
}

# Mixed-workload stats: per-type sections are namespaced by workload —
# the document lists the registered workloads and qualifies every type
# label ("ecom/browse", "banking/login").
MIXSTATS=$(curl -sf "http://$MIX_ADDR/v1/stats")
for needle in '"schema_version": 9' '"workloads"' '"banking"' '"ecom"' '"telemetry"' \
    '"ecom/cart_add"' '"telemetry/poll"' '"banking/login"'; do
    echo "$MIXSTATS" | grep -q "$needle" || {
        echo "e2e-smoke: mixed-workload /v1/stats missing $needle" >&2
        echo "$MIXSTATS" | head -40 >&2
        exit 1
    }
done

# Scale-out leg: the frontend must actually have shipped cohorts over
# the wire — the topology document reports the tcp transport with both
# worker nodes up and dispatch counters moving.
TOPO=$(curl -sf "http://$SCALE_ADDR/v1/topology")
for needle in '"transport": "tcp"' '"node_failovers": 0' '"lost_units": 0'; do
    echo "$TOPO" | grep -q "$needle" || {
        echo "e2e-smoke: scale-out /v1/topology missing $needle" >&2
        echo "$TOPO" | head -40 >&2
        exit 1
    }
done
[ "$(echo "$TOPO" | grep -c '"health": "up"')" = 2 ] || {
    echo "e2e-smoke: scale-out topology does not show 2 nodes up" >&2
    echo "$TOPO" | head -40 >&2
    exit 1
}
# Kill the worker that served the session above (the one with the most
# dispatched units — the frames went somewhere). SIGTERM quiesces it:
# launched cohorts complete so their writes commit exactly once, the
# rest NACK, and the frontend re-routes its groups to the survivor.
KILL_ID=$(echo "$TOPO" | python3 -c '
import json, sys
nodes = json.load(sys.stdin)["nodes"]
print(max(nodes, key=lambda n: n["dispatched"])["id"])')
if [ "$KILL_ID" = 0 ]; then KILL_PID=$W0_PID; else KILL_PID=$W1_PID; fi
echo "e2e-smoke: SIGTERM fabric worker node $KILL_ID mid-run"
kill -TERM "$KILL_PID"
for _ in $(seq 1 50); do
    curl -sf "http://$SCALE_ADDR/v1/topology" | grep -q '"health": "down"' && break
    sleep 0.1
done
# New sessions must keep rendering host-identical pages on the
# surviving node (the dead node's groups re-route transparently).
CRED2=$(grep '^  userid=' "$WORK/host.log" | sed -n 2p)
USERID2=$(echo "$CRED2" | sed -n 's/.*userid=\([0-9]*\).*/\1/p')
PASSWD2=$(echo "$CRED2" | sed -n 's/.*passwd=\([^ ]*\).*/\1/p')
drive_user() {
    local name=$1 addr=$2 jar="$WORK/$1.jar2"
    curl -sf -c "$jar" -d "userid=$USERID2&passwd=$PASSWD2" \
        -o "$WORK/$name.login2" "http://$addr/login.php"
    curl -sf -b "$jar" -o "$WORK/$name.summary2k" "http://$addr/account_summary.php"
    curl -sf -b "$jar" -o "$WORK/$name.logout2" "http://$addr/logout.php"
}
drive_user host "$HOST_ADDR"
drive_user scale "$SCALE_ADDR"
for page in login2 summary2k logout2; do
    if ! diff -q "$WORK/host.$page" "$WORK/scale.$page"; then
        echo "e2e-smoke: $page body differs between host and scale-out mode after node kill" >&2
        diff "$WORK/host.$page" "$WORK/scale.$page" | head -20 >&2 || true
        exit 1
    fi
done
TOPO2=$(curl -sf "http://$SCALE_ADDR/v1/topology")
echo "$TOPO2" | grep -q '"health": "down"' || {
    echo "e2e-smoke: scale-out topology never marked the killed node down" >&2
    echo "$TOPO2" | head -40 >&2
    exit 1
}
echo "$TOPO2" | grep -Eq '"node_failovers": [1-9]' || {
    echo "e2e-smoke: frontend counted no node failovers after the worker kill" >&2
    echo "$TOPO2" | head -40 >&2
    exit 1
}
echo "$TOPO2" | grep -q '"lost_units": 0' || {
    echo "e2e-smoke: node kill lost units (exactly-once contract broken)" >&2
    echo "$TOPO2" | head -40 >&2
    exit 1
}
grep -q 'worker quiescing' "$WORK/w$KILL_ID.log" || {
    echo "e2e-smoke: killed worker did not log its quiesce" >&2
    cat "$WORK/w$KILL_ID.log" >&2
    exit 1
}

# check_metrics <name> <addr> <family...>: scrape /v1/metrics, assert it is
# parseable Prometheus text format and every listed family is declared.
check_metrics() {
    local name=$1 addr=$2; shift 2
    local doc="$WORK/$name.metrics"
    curl -sf -o "$doc" "http://$addr/v1/metrics" || {
        echo "e2e-smoke: $name /v1/metrics scrape failed" >&2
        exit 1
    }
    for fam in "$@"; do
        grep -q "^# TYPE $fam " "$doc" || {
            echo "e2e-smoke: $name /v1/metrics missing family $fam" >&2
            cat "$doc" >&2
            exit 1
        }
    done
    # Every sample line must be exactly `name{labels} value`.
    if awk '!/^#/ && NF != 2 { print; bad=1 } END { exit bad }' "$doc" >"$WORK/$name.badlines"; then
        :
    else
        echo "e2e-smoke: $name /v1/metrics has unparseable sample lines:" >&2
        cat "$WORK/$name.badlines" >&2
        exit 1
    fi
}
check_metrics host "$HOST_ADDR" \
    rhythm_build_info rhythm_requests_served_total rhythm_requests_total \
    rhythm_request_latency_seconds
check_metrics cohort "$COHORT_ADDR" \
    rhythm_build_info rhythm_requests_served_total rhythm_requests_total \
    rhythm_request_latency_seconds rhythm_cohorts_total \
    rhythm_formation_wait_seconds rhythm_cohort_occupancy \
    rhythm_device_launches_total rhythm_device_divergent_execs_total \
    rhythm_device_mem_transactions_total
check_metrics cluster "$CLUSTER_ADDR" \
    rhythm_build_info rhythm_requests_served_total rhythm_cohorts_total \
    rhythm_cluster_device_up rhythm_cluster_device_units_total \
    rhythm_cluster_failovers_total rhythm_cluster_retries_total \
    rhythm_cluster_shed_cohorts_total
check_metrics cacheh "$CACHEH_ADDR" \
    rhythm_build_info rhythm_requests_served_total \
    rhythm_render_cache_hits_total rhythm_render_cache_misses_total \
    rhythm_render_cache_entries rhythm_render_cache_bytes
check_metrics cachec "$CACHEC_ADDR" \
    rhythm_build_info rhythm_requests_served_total rhythm_cohorts_total \
    rhythm_render_cache_hits_total rhythm_render_cache_misses_total \
    rhythm_render_cache_entries rhythm_render_cache_bytes
check_metrics mix "$MIX_ADDR" \
    rhythm_build_info rhythm_requests_served_total rhythm_requests_total \
    rhythm_cohorts_total rhythm_cluster_device_up
# Every per-type family must carry the workload label and the
# workload-qualified display name.
for needle in 'rhythm_requests_total{workload="banking",type="banking/login"}' \
    'rhythm_requests_total{workload="ecom",type="ecom/' \
    'rhythm_requests_total{workload="telemetry",type="telemetry/'; do
    grep -q "$needle" "$WORK/mix.metrics" || {
        echo "e2e-smoke: mixed-workload /v1/metrics missing $needle" >&2
        grep '^rhythm_requests_total' "$WORK/mix.metrics" >&2 || true
        exit 1
    }
done
grep -q 'rhythm_request_latency_seconds_bucket{workload="banking",type="banking/login",le="' "$WORK/cohort.metrics" || {
    echo "e2e-smoke: cohort /v1/metrics missing per-type latency buckets" >&2
    exit 1
}
grep -q 'rhythm_cluster_device_up{device="3"} 0' "$WORK/cluster.metrics" || {
    echo "e2e-smoke: cluster /v1/metrics does not show device 3 down" >&2
    grep '^rhythm_cluster' "$WORK/cluster.metrics" >&2 || true
    exit 1
}

# Adaptive leg: the low-rate curl flow above must have routed to the
# scalar host path (rate well under the 300 req/s crossover), then the
# open-loop step to 1200 req/s must flip the controller to the device
# path with early (threshold-reached) launches. The versioned control
# plane answers on /v1/stats with the schema marker.
echo "e2e-smoke: stepping adaptive server 40 -> 1200 req/s"
"$LOADBIN" -addr "$ADAPT_ADDR" -rate-schedule "40x2s,1200x3s" -conns 16 \
    >"$WORK/adapt-load.log" 2>&1 || {
    echo "e2e-smoke: rhythm-load against adaptive server failed" >&2
    cat "$WORK/adapt-load.log" >&2
    exit 1
}
# Right after the burst the load generator's connections are still
# tearing down; give the scrape a few tries before judging.
fetch() {
    local url=$1 i
    for i in $(seq 1 20); do
        if curl -sf "$url"; then return 0; fi
        sleep 0.2
    done
    return 1
}
ASTATS=$(fetch "http://$ADAPT_ADDR/v1/stats")
echo "$ASTATS" | grep -q '"schema_version": 9' || {
    echo "e2e-smoke: /v1/stats missing schema_version 9: $ASTATS" >&2
    exit 1
}
echo "$ASTATS" | grep -q '"adapt"' || {
    echo "e2e-smoke: adaptive stats missing adapt section: $ASTATS" >&2
    exit 1
}
echo "$ASTATS" | grep -Eq '"cohorts_early": [1-9]' || {
    echo "e2e-smoke: adaptive server recorded no early launches after the rate step: $ASTATS" >&2
    exit 1
}
echo "$ASTATS" | grep -Eq '"host_fallbacks": [1-9]' || {
    echo "e2e-smoke: adaptive server recorded no host fallbacks at low rate: $ASTATS" >&2
    exit 1
}
# Each control-plane document has one path: the three aliases retired
# with schema version 6 answer 404.
for retired in rhythm-stats metrics rhythm-trace; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADAPT_ADDR/$retired")
    [ "$code" = 404 ] || {
        echo "e2e-smoke: retired path /$retired answered $code, want 404" >&2
        exit 1
    }
done
check_metrics adapt "$ADAPT_ADDR" \
    rhythm_build_info rhythm_requests_served_total rhythm_cohorts_total \
    rhythm_adapt_window_seconds rhythm_adapt_arrival_rate \
    rhythm_adapt_early_threshold rhythm_adapt_host_route \
    rhythm_adapt_host_fallback_total

# The trace endpoint must return a Chrome trace-event document with both
# request-lifecycle spans and device kernel launches.
curl -sf -o "$WORK/cohort.trace" "http://$COHORT_ADDR/v1/trace" || {
    echo "e2e-smoke: /v1/trace scrape failed" >&2
    exit 1
}
for needle in '"traceEvents"' '"formation-wait"' '"launch_seq"'; do
    grep -q "$needle" "$WORK/cohort.trace" || {
        echo "e2e-smoke: trace document missing $needle" >&2
        head -50 "$WORK/cohort.trace" >&2
        exit 1
    }
done

# Flight-recorder leg: the health engine must answer with the versioned
# burn-rate schema, and the anomaly ring must have retained records
# (every request here is "slow" by the pinned 1ms threshold) carrying
# the launch context the ISSUE promises for tail debugging — including
# at least one record whose attempt trail shows the injected failover.
FHEALTH=$(fetch "http://$FLIGHT_ADDR/v1/health")
for needle in '"schema_version": 9' '"state"' '"fast_burn"' '"slow_burn"' \
    '"flight_anomalies"' '"exemplars"'; do
    echo "$FHEALTH" | grep -q "$needle" || {
        echo "e2e-smoke: /v1/health missing $needle: $FHEALTH" >&2
        exit 1
    }
done
curl -sf -o "$WORK/flight.json" "http://$FLIGHT_ADDR/v1/debug/flight?n=64" || {
    echo "e2e-smoke: /v1/debug/flight scrape failed" >&2
    exit 1
}
for needle in '"trace_id"' '"formation_wait_us"' '"launch_seqs"' \
    '"cohort_size"' '"device"'; do
    grep -q "$needle" "$WORK/flight.json" || {
        echo "e2e-smoke: flight document missing $needle" >&2
        head -50 "$WORK/flight.json" >&2
        exit 1
    }
done
grep -Eq '"slow": [1-9]' "$WORK/flight.json" || {
    echo "e2e-smoke: flight recorder promoted no slow anomalies despite 1ms threshold" >&2
    head -50 "$WORK/flight.json" >&2
    exit 1
}
grep -Eq '"attempts": [2-9]' "$WORK/flight.json" || {
    echo "e2e-smoke: no flight record carries the failover attempt trail (attempts >= 2)" >&2
    head -80 "$WORK/flight.json" >&2
    exit 1
}
check_metrics flight "$FLIGHT_ADDR" \
    rhythm_build_info rhythm_requests_served_total \
    rhythm_flight_requests_total rhythm_flight_anomalies_total \
    rhythm_request_latency_exemplar_trace_id
grep -Eq '^rhythm_flight_anomalies_total [1-9]' "$WORK/flight.metrics" || {
    echo "e2e-smoke: /v1/metrics shows zero promoted flight anomalies" >&2
    grep '^rhythm_flight' "$WORK/flight.metrics" >&2 || true
    exit 1
}
# The operator CLI must render the same data human-readably, and its
# Chrome export must be a loadable trace-event document.
"$FLIGHTBIN" -n 8 "$FLIGHT_ADDR" >"$WORK/flight-cli.txt" 2>&1 || {
    echo "e2e-smoke: rhythm-flight client failed" >&2
    cat "$WORK/flight-cli.txt" >&2
    exit 1
}
grep -q 'anomalies promoted' "$WORK/flight-cli.txt" || {
    echo "e2e-smoke: rhythm-flight output missing recorder summary" >&2
    cat "$WORK/flight-cli.txt" >&2
    exit 1
}
"$FLIGHTBIN" -health "$FLIGHT_ADDR" >"$WORK/flight-health.txt" 2>&1 || {
    echo "e2e-smoke: rhythm-flight -health failed" >&2
    cat "$WORK/flight-health.txt" >&2
    exit 1
}
grep -q '^health: ' "$WORK/flight-health.txt" || {
    echo "e2e-smoke: rhythm-flight -health output missing state line" >&2
    cat "$WORK/flight-health.txt" >&2
    exit 1
}
"$FLIGHTBIN" -chrome -o "$WORK/flight-chrome.json" "$FLIGHT_ADDR" >/dev/null 2>&1 || {
    echo "e2e-smoke: rhythm-flight -chrome export failed" >&2
    exit 1
}
grep -q '"traceEvents"' "$WORK/flight-chrome.json" || {
    echo "e2e-smoke: rhythm-flight Chrome export missing traceEvents" >&2
    head -20 "$WORK/flight-chrome.json" >&2
    exit 1
}

echo "e2e-smoke: PASS (4 pages byte-identical across host, cohort, 4-device cluster, adaptive, flight-recorder, mixed-workload, 2-worker scale-out and no-flags default (adaptive, host-routed, 0 cohorts) modes — incl. a device loss mid-session, a 40->1200 req/s step through the formation controller, a double-pass replay against -render-cache host+cohort servers with cache hits, a fault-injected flight leg with promoted anomalies, /v1/health burn rates, and the rhythm-flight CLI, a banking+ecom+telemetry leg on 4 shared devices with per-workload byte identity, workload-labeled metrics, and an exactly-once in-order telemetry fan-out, and a remote-fabric leg shipping cohorts to two rhythmd -worker processes over TCP with a SIGTERM node kill, zero lost units, and host-identical pages on the survivor; /v1/metrics + /v1/trace healthy, retired aliases 404)"
