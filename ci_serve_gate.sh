#!/bin/sh
# Serve smoke gate, shared by ci.sh and .github/workflows/ci.yml: boot
# the daemon on an ephemeral port, prove served /run responses are
# byte-identical to a local `dircc replay --json`, observe the repeat as
# a cache hit, drive a concurrent hit/miss
# workload whose every cache outcome and body is asserted, reject an
# oversized /series, then drain via /shutdown and fail on any orphaned
# daemon. Callers wrap this in `timeout` for a hard ceiling; every step
# inside is bounded regardless (client timeouts, capped polls).
set -eu

DIRCC=${DIRCC:-./target/release/dircc}
METRICS_OUT=${SERVE_METRICS_OUT:-SERVE_metrics.prom}
TOP_OUT=${SERVE_TOP_OUT:-SERVE_top.txt}
TMP=$(mktemp -d)
PID=""
LOAD_PIDS=""
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    [ -n "$LOAD_PIDS" ] && kill $LOAD_PIDS 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

"$DIRCC" serve --addr 127.0.0.1:0 --workers 2 \
    >"$TMP/serve.out" 2>"$TMP/serve.err" &
PID=$!

# The listen line is flushed to stdout before the accept loop starts.
URL=""
i=0
while [ $i -lt 50 ]; do
    URL=$(sed -n 's/^dircc serve: listening on //p' "$TMP/serve.out")
    [ -n "$URL" ] && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "serve gate: daemon died before listening" >&2
        cat "$TMP/serve.err" >&2
        exit 1
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ -z "$URL" ]; then
    echo "serve gate: daemon never printed its listen URL" >&2
    exit 1
fi
echo "serve gate: daemon at $URL (pid $PID)"

# Byte-identity gate: the served response for a config must diff clean
# against a local replay of the same config — first as a cache miss...
"$DIRCC" submit --serve "$URL" --scheme Dir1NB --profile pops --refs 20000 \
    --expect-cache miss >"$TMP/served_miss.json"
"$DIRCC" replay --json --scheme Dir1NB --profile pops --refs 20000 \
    >"$TMP/local.json"
diff "$TMP/served_miss.json" "$TMP/local.json"
# ...then again as an observable cache hit serving the same bytes.
"$DIRCC" submit --serve "$URL" --scheme Dir1NB --profile pops --refs 20000 \
    --expect-cache hit >"$TMP/served_hit.json"
diff "$TMP/served_miss.json" "$TMP/served_hit.json"

# The other routes answer: health (with live queue/in-flight state), a
# windowed series, the span export.
"$DIRCC" submit --serve "$URL" --op health >"$TMP/health.json"
grep -q '"status": "ok"' "$TMP/health.json"
grep -q '"inflight": ' "$TMP/health.json"
grep -q '"uptime_s": ' "$TMP/health.json"
"$DIRCC" submit --serve "$URL" --op series --scheme Wti --profile thor \
    --refs 8000 --window 2000 | wc -l | grep -qx 4
"$DIRCC" submit --serve "$URL" --op spans | grep -q '"cat": "dircc"'

# Load gate: four concurrent `dircc submit` clients post 400 /run jobs
# at --refs 5000 over load_pool's 12 configs, listed here in its order.
# Request i takes config i % 12 and client c sends requests c, c+4,
# c+8, ..., so every config belongs to one client: its first request
# (i < 12) is its only miss and every later one a hit, 12 misses and
# 388 hits in all. Each body must be byte-equal to its config's first.
POOL="Dir1NB:POPS Dir1NB:THOR Dir1NB:PERO WTI:POPS WTI:THOR WTI:PERO
Dir0B:POPS Dir0B:THOR Dir0B:PERO Dragon:POPS Dragon:THOR Dragon:PERO"
load_client() {
    c=$1
    i=$c
    while [ "$i" -lt 400 ]; do
        n=$((i % 12))
        set -- $POOL
        shift "$n"
        if [ "$i" -lt 12 ]; then want=miss; else want=hit; fi
        if ! "$DIRCC" submit --serve "$URL" --scheme "${1%%:*}" --profile "${1#*:}" \
            --refs 5000 --expect-cache "$want" >"$TMP/load_$c.json" 2>"$TMP/load_$c.err"; then
            echo "serve gate: load request $i ($1) failed:" >&2
            cat "$TMP/load_$c.err" >&2
            exit 1
        fi
        if [ "$i" -lt 12 ]; then
            cp "$TMP/load_$c.json" "$TMP/first_$n.json"
        elif ! cmp -s "$TMP/load_$c.json" "$TMP/first_$n.json"; then
            echo "serve gate: load request $i ($1) body differs from its first response" >&2
            exit 1
        fi
        i=$((i + 4))
    done
}
for c in 0 1 2 3; do
    load_client "$c" &
    LOAD_PIDS="$LOAD_PIDS $!"
done
for p in $LOAD_PIDS; do
    wait "$p"
done
LOAD_PIDS=""
echo "serve gate: 400 load requests, every cache outcome and body as expected"

# Tracing gate: tag one more /run with the client-minted request ID and
# prove it joins the daemon's structured log and the /spans export —
# the end-to-end accept -> queue -> handler -> span thread.
RID=$("$DIRCC" submit --serve "$URL" --scheme Dir1NB --profile pops --refs 21000 \
    --expect-cache miss 2>&1 >"$TMP/served_join.json" |
    sed -n 's/^dircc submit: request-id //p')
if [ -z "$RID" ]; then
    echo "serve gate: submit printed no request id" >&2
    exit 1
fi
# The daemon logs a request only after writing its response (its wall_ms
# includes the write), and `dircc submit` exits as soon as it has read
# the body, so wait up to 5 s for the line instead of grepping once.
i=0
until grep -q "request_id=$RID" "$TMP/serve.err"; do
    if [ $i -ge 50 ]; then
        echo "serve gate: request id $RID missing from the daemon log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if ! "$DIRCC" submit --serve "$URL" --op spans | grep -q "$RID"; then
    echo "serve gate: request id $RID missing from /spans meta" >&2
    exit 1
fi

# Telemetry gate: scrape /metrics (kept as a CI artifact) and reconcile
# its counters *exactly* against the scripted load above: 403 /run
# requests (2 byte-identity submits, 400 load requests, 1 tagged
# submit), 389 cache hits (1 submit + 388 load), 14 misses (miss +
# tagged miss + 12 load), and not a single error response on any route.
"$DIRCC" submit --serve "$URL" --op metrics >"$METRICS_OUT"
want_runs=403
want_hits=389
want_misses=14
got_runs=$(sed -n 's|^dircc_http_requests_total{route="/run"} ||p' "$METRICS_OUT")
got_hits=$(sed -n 's|^dircc_result_cache_events_total{event="hit"} ||p' "$METRICS_OUT")
got_misses=$(sed -n 's|^dircc_result_cache_events_total{event="miss"} ||p' "$METRICS_OUT")
if [ "$got_runs" != "$want_runs" ]; then
    echo "serve gate: want $want_runs /run requests, /metrics says '$got_runs'" >&2
    exit 1
fi
if [ "$got_hits" != "$want_hits" ]; then
    echo "serve gate: want $want_hits cache hits, /metrics says '$got_hits'" >&2
    exit 1
fi
if [ "$got_misses" != "$want_misses" ]; then
    echo "serve gate: want $want_misses cache misses, /metrics says '$got_misses'" >&2
    exit 1
fi
if grep '^dircc_http_errors_total{' "$METRICS_OUT" | grep -qv ' 0$'; then
    echo "serve gate: /metrics reports error responses:" >&2
    grep '^dircc_http_errors_total{' "$METRICS_OUT" >&2
    exit 1
fi
echo "serve gate: /metrics reconciled ($got_runs /run, $got_hits hits, $got_misses misses)"

# The dashboard's CI mode distills the same scrape into key/value lines
# (kept as a CI artifact).
"$DIRCC" top --serve "$URL" --once >"$TOP_OUT"
grep -qx "errors_total 0" "$TOP_OUT"
grep -qx "cache_hits $want_hits" "$TOP_OUT"
grep -q "^run_p50_ms " "$TOP_OUT"

# Admission gate (after the reconciliation above, whose constants count
# no error): a /series asking for more than MAX_WINDOWS windows is a 400
# naming the field, answered before any trace is generated.
if "$DIRCC" submit --serve "$URL" --op series --scheme Dir1NB --profile pops \
    --refs 200000 --window 1 >"$TMP/series_cap.out" 2>"$TMP/series_cap.err"; then
    echo "serve gate: a /series of 200000 one-ref windows was accepted" >&2
    exit 1
fi
if ! grep -q "HTTP 400: .*field 'window': must be at least 49 for 200000 refs" \
    "$TMP/series_cap.err"; then
    echo "serve gate: oversized /series did not get the window 400:" >&2
    cat "$TMP/series_cap.err" >&2
    exit 1
fi
echo "serve gate: oversized /series rejected with a field 'window' 400"

# Drain gate: /shutdown finishes in-flight work and the process exits 0
# on its own; anything still alive after the grace window is an orphan.
"$DIRCC" submit --serve "$URL" --op shutdown >/dev/null
i=0
while [ $i -lt 50 ] && kill -0 "$PID" 2>/dev/null; do
    sleep 0.2
    i=$((i + 1))
done
if kill -0 "$PID" 2>/dev/null; then
    echo "serve gate: daemon did not drain after /shutdown (orphan)" >&2
    exit 1
fi
wait "$PID"
grep -q "drained after" "$TMP/serve.out"
PID=""
echo "serve gate: PASS"
