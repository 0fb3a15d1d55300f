#!/bin/sh
# Serve smoke gate, shared by ci.sh and .github/workflows/ci.yml: boot
# the daemon on an ephemeral port, prove served /run responses are
# byte-identical to a local `dircc replay --json` (and invariant across
# shards), observe the repeat as a cache hit, drive a mixed
# hit/miss workload with zero errors, then drain via /shutdown and fail
# on any orphaned daemon. Callers wrap this in `timeout` for a hard
# ceiling; every step inside is bounded regardless (client timeouts,
# capped polls).
set -eu

DIRCC=${DIRCC:-./target/release/dircc}
BENCH_OUT=${BENCH_SERVE_OUT:-BENCH_serve.json}
METRICS_OUT=${SERVE_METRICS_OUT:-SERVE_metrics.prom}
TMP=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
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
# ...then again as an observable cache hit serving the same bytes...
"$DIRCC" submit --serve "$URL" --scheme Dir1NB --profile pops --refs 20000 \
    --expect-cache hit >"$TMP/served_hit.json"
diff "$TMP/served_miss.json" "$TMP/served_hit.json"
# ...and once more sharded (a distinct cache key, so a miss) — counters
# are pinned shard-invariant.
"$DIRCC" submit --serve "$URL" --scheme Dir1NB --profile pops --refs 20000 \
    --shards 3 --expect-cache miss >"$TMP/served_sharded.json"
diff "$TMP/served_miss.json" "$TMP/served_sharded.json"

# The other routes answer: health (with live queue/in-flight state), a
# windowed series, the span export.
"$DIRCC" submit --serve "$URL" --op health >"$TMP/health.json"
grep -q '"status": "ok"' "$TMP/health.json"
grep -q '"inflight": ' "$TMP/health.json"
grep -q '"uptime_s": ' "$TMP/health.json"
"$DIRCC" submit --serve "$URL" --op series --scheme Wti --profile thor \
    --refs 8000 --window 2000 | wc -l | grep -qx 4
"$DIRCC" submit --serve "$URL" --op spans | grep -q '"cat": "dircc"'

# Load gate: a mixed hit/miss schedule from concurrent clients must
# complete with zero errors and report latency percentiles.
"$DIRCC" bench --serve "$URL" --clients 4 --requests 400 --refs 5000 \
    --out "$BENCH_OUT"

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
if ! grep -q "request_id=$RID" "$TMP/serve.err"; then
    echo "serve gate: request id $RID missing from the daemon log" >&2
    exit 1
fi
if ! "$DIRCC" submit --serve "$URL" --op spans | grep -q "$RID"; then
    echo "serve gate: request id $RID missing from /spans meta" >&2
    exit 1
fi

# Telemetry gate: scrape /metrics (kept as a CI artifact) and reconcile
# its counters *exactly* against the scripted load above. /run requests
# = 3 byte-identity submits + 1 tagged submit + the 400 bench requests
# (429-refused attempts never reach the route counters); server-side
# cache hits/misses = the bench's client-observed tallies plus the
# submits (1 hit; miss + sharded miss + tagged miss); and no route may
# have produced a single error response.
"$DIRCC" submit --serve "$URL" --op metrics >"$METRICS_OUT"
bench_hits=$(sed -n 's/.*"cache_hits": \([0-9]*\).*/\1/p' "$BENCH_OUT")
bench_misses=$(sed -n 's/.*"cache_misses": \([0-9]*\).*/\1/p' "$BENCH_OUT")
want_runs=404 # 3 submits + 1 tagged submit + 400 bench requests
want_hits=$((bench_hits + 1))
want_misses=$((bench_misses + 3))
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

# The dashboard's CI mode distills the same scrape into key/value lines.
"$DIRCC" top --serve "$URL" --once >"$TMP/top.txt"
grep -qx "errors_total 0" "$TMP/top.txt"
grep -qx "cache_hits $want_hits" "$TMP/top.txt"
grep -q "^run_p50_ms " "$TMP/top.txt"

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
