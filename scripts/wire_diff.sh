#!/usr/bin/env bash
# wire_diff.sh — HTTP-differential conformance soak for the binary wire
# protocol, run by `make wirediff` and the CI wire-conformance job.
#
# A race-built xserve serves both surfaces from the same backend; every
# request is answered once over HTTP GET /search and once over the wire
# protocol (xrefine search -wire), and the two payloads must be
# byte-identical. Two phases:
#   1. Plain engine (-xml): k x parallelism; the retired strategy=sle is
#      refused with 400.
#   2. Replicated shards with probabilistic store chaos armed (-chaos):
#      non-degraded responses must still match request-by-request; a
#      degraded response may differ (it says so) but never silently.
# Finally the phase-2 server must drain cleanly on SIGTERM with both
# surfaces up and the race-instrumented log must be clean.
set -euo pipefail

ADDR_HTTP="${ADDR_HTTP:-127.0.0.1:18090}"
ADDR_WIRE="${ADDR_WIRE:-127.0.0.1:18091}"
HTTP="http://$ADDR_HTTP"
ROUNDS="${ROUNDS:-3}"
WORK="$(mktemp -d)"
SRV_PID=""

cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "wire-diff: FAIL: $*" >&2
    [ -f "$WORK/srv.log" ] && cat "$WORK/srv.log" >&2
    exit 1
}

cd "$(dirname "$0")/.."

echo "wire-diff: building binaries (xserve race-instrumented)"
go build -race -o "$WORK/xserve" ./cmd/xserve
go build -o "$WORK/xrefine" ./cmd/xrefine
go build -o "$WORK/xgen" ./cmd/xgen

echo "wire-diff: generating corpus and replicated shard directory"
"$WORK/xgen" -kind dblp -authors 200 -seed 42 -out "$WORK/dblp.xml"
"$WORK/xgen" -kind shards -xml "$WORK/dblp.xml" -shards 2 -replicas 2 \
    -shard-dir "$WORK/shards"

QUERIES=("online databse" "database query" "keyword serch xml" "twig matching pattern" "refinement" "system index data")
TOTAL=0
DEGRADED=0

start_server() {
    "$WORK/xserve" "$@" -addr "$ADDR_HTTP" -wire "$ADDR_WIRE" \
        >"$WORK/srv.log" 2>&1 &
    SRV_PID=$!
    for i in $(seq 1 50); do
        curl -fsS "$HTTP/healthz" >/dev/null 2>&1 && break
        sleep 0.2
    done
    curl -fsS "$HTTP/healthz" >/dev/null || fail "server never became healthy"
}

stop_server() {
    kill "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
    grep -q 'WARNING: DATA RACE' "$WORK/srv.log" && fail "race detected in server"
    return 0
}

# diff_one <phase> <query> <k> <parallel> [skip-degraded]
diff_one() {
    local phase="$1" q="$2" k="$3" parallel="$4" skip="${5:-}"
    local enc="${q// /+}"
    local url="$HTTP/search?q=$enc&k=$k"
    [ "$parallel" -gt 0 ] && url="$url&parallel=$parallel"
    curl -fsS --max-time 15 "$url" >"$WORK/http.json" || fail "$phase: http query '$q' failed"
    "$WORK/xrefine" search -wire "$ADDR_WIRE" -k "$k" -parallel "$parallel" \
        $q >"$WORK/wire.json" || fail "$phase: wire query '$q' failed"
    TOTAL=$((TOTAL + 1))
    if [ -n "$skip" ] && grep -q '"degraded"' "$WORK/http.json" "$WORK/wire.json"; then
        # Under chaos each surface rolls its own faults; a degraded
        # response may differ but must say so — checked by this grep.
        DEGRADED=$((DEGRADED + 1))
        return 0
    fi
    cmp -s "$WORK/http.json" "$WORK/wire.json" || {
        diff "$WORK/http.json" "$WORK/wire.json" | head -20 >&2
        fail "$phase: wire payload diverged from HTTP body (q='$q' k=$k parallel=$parallel)"
    }
}

echo "wire-diff: phase 1: plain engine, k x parallelism"
start_server -xml "$WORK/dblp.xml"
code="$(curl -s -o /dev/null -w '%{http_code}' "$HTTP/search?q=database&strategy=sle")"
[ "$code" = 400 ] || fail "plain: strategy=sle answered $code, want 400"
for q in "${QUERIES[@]}"; do
    for k in 1 3 10; do
        for parallel in 0 2; do
            diff_one plain "$q" "$k" "$parallel"
        done
    done
done
stop_server

echo "wire-diff: phase 2: replicated shards with chaos armed"
start_server -shards "$WORK/shards" -replicas 2 -hedge-after 2ms \
    -chaos "rate=0.01,jitter=200us-1ms,seed=7"
r=0
while [ "$r" -lt "$ROUNDS" ]; do
    for q in "${QUERIES[@]}"; do
        diff_one chaos "$q" 3 0 skip-degraded
    done
    r=$((r + 1))
done

echo "wire-diff: drain check (SIGTERM with both surfaces up)"
kill -TERM "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || fail "server exited non-zero on drain"
SRV_PID=""
grep -q 'drained cleanly' "$WORK/srv.log" || fail "server did not drain cleanly"
grep -q 'WARNING: DATA RACE' "$WORK/srv.log" && fail "race detected in server"

WANT=$(( ${#QUERIES[@]} * (3 * 2 + ROUNDS) ))
[ "$TOTAL" -eq "$WANT" ] || fail "$TOTAL requests diffed; want $WANT"
echo "wire-diff: PASS ($TOTAL requests diffed, $DEGRADED skipped as degraded under chaos)"
