#!/usr/bin/env bash
# replica_soak.sh — replica fault-matrix soak for the replicated serving
# layer, run by `make replicas` and the CI replica-fault-matrix job.
#
# Two phases, both under the race detector:
#   1. The in-tree replica suites: byte-identity across replica counts and
#      hedging modes, the slow/flaky/dead/epoch-lagged fault matrix, epoch
#      reconciliation by store copy (after a restart and at any lag, with
#      its pinned-reader and failed-copy cases), and the hedge-cancel
#      promptness stress.
#   2. A live race-built xserve over a 2-shard x 2-replica directory with
#      probabilistic store chaos armed (-chaos), compared request-by-request
#      against a monolithic xserve over the unsplit corpus: every
#      non-degraded response must be byte-identical (zero result
#      divergence), /healthz must carry the replica table, and /metrics
#      must expose the xrefine_replica_* families (validated with the
#      in-tree exposition parser).
set -euo pipefail

ADDR_MONO="${ADDR_MONO:-127.0.0.1:18082}"
ADDR_REPL="${ADDR_REPL:-127.0.0.1:18083}"
MONO="http://$ADDR_MONO"
REPL="http://$ADDR_REPL"
ROUNDS="${ROUNDS:-25}"
WORK="$(mktemp -d)"
MONO_PID=""
REPL_PID=""

cleanup() {
    [ -n "$MONO_PID" ] && kill "$MONO_PID" 2>/dev/null || true
    [ -n "$REPL_PID" ] && kill "$REPL_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "replica-soak: FAIL: $*" >&2
    [ -f "$WORK/mono.log" ] && cat "$WORK/mono.log" >&2
    [ -f "$WORK/repl.log" ] && cat "$WORK/repl.log" >&2
    exit 1
}

cd "$(dirname "$0")/.."

echo "replica-soak: phase 1: replica suites (-race)"
go test -race -timeout 10m \
    -run 'TestReplicaByteIdentity|TestReplicaFaultMatrix|TestReplicaEpochReconcile|TestReplicaLagQuarantinedAtOpen|TestReplicaCatchUpBeyondOldWindow|TestReplicaCatchUpSafety|TestReplicaWriteRejectionNoQuarantine|TestReplicaHedgeCancelPromptness|TestReplicatedStoreLayout' \
    ./internal/shard/ || fail "replica race suites failed"

echo "replica-soak: phase 2: building binaries (xserve race-instrumented)"
go build -race -o "$WORK/xserve" ./cmd/xserve
go build -o "$WORK/xgen" ./cmd/xgen
go build -o "$WORK/obscheck" ./cmd/obscheck

echo "replica-soak: generating corpus and replicated shard directory"
"$WORK/xgen" -kind dblp -authors 200 -seed 42 -out "$WORK/dblp.xml"
"$WORK/xgen" -kind shards -xml "$WORK/dblp.xml" -shards 2 -replicas 2 \
    -shard-dir "$WORK/shards"
[ -f "$WORK/shards/shard-0.r1.kv" ] || fail "replica store files missing"

echo "replica-soak: starting monolith on $ADDR_MONO"
"$WORK/xserve" -xml "$WORK/dblp.xml" -addr "$ADDR_MONO" \
    >"$WORK/mono.log" 2>&1 &
MONO_PID=$!

echo "replica-soak: starting replicated router on $ADDR_REPL (chaos armed)"
"$WORK/xserve" -shards "$WORK/shards" -replicas 2 -hedge-after 2ms \
    -chaos "rate=0.01,jitter=200us-1ms,seed=7" -addr "$ADDR_REPL" \
    >"$WORK/repl.log" 2>&1 &
REPL_PID=$!

for base in "$MONO" "$REPL"; do
    for i in $(seq 1 50); do
        curl -fsS "$base/healthz" >/dev/null 2>&1 && break
        sleep 0.2
    done
    curl -fsS "$base/healthz" >/dev/null || fail "server $base never became healthy"
done

echo "replica-soak: differential query loop ($ROUNDS rounds)"
QUERIES=("online+databse" "database+query" "keyword+serch+xml" "twig+matching+pattern")
DIVERGED=0
DEGRADED=0
TOTAL=0
for q in "${QUERIES[@]}"; do
    WANT="$(curl -fsS --max-time 15 "$MONO/search?q=$q")" || fail "monolith query $q failed"
    echo "$WANT" > "$WORK/want.json"
    r=0
    while [ "$r" -lt "$ROUNDS" ]; do
        GOT="$(curl -fsS --max-time 15 "$REPL/search?q=$q")" || fail "replicated query $q failed"
        TOTAL=$((TOTAL + 1))
        if [[ "$GOT" == *'"degraded"'* ]]; then
            # A degraded response is allowed to differ (it says so); it is
            # never allowed to silently diverge, which the else arm checks.
            DEGRADED=$((DEGRADED + 1))
        elif [ "$GOT" != "$WANT" ]; then
            DIVERGED=$((DIVERGED + 1))
            printf '%s' "$GOT" > "$WORK/got.json"
            echo "replica-soak: divergence on q=$q (round $r)" >&2
        fi
        r=$((r + 1))
    done
done
[ "$DIVERGED" -eq 0 ] || fail "$DIVERGED/$TOTAL non-degraded responses diverged from the monolith"
echo "replica-soak: $TOTAL responses, 0 diverged, $DEGRADED degraded under chaos"

echo "replica-soak: checking /healthz replica table"
HEALTH="$(curl -fsS "$REPL/healthz")"
[[ "$HEALTH" == *'"replicas"'* ]] || fail "healthz carries no replica table: $HEALTH"
[[ "$HEALTH" == *'"replicas_total": 4'* || "$HEALTH" == *'"replicas_total":4'* ]] ||
    fail "healthz replicas_total != 4: $HEALTH"
[[ "$HEALTH" == *'"shards": 2'* || "$HEALTH" == *'"shards":2'* ]] ||
    fail "healthz shards != 2: $HEALTH"

echo "replica-soak: validating xrefine_replica_* metric families"
"$WORK/obscheck" -url "$REPL/metrics" -min-families 12 \
    -want xrefine_replica_scans_total,xrefine_replica_hedges_total,xrefine_replica_retries_total,xrefine_replica_quarantined,xrefine_replica_breaker_open,xrefine_shard_scans_total ||
    fail "obscheck rejected the replica exposition"

kill "$REPL_PID" && wait "$REPL_PID" 2>/dev/null || true
REPL_PID=""
grep -q 'WARNING: DATA RACE' "$WORK/repl.log" && fail "race detected in replicated server"

echo "replica-soak: PASS"
