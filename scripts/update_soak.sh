#!/usr/bin/env bash
# update_soak.sh — mixed read/write soak for the live-update subsystem,
# run by `make soak` and the CI update-soak job.
#
# Two phases, both under the race detector:
#   1. The in-tree concurrency suites: queries pinning epochs while Apply
#      publishes new ones, the crash-recovery fault matrix and the
#      reopen-after-epochs check. `go test -timeout` is the hang detector —
#      a reader stuck on a dead epoch or a deadlocked writer fails the
#      build here.
#   2. A live race-built xserve: concurrent query loops hammer /search
#      while update batches stream into POST /update, the last one
#      inserting a sentinel term. The soak asserts the final epoch, then
#      kills the server with SIGKILL right after that last acknowledgement,
#      restarts it on the same store, and asserts durability end to end:
#      /healthz is back at the acknowledged epoch and the sentinel term of
#      the last batch is searchable.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18081}"
BASE="http://$ADDR"
BATCHES="${BATCHES:-12}"
OPS_PER_BATCH="${OPS_PER_BATCH:-5}"
READERS="${READERS:-4}"
WORK="$(mktemp -d)"
SERVER_PID=""
READER_PIDS=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    for p in $READER_PIDS; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "update-soak: FAIL: $*" >&2
    [ -f "$WORK/server.log" ] && cat "$WORK/server.log" >&2
    exit 1
}

cd "$(dirname "$0")/.."

echo "update-soak: phase 1: concurrency + crash-recovery suites (-race)"
go test -race -timeout 10m -count "${SOAK_COUNT:-2}" \
    -run 'TestQueriesPinEpochDuringApply|TestApplyCrashRecoveryMatrix|TestCheckpointBoundsReopen' \
    ./internal/core/ || fail "race suites failed"
go test -race -timeout 5m -run 'TestSearchByteIdenticalAcrossConfigs' \
    ./internal/server/ || fail "rebuild-equivalence differential failed"

echo "update-soak: phase 2: building race-instrumented binaries"
go build -race -o "$WORK/xserve" ./cmd/xserve
go build -o "$WORK/xgen" ./cmd/xgen
go build -o "$WORK/xrefine" ./cmd/xrefine
go build -o "$WORK/xstat" ./cmd/xstat

echo "update-soak: generating corpus and update workload"
"$WORK/xgen" -kind dblp -authors 150 -seed 42 -out "$WORK/dblp.xml" \
    -updates $((BATCHES * OPS_PER_BATCH)) -update-batch "$OPS_PER_BATCH"
STORE="$WORK/dblp.kv"
"$WORK/xrefine" index -xml "$WORK/dblp.xml" -index "$STORE" -with-doc

# Split the ride-along batch file back into per-batch JSON bodies.
awk -v dir="$WORK" '/^# batch /{n=$3; next} /^{/{print > (dir "/op-" n ".jsonl")}' \
    "$WORK/dblp.xml.updates"
# Walk the batch numbers numerically — a lexicographic glob would post
# op-10 right after op-1, and later batches insert under nodes earlier
# batches create, so order is semantic.
NBATCH=0
while [ -f "$WORK/op-$NBATCH.jsonl" ]; do
    printf '{"ops":[%s]}' "$(paste -sd, "$WORK/op-$NBATCH.jsonl")" > "$WORK/batch-$NBATCH.json"
    NBATCH=$((NBATCH + 1))
done
[ "$NBATCH" -ge "$BATCHES" ] || fail "expected $BATCHES batches, built $NBATCH"
# The last batch inserts a term no generated document contains, so finding
# it after the restart proves that batch, and not just its epoch, survived.
SENTINEL="soaksentinel"
printf '{"ops":[{"op":"insert","parent":"0","xml":"<author><name>%s</name></author>"}]}' \
    "$SENTINEL" > "$WORK/batch-$NBATCH.json"
NBATCH=$((NBATCH + 1))

# start_server launches the live race-built xserve on the store and waits
# until it is healthy and live-update-enabled — which also guards against
# answering a stale server on a shared port.
start_server() {
    "$WORK/xserve" -index "$STORE" -live -addr "$ADDR" -max-inflight 64 \
        >>"$WORK/server.log" 2>&1 &
    SERVER_PID=$!
    for i in $(seq 1 50); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
        kill -0 "$SERVER_PID" 2>/dev/null || fail "xserve exited early"
        sleep 0.2
    done
    BOOT="$(curl -fsS "$BASE/healthz")" || fail "xserve never became healthy"
    [[ "$BOOT" == *'"live_updates": true'* || "$BOOT" == *'"live_updates":true'* ]] ||
        fail "server on $ADDR is not this soak's live server: $BOOT"
}

echo "update-soak: starting live xserve on $ADDR"
start_server

echo "update-soak: $READERS readers vs $NBATCH update batches"
reader() {
    local queries=("online+databse" "database+query" "keyword+serch" "twig+pattern+matching")
    while :; do
        curl -fsS --max-time 10 "$BASE/search?q=${queries[RANDOM % 4]}" >/dev/null || exit 1
    done
}
for i in $(seq 1 "$READERS"); do
    reader & READER_PIDS="$READER_PIDS $!"
done

i=0
while [ "$i" -lt "$NBATCH" ]; do
    CODE="$(curl -sS --max-time 30 -o "$WORK/apply-$i.json" -w '%{http_code}' \
        -X POST --data-binary "@$WORK/batch-$i.json" "$BASE/update")" ||
        fail "batch $i: POST /update did not answer"
    [ "$CODE" = 200 ] ||
        fail "batch $i rejected ($CODE): $(cat "$WORK/apply-$i.json" 2>/dev/null)"
    i=$((i + 1))
done
for p in $READER_PIDS; do
    kill -0 "$p" 2>/dev/null || fail "a reader died mid-soak (query path broke under writes)"
done
for p in $READER_PIDS; do kill "$p" 2>/dev/null || true; done
READER_PIDS=""

HEALTH="$(curl -fsS "$BASE/healthz")"
[[ "$HEALTH" == *"\"epoch\": $NBATCH"* || "$HEALTH" == *"\"epoch\":$NBATCH"* ]] ||
    fail "healthz epoch != $NBATCH: $HEALTH"
[[ "$HEALTH" == *'"live_updates": true'* || "$HEALTH" == *'"live_updates":true'* ]] ||
    fail "healthz does not report live updates: $HEALTH"
# Buffer the scrape: grep -q would close the pipe on first match and
# pipefail would turn curl's resulting write error into a failure.
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt" || fail "metrics scrape failed"
grep -q '^xrefine_mutate_applied_batches_total' "$WORK/metrics.txt" ||
    fail "mutate metric families missing from /metrics"

echo "update-soak: kill -9 after the last acknowledged batch, then restart"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
start_server
HEALTH="$(curl -fsS "$BASE/healthz")"
[[ "$HEALTH" == *"\"epoch\": $NBATCH"* || "$HEALTH" == *"\"epoch\":$NBATCH"* ]] ||
    fail "restarted at an epoch other than the acknowledged $NBATCH: $HEALTH"
curl -fsS "$BASE/search?k=1&q=$SENTINEL" >"$WORK/sentinel.json" || fail "sentinel search failed"
# Unrefined (Q itself has a meaningful result) and at least one result id.
grep -Eq '"need_refine": ?false' "$WORK/sentinel.json" && grep -Eq '"id": ?"' "$WORK/sentinel.json" ||
    fail "term $SENTINEL of the last acknowledged batch is not searchable after restart: $(cat "$WORK/sentinel.json")"
kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q 'WARNING: DATA RACE' "$WORK/server.log" && fail "race detected in live server"

"$WORK/xstat" -index "$STORE" >"$WORK/stat.txt" || fail "xstat failed post-soak"
grep -q "epoch:       $NBATCH" "$WORK/stat.txt" ||
    fail "store epoch after restart != $NBATCH: $(cat "$WORK/stat.txt")"
"$WORK/xstat" -storage -index "$STORE" >"$WORK/storage.txt" ||
    fail "xstat -storage failed post-soak"
grep -q "backend:" "$WORK/storage.txt" ||
    fail "xstat -storage report malformed: $(cat "$WORK/storage.txt")"

echo "update-soak: PASS ($NBATCH batches, $READERS readers)"
