#!/usr/bin/env bash
# cluster_chaos.sh — end-to-end chaos check for distributed serving.
#
# Boots a 3-worker + coordinator rdfserved cluster on localhost over the
# same scale-1 LUBM dataset, proves the coordinator's answers match a
# worker's local scatter-gather answers on the LUBM conformance queries,
# then SIGKILLs one worker while a loadgen run is in flight and asserts:
#
#   1. the loadgen completes with zero failed requests (replicas=2: every
#      shard stays reachable through its failover candidate);
#   2. a query issued after the kill still answers 200 — either with the
#      full result or honestly flagged `"partial"`, never a 500;
#   3. the coordinator's /metrics shows rdf_shard_retries_total > 0 and
#      the killed worker's breaker open (rdf_worker_up 0).
#
# Needs only bash, curl, and the repo's Go toolchain. Exits nonzero on the
# first violated assertion.
set -euo pipefail

cd "$(dirname "$0")/.."

SHARDS=3
SCALE=1
BASE_PORT=${BASE_PORT:-9301}
COORD_PORT=$((BASE_PORT + SHARDS))
QUERIES=${QUERIES:-"1 2 4 8 14"} # conformance subset: point lookups, the cyclic Q2, star joins, a full scan
TMP=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

log() { echo "[chaos] $*"; }

fail() {
  echo "[chaos] FAIL: $*" >&2
  for f in "$TMP"/worker*.log "$TMP"/coordinator.log; do
    [ -f "$f" ] && {
      echo "---- $f (tail) ----" >&2
      tail -n 20 "$f" >&2
    }
  done
  exit 1
}

wait_healthy() { # url name
  for _ in $(seq 1 200); do
    if curl -fsS -o /dev/null --max-time 2 "$1/healthz" 2>/dev/null; then
      return 0
    fi
    sleep 0.25
  done
  fail "$2 never became healthy at $1"
}

log "building rdfserved and rdfq"
go build -o "$TMP/rdfserved" ./cmd/rdfserved
go build -o "$TMP/rdfq" ./cmd/rdfq

WORKER_URLS=""
for i in $(seq 0 $((SHARDS - 1))); do
  port=$((BASE_PORT + i))
  "$TMP/rdfserved" -lubm $SCALE -shards $SHARDS -shard-role worker -shard-id "$i" \
    -addr "127.0.0.1:$port" -max-rows -1 >"$TMP/worker$i.log" 2>&1 &
  PIDS+=($!)
  disown $! # keep bash from reporting the eventual SIGKILL
  WORKER_URLS="$WORKER_URLS,http://127.0.0.1:$port"
done
WORKER_URLS=${WORKER_URLS#,}

"$TMP/rdfserved" -lubm $SCALE -shards $SHARDS -shard-role coordinator \
  -cluster-workers "$WORKER_URLS" -shard-replicas 2 -shard-probe-interval 250ms \
  -addr "127.0.0.1:$COORD_PORT" -max-rows -1 >"$TMP/coordinator.log" 2>&1 &
PIDS+=($!)
disown $!

for i in $(seq 0 $((SHARDS - 1))); do
  wait_healthy "http://127.0.0.1:$((BASE_PORT + i))" "worker $i"
done
wait_healthy "http://127.0.0.1:$COORD_PORT" "coordinator"
log "cluster up: $SHARDS workers + coordinator on 127.0.0.1:$COORD_PORT"

# --- Conformance: coordinator answers ≡ a worker's local scatter-gather ---
query_tsv() { # port queryfile outfile
  curl -fsS --max-time 60 --get "http://127.0.0.1:$1/query" \
    --data-urlencode "query@$2" --data-urlencode "format=tsv" \
    --data-urlencode "engine=emptyheaded" | sort >"$3"
}
for q in $QUERIES; do
  "$TMP/rdfq" -print-query -lubm-query "$q" -lubm $SCALE >"$TMP/q$q.rq"
  query_tsv "$BASE_PORT" "$TMP/q$q.rq" "$TMP/q$q.local"
  query_tsv "$COORD_PORT" "$TMP/q$q.rq" "$TMP/q$q.cluster"
  if ! cmp -s "$TMP/q$q.local" "$TMP/q$q.cluster"; then
    fail "LUBM Q$q: coordinator rows differ from local scatter-gather ($(wc -l <"$TMP/q$q.cluster") vs $(wc -l <"$TMP/q$q.local"))"
  fi
  log "LUBM Q$q conforms ($(wc -l <"$TMP/q$q.cluster") rows)"
done

# --- Chaos: SIGKILL one worker mid-loadgen ---
VICTIM_IDX=1
VICTIM_PID=${PIDS[$VICTIM_IDX]}
log "starting loadgen, then SIGKILLing worker $VICTIM_IDX (pid $VICTIM_PID) mid-run"
# 4000 requests run for a few seconds (200 finished in ~0.15 s on a 2-core
# Xeon, before the kill below), so the kill lands while requests are in
# flight.
"$TMP/rdfserved" -loadgen -url "http://127.0.0.1:$COORD_PORT" \
  -clients 4 -requests 4000 -lubm-queries 1,4,8 -scale $SCALE >"$TMP/loadgen.log" 2>&1 &
LG_PID=$!
sleep 1
kill -9 "$VICTIM_PID"
if ! wait "$LG_PID"; then
  cat "$TMP/loadgen.log" >&2
  fail "loadgen reported failed requests after the worker kill (failover should have absorbed it)"
fi
log "loadgen completed cleanly through the kill:"
grep -E "requests|p99" "$TMP/loadgen.log" | head -4 || true

# --- Post-kill: full-or-flagged-partial, never a 500 ---
code=$(curl -s -o "$TMP/postkill.json" -w '%{http_code}' --max-time 60 --get \
  "http://127.0.0.1:$COORD_PORT/query" --data-urlencode "query@$TMP/q1.rq")
if [ "$code" != 200 ]; then
  cat "$TMP/postkill.json" >&2
  fail "post-kill query answered $code, want 200 (full or flagged partial)"
fi
if grep -q '"partial"' "$TMP/postkill.json"; then
  log "post-kill query honestly flagged partial"
else
  log "post-kill query still answers the full result (failover)"
fi

# --- Metrics: the recovery left a trace ---
curl -fsS --max-time 10 "http://127.0.0.1:$COORD_PORT/metrics" >"$TMP/metrics.txt"
retries=$(awk '$1 == "rdf_shard_retries_total" {print int($2)}' "$TMP/metrics.txt")
if [ -z "$retries" ] || [ "$retries" -lt 1 ]; then
  fail "rdf_shard_retries_total = '${retries:-missing}', want >= 1 after the worker kill"
fi
log "rdf_shard_retries_total = $retries"
if ! grep -q 'rdf_worker_up{.*state="down".*} 0' "$TMP/metrics.txt"; then
  fail "killed worker not reported down in rdf_worker_up"
fi
log "killed worker's breaker reported down in /metrics"

log "PASS: conformance held, kill absorbed, retries surfaced in metrics"
