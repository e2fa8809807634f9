#!/usr/bin/env bash
# `privtopk node` exactness smoke: boots a real 3-node TCP federation once
# per query type and checks that EVERY node prints the exact answer.
# Sum, count and average must equal `privtopk query` over the same CSVs
# (the in-process secure-sum federation); top-k runs with --p0 0 (no
# randomization, so the ring merge is exact) and must equal a sort of the
# raw CSV values.
#
# Usage: node_smoke.sh <path-to-privtopk-binary> <work-dir>
set -euo pipefail

PRIVTOPK=$(realpath "${1:?usage: node_smoke.sh <privtopk> <workdir>}")
WORKDIR=${2:?usage: node_smoke.sh <privtopk> <workdir>}
NODES=3
PORT_BASE=9310  # trace_smoke.sh uses 9100-9108 and 9200-9208

mkdir -p "$WORKDIR"
cd "$WORKDIR"

"$PRIVTOPK" generate --parties $NODES --rows 5 --out party --seed 7 >/dev/null
CSVS=$(for i in $(seq 0 $((NODES - 1))); do echo "party$i.csv"; done |
  paste -sd,)
RING=$(seq 0 $((NODES - 1)) | paste -sd,)

# The bracketed result list at the end of a `result:` / `query` line.
bracket() { sed -n 's/.*\(\[[^]]*\]\)$/\1/p'; }

PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true' EXIT

# run_ring <name> <port-offset> <node flags...>: one fresh federation per
# query (distinct ports, so no run waits on a predecessor's TIME_WAIT).
run_ring() {
  local name=$1 offset=$2
  shift 2
  local peers=""
  for i in $(seq 0 $((NODES - 1))); do
    peers+="${peers:+,}127.0.0.1:$((PORT_BASE + offset + i))"
  done
  PIDS=()
  # Followers first, the initiator (first on the ring) last; the TCP
  # transport retries connects while a peer's listener comes up.
  for i in $(seq $((NODES - 1)) -1 0); do
    "$PRIVTOPK" node --self "$i" --peers "$peers" --ring "$RING" \
      --csv "party$i.csv" --timeout-ms 20000 "$@" \
      >"node-$name-$i.log" 2>&1 &
    PIDS+=($!)
  done
  local fail=0
  for pid in "${PIDS[@]}"; do
    wait "$pid" || fail=1
  done
  PIDS=()
  if [ "$fail" -ne 0 ]; then
    echo "FAIL $name: a node exited non-zero"
    tail -n 5 node-"$name"-*.log
    return 1
  fi
}

# check <name> <expected>: every node's result line must equal it.
check() {
  local name=$1 expected=$2 status=0
  for i in $(seq 0 $((NODES - 1))); do
    local got
    got=$(grep '^result: ' "node-$name-$i.log" | bracket)
    if [ "$got" != "$expected" ]; then
      echo "FAIL $name: node $i printed '$got', expected '$expected'"
      status=1
    fi
  done
  [ "$status" -eq 0 ] && echo "ok   $name: $expected on all $NODES nodes"
  return $status
}

FAIL=0
offset=0
for type in sum count average; do
  expected=$("$PRIVTOPK" query --csv "$CSVS" --type "$type" | head -n 1 |
    bracket)
  run_ring "$type" $offset --type "$type" || FAIL=1
  check "$type" "$expected" || FAIL=1
  offset=$((offset + NODES))
done

K=3
expected="[$(for f in party*.csv; do tail -n +2 "$f"; done | cut -d, -f2 |
  sort -rn | head -n $K | paste -sd, | sed 's/,/, /g')]"
run_ring topk $offset --type topk --k $K --p0 0 || FAIL=1
check topk "$expected" || FAIL=1

trap - EXIT
exit $FAIL
