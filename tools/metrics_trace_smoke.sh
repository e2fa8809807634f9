#!/usr/bin/env bash
# `privtopk metrics --trace` -> `privtopk trace-view` smoke: the JSON-lines
# stream the metrics command writes to stderr must be a span dump that
# trace-view merges into exactly one trace, rooted at the initiator's
# `query` span, with ring_round spans from every node and no orphans.
#
# Usage: metrics_trace_smoke.sh <path-to-privtopk-binary> <work-dir>
set -euo pipefail

PRIVTOPK=$(realpath "${1:?usage: metrics_trace_smoke.sh <privtopk> <workdir>}")
WORKDIR=${2:?usage: metrics_trace_smoke.sh <privtopk> <workdir>}
NODES=4

mkdir -p "$WORKDIR"
cd "$WORKDIR"

"$PRIVTOPK" metrics --parties $NODES --k 3 --trace >metrics.txt 2>spans.jsonl
"$PRIVTOPK" trace-view --spans spans.jsonl >timeline.txt

fail() {
  echo "FAIL: $1"
  cat timeline.txt
  exit 1
}

[ "$(grep -c '^trace ' timeline.txt)" -eq 1 ] || fail "expected one trace"
grep -Eq '\] node 0 +query ' timeline.txt ||
  fail "no root query span on the initiator"
for i in $(seq 0 $((NODES - 1))); do
  grep -Eq "\] node $i +ring_round " timeline.txt ||
    fail "no ring_round span from node $i"
done
grep -q '^orphan spans: none$' timeline.txt || fail "orphan spans"

echo "metrics trace smoke OK: $(grep -c '' spans.jsonl) spans"
