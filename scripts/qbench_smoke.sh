#!/usr/bin/env bash
# Smoke run of one repo-benchmark workload: builds qbench, runs the
# workload, and fails unless the run checked its own outputs
# ("correct": true) with no failed operations.  travel's checks include
# the engine invariant and the seat checks on every flight; front_door
# drives a server process over TCP.
#   usage: scripts/qbench_smoke.sh WORKLOAD [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/qbench_smoke.sh WORKLOAD [SEED] [SECONDS]}"
seed="${2:-1}"
seconds="${3:-8}"
out="results/${workload}_smoke.json"
mkdir -p results
python3 qbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$out"
tail -n 1 "$out" | python3 -c '
import json, sys
name = sys.argv[1]
d = json.loads(sys.stdin.read())
if d.get("correct") is not True or d.get("failed") != 0:
    sys.exit("FAIL: %s correct=%r failed=%r" % (name, d.get("correct"), d.get("failed")))
m = d["metrics"]
print("ok: %s correct, 0 failed, %d attempted, accept p50 %.3f ms, %.0f ops/s"
      % (name, d["attempted"], m["accept_p50_ms"]["value"], m["ops_per_s"]["value"]))
' "$workload"
