#!/usr/bin/env bash
# Smoke run of the repo benchmark's network workload: builds qbench,
# drives a server process over TCP, and fails unless the run checked
# its own outputs ("correct": true) with no failed operations.
#   usage: scripts/front_door_smoke.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-8}"
mkdir -p results
python3 qbench/run.py --workload front_door --seed "$seed" --seconds "$seconds" --trace 0 \
  > results/front_door_smoke.json
tail -n 1 results/front_door_smoke.json | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
if d.get("correct") is not True or d.get("failed") != 0:
    sys.exit("FAIL: front_door correct=%r failed=%r" % (d.get("correct"), d.get("failed")))
print("ok: front_door correct, 0 failed, accept p50 %.3f ms, %.0f ops/s"
      % (d["metrics"]["accept_p50_ms"]["value"], d["metrics"]["ops_per_s"]["value"]))
'
