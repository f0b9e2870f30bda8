#!/usr/bin/env bash
# Every workload, untraced then traced, from the root of a checkout:
#   bash bench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
for workload in ladder tables cli; do
  for trace in 0 1; do
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
  done
done
