#!/usr/bin/env bash
# Run the whole benchmark twice x 2 sets on one build and compare: per
# metric x workload the two sets' medians, their ratio and the bound.
# Fails if an end-to-end pair is outside its bound, or if a digest,
# wire_bytes_per_op or msgs_per_op differs between any two runs.
#
#   benchmark/check_repeat.sh [--seed N] [--seconds S]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
seconds=20
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "usage: check_repeat.sh [--seed N] [--seconds S]" >&2; exit 2 ;;
  esac
done

out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
for set in a b; do
  for run in 1 2; do
    "$here/run.sh" --seed "$seed" --seconds "$seconds" --trace 0 \
      --json-out "$out/$set$run" > "$out/$set$run.log"
  done
done

exec python3 "$here/compare_repeat.py" "$here/../BENCHMARK.json" "$out"
