#!/usr/bin/env bash
# Runs every workload untraced (end-to-end metrics) and traced (per-layer
# metrics) and prints every metric with its unit, median, quartiles and
# sample count. Run from the repository root:
#
#   bash benchgrid/all.sh [seed] [seconds]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-35}"
for w in fig5-graph figfrag figtenant; do
	for t in 0 1; do
		bash benchgrid/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
	done
done
