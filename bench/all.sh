#!/bin/sh
# Every number of the benchmark: each workload untraced, then traced.
# Usage, from the root of a checkout: sh bench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-20}
for workload in mc-robust mc-headline bounds-sweep; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
