#!/bin/sh
# Every workload, end-to-end and traced: prints every metric and runs every
# output check.  Usage (from the repository root): sh benchmarks/all.sh [seed] [seconds]
set -e
for workload in reference short_trials noise_validate; do
    for trace in 0 1; do
        python3 benchmarks/bench.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-35}" --trace "$trace"
    done
done
