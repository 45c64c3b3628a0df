#!/usr/bin/env bash
# Runs every hostbench workload, untraced then traced, from the
# repository root: bash hostbench/run_all.sh [SEED] [SECONDS]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
cd "$(dirname "$0")/.."
for workload in road speculative sweep snapshot; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path hostbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
