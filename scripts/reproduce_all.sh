#!/usr/bin/env bash
# Regenerates every table and figure of the paper.
# Results land in results/<name>.txt. Expect ~20-40 minutes total on a
# laptop; pass extra flags through, e.g.  ./scripts/reproduce_all.sh --rounds 3
set -euo pipefail
cd "$(dirname "$0")/.."

EXTRA_ARGS=("$@")
mkdir -p results

cargo build --release --workspace

run() {
    local name="$1"
    shift
    echo "== $name =="
    cargo run --release -p benches --bin "$name" -- "$@" "${EXTRA_ARGS[@]}" \
        | tee "results/$name.txt"
    echo
}

run table1_costs
run table2_comm_costs
run fig2_user_accuracy
run fig3_consensus_vs_baseline
run fig4_onehot_softmax
run fig5_threshold_sweep
run fig5_uneven
run fig6_celeba
run table3_retention

echo "All results written to results/."
