#!/usr/bin/env bash
# Performance snapshot: runs the criterion microbenches in quick mode and
# the bench_protocol binary, which emits the machine-readable
# BENCH_protocol.json (step → ns/iter) at the repo root — the artifact
# the perf trajectory is tracked by (see DESIGN.md, "Exponentiation
# strategy").
#
# Usage: scripts/bench.sh [--smoke] [--offline] [--threads N] [--audit] [--batch] [--scale]
#
#   --smoke      minimal iteration counts and no criterion sweep — the CI
#                wiring (scripts/ci.sh) uses this to keep the harness from
#                rotting without burning CI minutes on real measurements.
#   --offline    point cargo at the .localdeps/ shims (sandboxes without
#                crates.io access, same mechanism as scripts/devcheck.sh).
#                The criterion shim executes each bench closure once
#                without timing, so only bench_protocol produces numbers.
#   --threads N  forward a worker-thread count to bench_protocol's
#                data-parallel sweep (default: the CONSENSUS_THREADS
#                environment variable, else 1).
#   --audit      also time the full engine round with the covert-security
#                audit layer off vs. on (audit_off_/audit_on_ rows in
#                BENCH_protocol.json).
#   --batch      also run the batched-kernel ablation (Straus multi-exp,
#                fixed CRT recombination, batched DGK zero test,
#                k ∈ {1,4,16,64}).
#   --scale      also run the simulated streaming-ingest scale sweep
#                (|U| ∈ {100k, 300k, 1M} × shard counts, scale_* rows
#                with bytes/user, throughput and VmHWM/VmRSS) plus the
#                survivor-intersection ablation at |U| = 10k. Under
#                --smoke the sweep shrinks to |U| = 2k.
#
# After writing the JSON, scripts/check_bench.sh asserts the kernel
# invariants (CRT decrypt beats plain, batched kernels no slower at k=1)
# — warn-only under --smoke, where iteration counts are too low to trust.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

smoke=0
offline=0
audit=0
batch=0
scale=0
threads=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --offline) offline=1 ;;
    --audit) audit=1 ;;
    --batch) batch=1 ;;
    --scale) scale=1 ;;
    --threads)
      [[ $# -ge 2 ]] || { echo "--threads needs a value" >&2; exit 2; }
      threads="$2"
      shift
      ;;
    *)
      echo "usage: $0 [--smoke] [--offline] [--threads N] [--audit] [--batch] [--scale]" >&2
      exit 2
      ;;
  esac
  shift
done

config=()
cargo_flags=()
if [[ $offline -eq 1 ]]; then
  for dep in rand bytes crossbeam parking_lot serde proptest criterion; do
    config+=(--config "patch.crates-io.${dep}.path=\"${repo}/.localdeps/${dep}\"")
  done
  cargo_flags+=(--offline)
fi

if [[ $smoke -eq 0 ]]; then
  echo "==> criterion microbenches (quick mode)"
  for bench in bigint_ops paillier_ops dgk_compare protocol_steps; do
    cargo "${config[@]}" bench -p benches --bench "$bench" "${cargo_flags[@]}" -- --quick
  done
fi

echo "==> bench_protocol → BENCH_protocol.json"
protocol_args=(--out "$repo/BENCH_protocol.json")
if [[ $smoke -eq 1 ]]; then
  protocol_args+=(--smoke)
fi
if [[ -n $threads ]]; then
  protocol_args+=(--threads "$threads")
fi
if [[ $audit -eq 1 ]]; then
  protocol_args+=(--audit)
fi
if [[ $batch -eq 1 ]]; then
  protocol_args+=(--batch)
fi
if [[ $scale -eq 1 ]]; then
  protocol_args+=(--scale)
fi
cargo "${config[@]}" run --release -p benches --bin bench_protocol "${cargo_flags[@]}" \
  -- "${protocol_args[@]}"

check_args=("$repo/BENCH_protocol.json")
if [[ $smoke -eq 1 ]]; then
  check_args=(--warn-only "${check_args[@]}")
fi
bash "$repo/scripts/check_bench.sh" "${check_args[@]}"

echo "bench artifacts written to $repo/BENCH_protocol.json"
