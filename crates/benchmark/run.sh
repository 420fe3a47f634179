#!/usr/bin/env bash
# The repo benchmark, one command. Builds the `benchmark` binary in
# release mode, then runs it.
#
#   crates/benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of stdout is the result
#       as one JSON object (this is what BENCHMARK.json's command runs).
#   crates/benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, untraced pass then traced pass, each in its own
#       process one after another; exits non-zero if any check failed.
#   crates/benchmark/run.sh --emit-benchmark-json
#       prints BENCHMARK.json as the catalogue defines it.
#
# See crates/benchmark/README.md for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

# Offline-aware build. A sandbox without crates.io cannot resolve the
# third-party dependencies; probe once (no retries, so an unreachable
# registry fails in milliseconds) and, when offline, point cargo at the
# functional shims in .localdeps/ exactly as scripts/devcheck.sh does.
# The two resolve different `rand` crates, whose seeded streams differ,
# so the binary is told which one it got.
cargo_flags=()
export BENCH_RAND_BACKEND=crates-io
if ! CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=5 timeout 60 \
    cargo metadata --manifest-path "$root/Cargo.toml" --format-version 1 >/dev/null 2>&1; then
  BENCH_RAND_BACKEND=shim
  cargo_flags+=(--offline)
  for dep in rand bytes crossbeam parking_lot serde proptest criterion; do
    cargo_flags+=(--config "patch.crates-io.${dep}.path=\"${root}/.localdeps/${dep}\"")
  done
fi
cargo build --release --manifest-path "$root/Cargo.toml" -p benchmark ${cargo_flags[@]+"${cargo_flags[@]}"} >&2

BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
bin="${CARGO_TARGET_DIR:-target}/release/benchmark"

for arg in "$@"; do
  case "$arg" in
    --workload | --emit-benchmark-json) exec "$bin" "$@" ;;
  esac
done

status=0
for workload in deploy2048 paper1024 campaign64 reactor64; do
  for trace in 0 1; do
    echo "== $workload --trace $trace"
    "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
  done
done
exit "$status"
