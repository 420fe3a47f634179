#!/usr/bin/env bash
# The repository's CI gate, for machines with crates.io access:
#
#   1. cargo fmt --check          — formatting (rustfmt.toml at the root)
#   2. cargo clippy -D warnings   — lints, all targets; plus the five
#      source guards of `scripts/devcheck.sh guards`: smc and core spawn
#      no thread, smc names no Endpoint, no manifest names serde or
#      criterion, nothing names the deleted covert-security layer, and no
#      non-test protocol code seeds a generator from a u64
#   3. cargo build --release      — the tier-1 build
#   4. cargo test                 — the tier-1 test suite
#   5. the smoke suites and the repo benchmark's --smoke pass (a kernel
#      that is fast but wrong fails here)
#   6. scripts/devcheck.sh overflow-bench and loc: the benchmark's two
#      deployable-key workloads under -C overflow-checks=on, and the
#      non-test line counts
#
# In offline sandboxes where the third-party crates cannot be fetched,
# use scripts/devcheck.sh instead — same checks, pointed at the
# functional shims in .localdeps/.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> source guards (one driver, one byte format, one harness, one threat model, 256-bit seeds)"
bash scripts/devcheck.sh guards

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> crash-recovery smoke (1 crash step, 2 seeds)"
cargo test -q -p consensus-core --test recovery recovery_smoke_two_seeds

echo "==> tcp transport smoke (fingerprint parity + mid-round connection kill, 2 seeds)"
cargo test -q -p consensus-core --test chaos tcp_backend_matches_inproc_fingerprint
cargo test -q -p consensus-core --test recovery tcp_connection_kill_recovers_two_seeds

echo "==> sharded aggregation smoke (fingerprint parity across shard/thread counts)"
cargo test -q -p consensus-core --test shard

echo "==> campaign-soak smoke (2 seeds, kill at seed-derived rounds, exactly-once charges)"
cargo test -q -p consensus-core --test campaign campaign_soak_smoke

echo "==> multi-session reactor smoke (16 concurrent sessions, 2 seeds)"
cargo test -q -p consensus-core --test reactor sixteen_session_smoke

echo "==> repo benchmark smoke (crates/benchmark/run.sh --smoke: every op checked against the clear-text oracle)"
bash crates/benchmark/run.sh --smoke

echo "==> release-shaped limb kernel under overflow checks (deploy2048 + paper1024)"
bash scripts/devcheck.sh overflow-bench

echo "==> non-test lines: core + transport, and the workspace outside crates/benchmark"
bash scripts/devcheck.sh loc

echo "CI checks passed."
