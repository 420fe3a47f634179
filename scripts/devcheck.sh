#!/usr/bin/env bash
# Offline development check. In sandboxes with no crates.io access the
# third-party dependencies cannot be fetched; this script points cargo at
# the functional shims in .localdeps/ (see .localdeps/README.md) via CLI
# --config patches, leaving the real manifests untouched. On a networked
# machine just use scripts/ci.sh instead.
#
# Usage: scripts/devcheck.sh [check|test|clippy|guards|fmt|bench-smoke|overflow-bench|loc] [extra args...]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cmd="${1:-test}"
shift || true

config=()
for dep in rand bytes crossbeam parking_lot proptest; do
  config+=(--config "patch.crates-io.${dep}.path=\"${repo}/.localdeps/${dep}\"")
done

# awk: `counting` is set on the lines before a file's first #[cfg(test)].
non_test='FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 }'

case "$cmd" in
  check)
    cargo "${config[@]}" check --workspace --all-targets --offline "$@"
    ;;
  test)
    cargo "${config[@]}" test --workspace --offline "$@"
    ;;
  clippy)
    # `cargo clippy` re-executes itself as an external subcommand and
    # drops global --config flags, so the .localdeps patches never apply.
    # Drive clippy through `cargo check` with the workspace wrapper
    # instead — identical lints, patches intact.
    RUSTC_WORKSPACE_WRAPPER="$(command -v clippy-driver)" CLIPPY_ARGS="-Dwarnings" \
      cargo "${config[@]}" check --workspace --all-targets --offline "$@"
    "$0" guards
    ;;
  guards)
    # Five source guards, no cargo (scripts/ci.sh runs them too); each
    # must print nothing.
    # One round, one driver: smc and core spawn no thread, smc names no Endpoint.
    if grep -rnE 'thread::(scope|spawn)' "${repo}"/crates/{smc,core}/src; then exit 1; fi
    if grep -rn 'Endpoint' "${repo}/crates/smc/src"; then exit 1; fi
    # One byte format (transport::Wire), one harness (crates/benchmark).
    if grep -nE 'serde|criterion' "${repo}/Cargo.toml" "${repo}"/crates/*/Cargo.toml; then exit 1; fi
    # One threat model, the paper's semi-honest one (DESIGN.md §11): no
    # covert-audit layer and no sabotage hook inside a production machine.
    if grep -rnE 'Audit|Byzantine|Attest|attested|send_forged|with_deviations' \
      "${repo}"/crates/*/src "${repo}"/crates/*/tests "${repo}/tests" "${repo}/examples"; then exit 1; fi
    # Protocol randomness is keyed with 256 bits: outside tests, nothing a
    # round runs seeds a generator from a u64.
    if ! awk "$non_test"' counting && /seed_from_u64/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0; hit = 1 }
           END { exit hit }' "${repo}"/crates/{smc,parallel,paillier,dgk}/src/*.rs \
      "${repo}"/crates/core/src/{secure,recovery,reactor,pipeline}.rs; then exit 1; fi
    ;;
  fmt)
    cargo fmt --all -- --check
    ;;
  bench-smoke)
    # The repo benchmark at 64-bit keys: every workload, both passes,
    # every operation verified against the clear-text oracle. run.sh
    # detects the offline sandbox and applies the same patches itself.
    bash "${repo}/crates/benchmark/run.sh" --smoke "$@"
    ;;
  overflow-bench)
    # The limb kernel's carry invariants are enforced by debug-profile
    # overflow panics only; a release build wraps silently. Run the two
    # deployable-key workloads (32- and 64-limb kernels) once in the
    # release profile with the checks compiled in: every op must still
    # verify against the clear-text oracle. Its own target directory, so
    # the flag never leaks into (or rebuilds) the ordinary release build.
    # The slot packing's shift/split arithmetic runs under the same
    # checks, and a re-shaped frame is where a message would sneak in:
    # server_link_msgs (bound 0) must read exactly its pinned count.
    for pinned in deploy2048:34 paper1024:46; do
      workload="${pinned%:*}"
      line="$(RUSTFLAGS="-C overflow-checks=on" \
        CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-${repo}/target}/overflow-checks" \
        bash "${repo}/crates/benchmark/run.sh" --workload "$workload" --seconds 5 --trace 0 "$@" | tail -n 1)" || true
      echo "$workload: $line"
      case "$line" in
        *'"correct": true'*'"failed": 0,'*'"server_link_msgs": {"value": '"${pinned#*:}"','*) ;;
        *) echo "overflow-bench: $workload is not correct with failed 0 and server_link_msgs ${pinned#*:}" >&2; exit 1 ;;
      esac
    done
    ;;
  loc)
    # Lines before the first #[cfg(test)]: core + transport is the
    # trajectory ROADMAP's line target is read from (7 858 after PR 17);
    # the second count is every src/ file outside crates/benchmark.
    count="$non_test"' counting { n++ } END { print label ", non-test lines: " n }'
    awk -v label="core + transport" "$count" \
      "${repo}"/crates/core/src/*.rs "${repo}"/crates/transport/src/*.rs
    find "${repo}/crates" -path "${repo}/crates/benchmark" -prune -o -path '*/src/*' -name '*.rs' -print0 |
      xargs -0 awk -v label="workspace outside crates/benchmark" "$count"
    ;;
  *)
    echo "usage: $0 [check|test|clippy|guards|fmt|bench-smoke|overflow-bench|loc] [extra args...]" >&2
    exit 2
    ;;
esac
