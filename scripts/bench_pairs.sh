#!/usr/bin/env bash
# The ten-pair protocol as one command: the working tree against a parent
# revision on one workload of the repo benchmark, untraced passes in
# alternating order (choosing-metrics §8; the rule a claimed gain is
# judged by).
#
#   scripts/bench_pairs.sh <parent-rev> <workload|all> [pairs=10] [seconds=20] [first-seed=1]
#
# `all` runs every workload BENCHMARK.json declares, one after the other,
# each through this same script with the same pairs, seconds and seeds.
#
# The parent is unpacked with `git archive` into
# target/bench_pairs/<commit>/ — a plain directory with its own target/,
# so neither side ever runs a binary the other built and `rm -rf target`
# leaves nothing registered in .git. Every pass goes through that side's
# own crates/benchmark/run.sh (its offline detection, its build, its
# environment); the first pass of each side builds it. Pair i runs both
# sides on seed first-seed + i, the parent first on even i and the change
# first on odd i.
#
# Prints, per end-to-end metric of BENCHMARK.json: each side's median and
# quartiles, the change's wins and ties over the pairs, and the verdict of
# the rule (wins ≥ 9/10 of the pairs and medians further apart than the
# parent's inter-quartile distance), and `REGRESSED` where the change's
# median is worse than the parent's by more than the metric's `bound`.
# Before that, `correct` / `failed` of every run. Exits non-zero if any
# run was not `correct` with `failed` 0.
#
# In a sandbox without network access export CARGO_NET_OFFLINE=true first:
# run.sh finds out whether it is offline by asking cargo for the registry.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
  exit 2
fi
rev="$1" workload="$2" pairs="${3:-10}" seconds="${4:-20}" first_seed="${5:-1}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [ "$workload" = all ]; then
  status=0
  for name in $(sed -n '/"workloads"/,/\]/s/.*{"name": "\([^"]*\)".*/\1/p' "$repo/BENCHMARK.json"); do
    "$0" "$rev" "$name" "$pairs" "$seconds" "$first_seed" || status=1
    echo
  done
  exit "$status"
fi
commit="$(git -C "$repo" rev-parse --verify "${rev}^{commit}")"
parent="$repo/target/bench_pairs/$commit"
if [ ! -f "$parent/crates/benchmark/run.sh" ]; then
  mkdir -p "$parent"
  git -C "$repo" archive "$commit" | tar -x -C "$parent"
fi

# One untraced pass of one side; prints the JSON result line.
pass() { # <root> <seed>
  (cd "$1" && env -u CARGO_TARGET_DIR bash crates/benchmark/run.sh \
    --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
}

# The value of one metric in a JSON result line.
metric() { # <line> <name>
  sed -n 's/.*"'"$2"'": {"value": \([^,}]*\).*/\1/p' <<<"$1"
}

results="$(mktemp)"
trap 'rm -f "$results"' EXIT
status=0
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then root="$parent"; else root="$repo"; fi
    line="$(pass "$root" "$seed")"
    verdict="$(sed -n 's/^{"correct": \([a-z]*\), "attempted": \([0-9]*\), "failed": \([0-9]*\),.*/correct \1, attempted \2, failed \3/p' <<<"$line")"
    echo "pair $i seed $seed $side: ${verdict:-no result line}"
    case "$verdict" in "correct true,"*", failed 0") ;; *) status=1 ;; esac
    printf '%s %s %s\n' "$i" "$side" "$line" >>"$results"
  done
done

# name:better:bound for every end-to-end metric the benchmark declares.
metrics="$(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1:\2:\3/p' "$repo/BENCHMARK.json")"

echo
echo "$workload, $pairs pairs x ${seconds}s, parent $(git -C "$repo" rev-parse --short "$commit"), seeds $first_seed..$((first_seed + pairs - 1))"
printf '%-18s %-6s | %12s %12s %12s | %12s %12s %12s | %5s %4s | %8s  %s\n' \
  metric better "parent q1" median q3 "change q1" median q3 wins ties "delta" "claimable gain / past bound"
for entry in $metrics; do
  IFS=: read -r name better bound <<<"$entry"
  while read -r i side line; do
    echo "$i $side $(metric "$line" "$name")"
  done <"$results" | awk -v name="$name" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
    function quantile(v, n, p,    h, lo) {
      h = (n - 1) * p; lo = int(h)
      return lo + 1 >= n ? v[n] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
    }
    function sorted(src, dst, n,    i, j, t) {
      for (i = 1; i <= n; i++) dst[i] = src[i]
      for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
    }
    $2 == "parent" { p[$1 + 1] = $3 }
    $2 == "change" { c[$1 + 1] = $3 }
    END {
      for (i = 1; i <= pairs; i++) {
        if (c[i] == p[i]) ties++
        else if ((better == "lower") == (c[i] < p[i])) wins++
      }
      sorted(p, ps, pairs); sorted(c, cs, pairs)
      pm = quantile(ps, pairs, 0.5); cm = quantile(cs, pairs, 0.5)
      iqr = quantile(ps, pairs, 0.75) - quantile(ps, pairs, 0.25)
      gain = better == "lower" ? pm - cm : cm - pm
      verdict = (wins * 10 >= pairs * 9 && gain > iqr) ? "yes" : "no"
      if (-gain > bound * pm) verdict = verdict "  REGRESSED (bound " 100 * bound "%)"
      printf "%-18s %-6s | %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %5d %4d | %+7.2f%%  %s\n", \
        name, better, quantile(ps, pairs, 0.25), pm, quantile(ps, pairs, 0.75), \
        quantile(cs, pairs, 0.25), cm, quantile(cs, pairs, 0.75), wins, ties, \
        pm == 0 ? 0 : 100 * (cm - pm) / pm, verdict
    }'
done
exit "$status"
