#!/usr/bin/env bash
# Asserts the kernel invariants BENCH_protocol.json must uphold: the CRT
# decrypt path beats the plain one, every batched/fixed kernel is no
# slower than its predecessor at k = 1 (125% tolerance absorbs timer
# noise on loaded machines), a 2048-bit encryption through the
# randomizer comb costs at most a quarter of the full-width r^n ladder it
# replaced, the sorted-merge survivor intersection beats
# the linear scan it replaced, across the --scale sweep sharded
# streaming never costs more than flat + 5% bytes/user at equal |U|,
# the campaign daemon telemetry (campaign_summary + campaign_round_*) is
# present with a positive rounds/sec and a monotone epsilon trajectory,
# the multi-session reactor row (reactor_sessions) carries a
# positive sessions/sec with p99 round latency no smaller than p50, and
# the ranking bracket rows (rank_bracket_k*) show exactly K-1 comparisons
# in 3*ceil(log2 K) messages.
# Rows the file does not carry (e.g. a run without --batch or --scale)
# are noted and skipped, never failed. When the meta object says the box
# has one core, thread-sweep rows get a warning: their scaling curves are
# flat by construction, not by regression.
#
# Usage: check_bench.sh [--warn-only] [FILE]
#   --warn-only  print verdicts but always exit 0 (smoke/CI trend mode)
#   FILE         defaults to BENCH_protocol.json in the current directory
set -euo pipefail

warn_only=0
file=BENCH_protocol.json
for arg in "$@"; do
  case "$arg" in
    --warn-only) warn_only=1 ;;
    *) file="$arg" ;;
  esac
done

if [[ ! -f "$file" ]]; then
  echo "check_bench: $file not found" >&2
  exit 1
fi

# Pull the ns figure of one step. Keys are matched fully quoted so e.g.
# "ablation_multiexp_iter_k1" never collides with its k16/k64 siblings.
ns_of() {
  awk -v key="\"$1\":" '
    index($0, key) {
      s = $0
      sub(/.*"ns":[ ]*/, "", s)
      sub(/[^0-9].*/, "", s)
      print s
      exit
    }
  ' "$file"
}

# Pull one numeric field out of a named JSON object row (scale_*, meta).
field_of() {
  awk -v key="\"$1\":" -v field="\"$2\":" '
    index($0, key) && index($0, field) {
      s = $0
      sub(".*" field "[ ]*", "", s)
      sub(/[,}].*/, "", s)
      print s
      exit
    }
  ' "$file"
}

fails=0

# check NEW OLD TOL_PCT DESC — fail when ns(NEW)*100 > ns(OLD)*TOL_PCT.
check() {
  local new=$1 old=$2 tol=$3 desc=$4 new_ns old_ns
  new_ns=$(ns_of "$new")
  old_ns=$(ns_of "$old")
  if [[ -z "$new_ns" || -z "$old_ns" ]]; then
    echo "  skip  ${desc} (missing row: ${new} or ${old})"
    return
  fi
  if (( new_ns * 100 > old_ns * tol )); then
    echo "  FAIL  ${desc}: ${new}=${new_ns}ns vs ${old}=${old_ns}ns (limit ${tol}%)"
    fails=$((fails + 1))
  else
    echo "  ok    ${desc}: ${new}=${new_ns}ns vs ${old}=${old_ns}ns"
  fi
}

echo "check_bench: ${file}"
check paillier_decrypt_crt paillier_decrypt 100 \
  "CRT decrypt faster than plain decrypt"
check ablation_multiexp_straus_k1 ablation_multiexp_iter_k1 125 \
  "Straus multi-exp no slower than iterated modpow at k=1"
check ablation_modpow_cached_montgomery_256 ablation_modpow_division_256 100 \
  "Montgomery-kernel modpow faster than division-path modpow_basic"
check ablation_crt_recombine_fixed ablation_crt_recombine_gcd 125 \
  "fixed Garner recombination no slower than extended-gcd CRT"
check paillier_encrypt_2048 modpow_n2_2048 25 \
  "2048-bit encryption at most a quarter of the full-width r^n ladder"
check ablation_dgk_zero_batch_k1 ablation_dgk_zero_loop_k1 125 \
  "batched DGK zero test no slower than per-item loop at k=1"

# Survivor-intersection ablation (full runs record |U| = 10k, smoke 2k):
# the sorted merge must beat the linear scan outright.
for ab in 10000 2000; do
  if [[ -n "$(ns_of "ablation_survivor_intersect_sorted_u${ab}")" ]]; then
    check "ablation_survivor_intersect_sorted_u${ab}" \
      "ablation_survivor_intersect_linear_u${ab}" 100 \
      "sorted-merge survivor intersection beats linear scan at |U|=${ab}"
    break
  fi
done

# Scale sweep: at equal |U|, sharded streaming may exceed the flat
# bytes/user only by the amortized shard-aggregate flow (5% tolerance).
for key in $(grep -o '"scale_u[0-9]*_s[0-9]*"' "$file" | tr -d '"'); do
  users="${key#scale_u}"; users="${users%%_s*}"
  shards="${key##*_s}"
  [[ "$shards" == "1" ]] && continue
  flat_bpu=$(field_of "scale_u${users}_s1" bytes_per_user)
  shard_bpu=$(field_of "$key" bytes_per_user)
  if [[ -z "$flat_bpu" || -z "$shard_bpu" ]]; then
    echo "  skip  sharded-vs-flat bytes/user at |U|=${users} (missing flat row)"
    continue
  fi
  if awk -v s="$shard_bpu" -v f="$flat_bpu" 'BEGIN { exit !(s * 100 > f * 105) }'; then
    echo "  FAIL  sharded bytes/user exceeds flat+5% at |U|=${users} shards=${shards}: ${shard_bpu} vs ${flat_bpu}"
    fails=$((fails + 1))
  else
    echo "  ok    sharded bytes/user within flat+5% at |U|=${users} shards=${shards}: ${shard_bpu} vs ${flat_bpu}"
  fi
done

# Campaign daemon telemetry: every bench run drives a short durable
# campaign, so the campaign_* rows must be present and sane — a summary
# with a positive rounds/sec, and a per-round epsilon trajectory that is
# positive and non-decreasing (the durable ledger only ever composes).
camp_rps=$(field_of campaign_summary rounds_per_sec)
if [[ -z "$camp_rps" ]]; then
  echo "  FAIL  campaign_summary row missing (campaign telemetry not emitted)"
  fails=$((fails + 1))
elif awk -v r="$camp_rps" 'BEGIN { exit !(r <= 0) }'; then
  echo "  FAIL  campaign rounds/sec not positive: ${camp_rps}"
  fails=$((fails + 1))
else
  echo "  ok    campaign summary present (${camp_rps} rounds/sec)"
fi
camp_rounds=$(field_of campaign_summary rounds)
eps_prev=0
eps_rows=0
eps_bad=0
for ((r = 0; r < ${camp_rounds:-0}; r++)); do
  eps=$(field_of "campaign_round_${r}" epsilon_total)
  [[ -z "$eps" ]] && continue
  eps_rows=$((eps_rows + 1))
  if awk -v e="$eps" -v p="$eps_prev" 'BEGIN { exit !(e <= 0 || e < p) }'; then
    eps_bad=$((eps_bad + 1))
  fi
  eps_prev="$eps"
done
if [[ -z "$camp_rounds" ]] || (( eps_rows < camp_rounds )); then
  echo "  FAIL  campaign epsilon trajectory incomplete: ${eps_rows}/${camp_rounds:-?} campaign_round_* rows"
  fails=$((fails + 1))
elif (( eps_bad > 0 )); then
  echo "  FAIL  campaign epsilon trajectory not positive/monotone (${eps_bad} bad rows)"
  fails=$((fails + 1))
else
  echo "  ok    campaign epsilon trajectory monotone over ${eps_rows} rounds (final ${eps_prev})"
fi

# Multi-session reactor: every bench run multiplexes 100+ concurrent
# sessions (16 in smoke) through the reactor, so the reactor_sessions
# row must be present with a positive throughput and an internally
# consistent latency distribution (p99 never below p50).
reactor_sps=$(field_of reactor_sessions sessions_per_sec)
if [[ -z "$reactor_sps" ]]; then
  echo "  FAIL  reactor_sessions row missing (multi-session telemetry not emitted)"
  fails=$((fails + 1))
elif awk -v r="$reactor_sps" 'BEGIN { exit !(r <= 0) }'; then
  echo "  FAIL  reactor sessions/sec not positive: ${reactor_sps}"
  fails=$((fails + 1))
else
  echo "  ok    reactor throughput present (${reactor_sps} sessions/sec)"
fi
reactor_p50=$(field_of reactor_sessions p50_ns)
reactor_p99=$(field_of reactor_sessions p99_ns)
if [[ -z "$reactor_p50" || -z "$reactor_p99" ]]; then
  echo "  FAIL  reactor_sessions latency percentiles missing (p50/p99)"
  fails=$((fails + 1))
elif awk -v lo="$reactor_p50" -v hi="$reactor_p99" 'BEGIN { exit !(hi < lo) }'; then
  echo "  FAIL  reactor round latency p99 below p50: ${reactor_p99} < ${reactor_p50}"
  fails=$((fails + 1))
else
  echo "  ok    reactor round latency p50 ${reactor_p50} ns <= p99 ${reactor_p99} ns"
fi

# Ranking bracket: every bench run ranks K = 10 and K = 100 slots over
# real channels. The knock-out bracket must spend exactly K-1 comparisons
# in ceil(log2 K) three-message rounds — an all-pairs or linear-scan
# ranking creeping back in fails here.
for key in rank_bracket_k10 rank_bracket_k100; do
  k=$(field_of "$key" classes)
  cmps=$(field_of "$key" comparisons)
  msgs=$(field_of "$key" messages)
  if [[ -z "$k" || -z "$cmps" || -z "$msgs" ]]; then
    echo "  FAIL  ${key} row missing (ranking bracket not measured)"
    fails=$((fails + 1))
    continue
  fi
  rounds=0
  while (( (1 << rounds) < k )); do rounds=$((rounds + 1)); done
  if (( cmps != k - 1 || msgs != 3 * rounds )); then
    echo "  FAIL  ${key}: ${cmps} comparisons / ${msgs} messages, expected $((k - 1)) / $((3 * rounds))"
    fails=$((fails + 1))
  else
    echo "  ok    ${key}: ${cmps} comparisons in ${msgs} messages ($(field_of "$key" bytes) bytes, $(ns_of "$key") ns)"
  fi
done

# Thread sweeps on a single-core box are flat by construction, not by
# regression — say so rather than letting a trend line cry wolf.
cores=$(field_of meta available_cores)
if [[ "${cores:-0}" == "1" ]] && grep -q '"par_[a-z0-9_]*_t[2-9][0-9]*"' "$file"; then
  echo "  warn  thread-sweep rows were measured on a single-core machine; scaling curves are flat by construction"
fi

if (( fails > 0 )); then
  if (( warn_only )); then
    echo "check_bench: ${fails} regression(s) — warn-only mode, exiting 0"
    exit 0
  fi
  echo "check_bench: ${fails} regression(s)" >&2
  exit 1
fi
echo "check_bench: all kernel invariants hold"
