#!/usr/bin/env sh
# tools/ab.py on canned hbbench output (--replay): no build, no benchmark
# run. Checks the per-workload, per-metric summary of a clean comparison
# of two workloads, and that a digest that differs between the sides, or a
# run with failed checks, makes it exit 1.
#
# Usage: test_ab.sh <path-to-tools/ab.py>
set -eu

ab=$1
tmp=${TMPDIR:-/tmp}/hbnet_test_ab.$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
fails=0

# run <side> <seed> <role> <run_s> <digest> <failed> <workload>: one canned
# run.
run() {
  printf '### %s %s %s %s\n' "$1" "$2" "$3" "$7"
  printf 'workload %s  seed %s  threads 4  trace 0\n' "$7" "$2"
  printf 'digest %s %s  (36 calls; delivered packet per op)\n' "$7" "$5"
  printf '{"correct":true,"attempted":36,"failed":%s,"metrics":{' "$6"
  printf '"run_s":{"value":%s,"unit":"s"},' "$4"
  printf '"peak_rss_mib":{"value":9.8,"unit":"MiB"}}}\n'
}

# campaign: three pairs, the head side faster in each, plus a held-out
# seed run in both orders. kappa: three pairs, the head side slower in
# each.
{
  run base 11 pair 0.042 6c6143adafb8b1ca 0 campaign
  run head 11 pair 0.030 6c6143adafb8b1ca 0 campaign
  run head 12 pair 0.031 6c6143adafb8b1ca 0 campaign
  run base 12 pair 0.043 6c6143adafb8b1ca 0 campaign
  run base 13 pair 0.041 6c6143adafb8b1ca 0 campaign
  run head 13 pair 0.029 6c6143adafb8b1ca 0 campaign
  run base 99 holdout 0.044 6c6143adafb8b1ca 0 campaign
  run head 99 holdout 0.032 6c6143adafb8b1ca 0 campaign
  run head 99 holdout-rev 0.031 6c6143adafb8b1ca 0 campaign
  run base 99 holdout-rev 0.043 6c6143adafb8b1ca 0 campaign
  run base 11 pair 0.060 0123456789abcdef 0 kappa
  run head 11 pair 0.066 0123456789abcdef 0 kappa
  run head 12 pair 0.063 0123456789abcdef 0 kappa
  run base 12 pair 0.060 0123456789abcdef 0 kappa
  run base 13 pair 0.061 0123456789abcdef 0 kappa
  run head 13 pair 0.061 0123456789abcdef 0 kappa
} >"$tmp/clean.txt"

if ! python3 "$ab" --replay "$tmp/clean.txt" >"$tmp/clean.out"; then
  echo "FAIL: a clean comparison exits nonzero" >&2
  fails=$((fails + 1))
fi
for want in "campaign: 3 pairs (seeds 11..13)" \
            "run_s: base 0.042 [0.001]  head 0.03 [0.001]  -28.6%  head wins 3/3  change beyond base IQR  ratio 0.7143 [0.00681]" \
            "held-out seed 99, base first: base 0.044 head 0.032 -27.3%  ratio 0.7273" \
            "held-out seed 99, head first: base 0.043 head 0.031 -27.9%  ratio 0.7209" \
            "peak_rss_mib: base 9.8 [0]  head 9.8 [0]  +0.0%  head wins 0/3  change within base IQR  ratio 1 [0]" \
            "kappa: 3 pairs (seeds 11..13)" \
            "run_s: base 0.06 [0.0005]  head 0.063 [0.0025]  +5.0%  head wins 0/3  change beyond base IQR  ratio 1.05 [0.05]"; do
  if ! grep -qF -- "$want" "$tmp/clean.out"; then
    echo "FAIL: summary lacks '$want'" >&2
    cat "$tmp/clean.out" >&2
    fails=$((fails + 1))
  fi
done

# expect_fail <case> <pattern>: the replay of $tmp/<case>.txt exits 1 and
# prints <pattern>.
expect_fail() {
  if python3 "$ab" --replay "$tmp/$1.txt" >"$tmp/$1.out"; then
    echo "FAIL: $1: expected exit 1" >&2
    fails=$((fails + 1))
  elif ! grep -qF -- "$2" "$tmp/$1.out"; then
    echo "FAIL: $1: output lacks '$2'" >&2
    fails=$((fails + 1))
  fi
}

sed '/^### head 12 /,/^### base 12 /s/^digest kappa 0123456789abcdef/digest kappa 0000000000000000/' \
  "$tmp/clean.txt" >"$tmp/digest.txt"
expect_fail digest "FAIL kappa seed 12: digest differs"

sed '/^### base 13 pair campaign/,/^### head 13 /s/"failed":0/"failed":2/' \
  "$tmp/clean.txt" >"$tmp/failed.txt"
expect_fail failed "FAIL campaign base seed 13: failed = 2"

if [ "$fails" -ne 0 ]; then
  echo "$fails ab.py case(s) failed" >&2
  exit 1
fi
echo "all ab.py replay cases passed"
