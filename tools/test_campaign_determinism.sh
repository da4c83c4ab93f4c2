#!/usr/bin/env sh
# Campaign determinism contract, enforced end to end through the CLI: the
# merged metrics JSON, the per-cell CSV, and the stdout table must be
# byte-identical for --threads 1, 2, and 8, and across repeat runs.
#
# Two grids: HB(1,3) at 0 and 2 faults, and HB(2,3) at 0 and m+3 = 5
# faults. Every pool worker keeps its own topology adapter, whose
# Theorem-5 fault planner memoizes families in whatever order that
# worker's trials ask for them; the HB(2,3) grid pins that this warmth
# never shows in any artifact.
#
# Usage: test_campaign_determinism.sh <path-to-hbnet_cli>
set -eu

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run_campaign <tag> <threads> <campaign args...>
run_campaign() {
  tag=$1
  threads=$2
  shift 2
  # The "metrics:"/"csv:" confirmation lines echo the per-tag output paths,
  # so drop them before comparing the table across runs. The exit status is
  # checked before filtering: a pipeline would report grep's.
  if ! "$cli" campaign "$@" --threads "$threads" \
    --metrics-out "$work/m$tag.json" --csv "$work/c$tag.csv" \
    > "$work/raw$tag.txt"; then
    echo "FAIL: campaign $* --threads $threads exited nonzero" >&2
    exit 1
  fi
  grep -v -e '^metrics:' -e '^csv:' "$work/raw$tag.txt" > "$work/t$tag.txt"
}

# same <what> <file> <file>: fail unless the two files are byte-identical.
same() {
  if ! cmp -s "$2" "$3"; then
    echo "FAIL: $1 differs between --threads runs ($2 vs $3)" >&2
    exit 1
  fi
}

# check_grid <name> <campaign args...>: threads 1, 2, 8 and a repeat of 2.
check_grid() {
  name=$1
  shift
  run_campaign "${name}1" 1 "$@"
  run_campaign "${name}2" 2 "$@"
  run_campaign "${name}8" 8 "$@"
  run_campaign "${name}2b" 2 "$@"   # repeat run, same config
  for tag in 2 8 2b; do
    same "$name metrics JSON" "$work/m${name}1.json" "$work/m$name$tag.json"
    same "$name csv" "$work/c${name}1.csv" "$work/c$name$tag.csv"
    same "$name stdout table" "$work/t${name}1.txt" "$work/t$name$tag.txt"
  done
}

check_grid hb13 1 3 \
  --models random,adversarial,events --rates 0.03,0.06 --faults 0,2 \
  --trials 2 --seed 9 --cycles 100
check_grid hb23 2 3 \
  --models random,adversarial,events --rates 0.05 --faults 0,5 \
  --trials 3 --seed 4 --cycles 150

echo "campaign artifacts byte-identical across thread counts and reruns"
