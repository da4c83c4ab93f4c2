#!/usr/bin/env sh
# Store-and-forward determinism contract, enforced end to end through the
# CLI: `hbnet_cli sim` must produce byte-identical results for every
# --threads x --shards combination, including no --shards at all (auto).
# Metrics JSON, the per-link CSV, and the stdout summary are compared
# byte-for-byte across threads {1, 2, 8} x shards {1, 4, auto} against the
# single-threaded single-shard baseline, for both the native and Valiant
# routing modes.
#
# Usage: test_sim_determinism.sh <path-to-hbnet_cli>
set -eu

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run_sim <threads> <shards|auto> <tag> [flags]: "auto" omits --shards.
run_sim() {
  threads=$1
  shards=$2
  tag=$3
  shift 3
  shard_flag=""
  [ "$shards" = auto ] || shard_flag="--shards $shards"
  "$cli" sim 2 4 --cycles 200 --rate 0.08 \
    --threads "$threads" $shard_flag \
    --metrics-out "$work/m$tag.json" --links-csv "$work/l$tag.csv" "$@" \
    2>/dev/null | grep -v -e '^metrics:' -e '^links:' > "$work/t$tag.txt"
}

for mode in "" "--valiant"; do
  suffix=${mode:+v}
  run_sim 1 1 "base$suffix" $mode
  for threads in 1 2 8; do
    for shards in 1 4 auto; do
      tag="$threads-$shards$suffix"
      run_sim "$threads" "$shards" "$tag" $mode
      for kind in m l t; do
        ext=json; [ "$kind" = l ] && ext=csv; [ "$kind" = t ] && ext=txt
        if ! cmp -s "$work/${kind}base$suffix.$ext" "$work/$kind$tag.$ext"; then
          echo "FAIL: sim $ext differs at --threads $threads" \
               "--shards $shards ${mode:-native}" >&2
          exit 1
        fi
      done
    done
  done
done

# Artifact sanity: the run actually simulated something.
grep -q '"sim.delivered"' "$work/mbase.json" || {
  echo "FAIL: metrics JSON missing sim.delivered" >&2; exit 1; }
grep -q ',' "$work/lbase.csv" || {
  echo "FAIL: links CSV is empty" >&2; exit 1; }

echo "sim results are byte-identical across threads x shards"
