#!/usr/bin/env sh
# Store-and-forward determinism contract, enforced end to end through the
# CLI: `hbnet_cli sim` must produce byte-identical results for every
# --threads x --shards combination, including no --shards at all (auto).
# Metrics JSON, the per-link CSV, the Chrome trace (packet spans and the
# in-flight counter) and the stdout summary are compared byte-for-byte
# across threads {1, 2, 8} x shards {1, 4, auto} against the
# single-threaded single-shard baseline, for both the native and Valiant
# routing modes, on two loads: HB(2,4) at rate 0.08, where queues stay
# short, and HB(2,5) at rate 0.25, where they grow long and most packets
# a sweep visits wait behind others at their node.
#
# Usage: test_sim_determinism.sh <path-to-hbnet_cli>
set -eu

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run_sim <threads> <shards|auto> <tag> [flags]: "auto" omits --shards.
# Runs the instance and rate in $load.
run_sim() {
  threads=$1
  shards=$2
  tag=$3
  shift 3
  shard_flag=""
  [ "$shards" = auto ] || shard_flag="--shards $shards"
  # The exit status is checked before filtering: a pipeline would report
  # grep's.
  if ! "$cli" sim $load --cycles 200 \
    --threads "$threads" $shard_flag \
    --metrics-out "$work/m$tag.json" --links-csv "$work/l$tag.csv" \
    --trace-out "$work/r$tag.json" "$@" \
    > "$work/raw$tag.txt" 2>/dev/null; then
    echo "FAIL: sim $load --threads $threads $shard_flag $* exited" \
         "nonzero" >&2
    exit 1
  fi
  grep -v -e '^metrics:' -e '^links:' -e '^trace:' "$work/raw$tag.txt" \
    > "$work/t$tag.txt"
}

for load in "2 4 --rate 0.08" "2 5 --rate 0.25"; do
  for mode in "" "--valiant"; do
    suffix=${mode:+v}
    run_sim 1 1 "base$suffix" $mode
    for threads in 1 2 8; do
      for shards in 1 4 auto; do
        tag="$threads-$shards$suffix"
        run_sim "$threads" "$shards" "$tag" $mode
        for kind in m l r t; do
          ext=json; [ "$kind" = l ] && ext=csv; [ "$kind" = t ] && ext=txt
          if ! cmp -s "$work/${kind}base$suffix.$ext" \
                      "$work/$kind$tag.$ext"; then
            echo "FAIL: sim $load $ext differs at --threads $threads" \
                 "--shards $shards ${mode:-native}" >&2
            exit 1
          fi
        done
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
