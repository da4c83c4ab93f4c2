#!/usr/bin/env sh
# Wormhole telemetry-plane contract, enforced end to end through the CLI:
# two `hbnet_cli wormhole` runs must each write a metrics JSON and a links
# CSV that are byte-identical across repeat runs AND to the committed golden
# files, and a Chrome trace that is byte-identical across repeat runs. The
# golden files pin the full simulated-network telemetry (counters, latency
# histogram, time series, per-link and per-VC occupancy), so any change to
# routing, VC allocation, arbitration, fault re-planning or channel
# numbering shows up here.
#  * faults: fault-adaptive on HB(2,3) with node and link faults.
#  * segment: fault-free segment dateline on HB(2,4) with two VCs per class
#    and 6-flit worms that span several hops, under saturating load.
#
# Regenerate the goldens only for an intended behavior change:
#   hbnet_cli wormhole 2 3 --policy adaptive --vcs 7 --faults 5 \
#     --link-faults 2 --cycles 200 \
#     --metrics-out tests/golden/wormhole_faults_metrics.json \
#     --links-csv tests/golden/wormhole_faults_links.csv
#   hbnet_cli wormhole 2 4 --policy segment --vcs 12 --flits 6 --rate 0.2 \
#     --metrics-out tests/golden/wormhole_segment_metrics.json \
#     --links-csv tests/golden/wormhole_segment_links.csv
#
# Usage: test_wormhole_determinism.sh <path-to-hbnet_cli> <golden-dir>
set -eu

cli=$1
golden=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run_wormhole <tag> <hbnet_cli wormhole args...>
run_wormhole() {
  tag=$1
  shift
  "$cli" wormhole "$@" --metrics-out "$work/m$tag.json" \
    --links-csv "$work/l$tag.csv" --trace-out "$work/t$tag.json" >/dev/null
}

for rep in 1 2; do
  run_wormhole "faults$rep" 2 3 --policy adaptive --vcs 7 --faults 5 \
    --link-faults 2 --cycles 200
  run_wormhole "segment$rep" 2 4 --policy segment --vcs 12 --flits 6 \
    --rate 0.2
done

# same <what> <file> <file>: fail unless the two files are byte-identical.
same() {
  if ! cmp -s "$2" "$3"; then
    echo "FAIL: $1 differs: $2 vs $3" >&2
    exit 1
  fi
}

for run in faults segment; do
  same "$run repeat-run metrics JSON" "$work/m${run}1.json" \
    "$work/m${run}2.json"
  same "$run repeat-run links CSV" "$work/l${run}1.csv" "$work/l${run}2.csv"
  same "$run repeat-run trace" "$work/t${run}1.json" "$work/t${run}2.json"
  same "$run metrics JSON vs golden" "$work/m${run}1.json" \
    "$golden/wormhole_${run}_metrics.json"
  same "$run links CSV vs golden" "$work/l${run}1.csv" \
    "$golden/wormhole_${run}_links.csv"
done

echo "wormhole telemetry is byte-identical across runs and to the goldens;" \
  "traces across runs"
