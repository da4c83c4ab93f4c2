#!/usr/bin/env sh
# Wormhole telemetry-plane contract, enforced end to end through the CLI: a
# fault-adaptive `hbnet_cli wormhole` run with node and link faults must
# write a metrics JSON and a links CSV that are byte-identical across
# repeat runs AND to the committed golden files. The golden files pin the
# full simulated-network telemetry (counters, latency histogram, time
# series, per-link and per-VC occupancy), so any change to routing, VC
# allocation, fault re-planning or channel numbering shows up here.
#
# Regenerate the goldens only for an intended behavior change:
#   hbnet_cli wormhole 2 3 --policy adaptive --vcs 7 --faults 5 \
#     --link-faults 2 --cycles 200 \
#     --metrics-out tests/golden/wormhole_faults_metrics.json \
#     --links-csv tests/golden/wormhole_faults_links.csv
#
# Usage: test_wormhole_determinism.sh <path-to-hbnet_cli> <golden-dir>
set -eu

cli=$1
golden=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run_wormhole() {
  tag=$1
  "$cli" wormhole 2 3 --policy adaptive --vcs 7 --faults 5 --link-faults 2 \
    --cycles 200 --metrics-out "$work/m$tag.json" \
    --links-csv "$work/l$tag.csv" >/dev/null
}

run_wormhole 1
run_wormhole 2

# same <what> <file> <file>: fail unless the two files are byte-identical.
same() {
  if ! cmp -s "$2" "$3"; then
    echo "FAIL: $1 differs: $2 vs $3" >&2
    exit 1
  fi
}

same "repeat-run metrics JSON" "$work/m1.json" "$work/m2.json"
same "repeat-run links CSV" "$work/l1.csv" "$work/l2.csv"
same "metrics JSON vs golden" "$work/m1.json" \
  "$golden/wormhole_faults_metrics.json"
same "links CSV vs golden" "$work/l1.csv" "$golden/wormhole_faults_links.csv"

echo "wormhole telemetry is byte-identical across runs and to the goldens"
