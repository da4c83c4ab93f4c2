#!/usr/bin/env sh
# Live-telemetry observer contract, enforced end to end through the CLI:
# attaching --stream-out / --progress must not change a single result byte.
# Campaign metrics JSON, per-cell CSV, and the stdout table, plus the
# exact-connectivity checkpoint, are compared byte-for-byte between plain
# and streaming runs at 1, 2, and 8 threads; the NDJSON stream and the
# Prometheus exposition themselves only get sanity checks (they carry
# wall-clock timestamps, so *their* bytes are allowed to differ).
#
# Usage: test_stream_determinism.sh <path-to-hbnet_cli>
set -eu

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run_campaign() {
  threads=$1
  tag=$2
  shift 2
  # The "metrics:"/"csv:" confirmation lines echo per-tag paths; drop them
  # before comparing the table. --progress writes to stderr only. The exit
  # status is checked before filtering: a pipeline would report grep's.
  if ! "$cli" campaign 1 3 \
    --models random,events --rates 0.05 --faults 0,2 \
    --trials 2 --seed 11 --cycles 100 --threads "$threads" \
    --metrics-out "$work/m$tag.json" --csv "$work/c$tag.csv" "$@" \
    > "$work/raw$tag.txt" 2>/dev/null; then
    echo "FAIL: campaign --threads $threads $* exited nonzero" >&2
    exit 1
  fi
  grep -v -e '^metrics:' -e '^csv:' "$work/raw$tag.txt" > "$work/t$tag.txt"
}

run_campaign 1 plain1
for threads in 1 2 8; do
  run_campaign "$threads" "s$threads" \
    --stream-out "$work/s$threads.ndjson" --progress
  for kind in m c t; do
    ext=json; [ "$kind" = c ] && ext=csv; [ "$kind" = t ] && ext=txt
    if ! cmp -s "$work/${kind}plain1.$ext" "$work/${kind}s$threads.$ext"; then
      echo "FAIL: campaign $ext differs with --stream-out/--progress" \
           "at --threads $threads" >&2
      exit 1
    fi
  done
done

# Stream artifact sanity: every line is a JSON object, the exposition uses
# the hbnet_ namespace, and the atomic-rename tmp file is gone.
head -c 1 "$work/s2.ndjson" | grep -q '{' || {
  echo "FAIL: NDJSON stream does not start with '{'" >&2; exit 1; }
grep -q '"job":"campaign"' "$work/s2.ndjson" || {
  echo "FAIL: NDJSON stream missing job field" >&2; exit 1; }
grep -q '^hbnet_campaign_trials_total' "$work/s2.ndjson.prom" || {
  echo "FAIL: Prometheus exposition missing hbnet_ metrics" >&2; exit 1; }
[ ! -e "$work/s2.ndjson.prom.tmp" ] || {
  echo "FAIL: leftover .tmp from the atomic prom rename" >&2; exit 1; }

# Exact connectivity: the checkpoint bytes are part of the determinism
# contract and must not notice the observer either.
"$cli" analyze 2 3 --exact-connectivity \
    --checkpoint "$work/plain.ckpt" > /dev/null
"$cli" analyze 2 3 --exact-connectivity \
    --checkpoint "$work/stream.ckpt" \
    --stream-out "$work/conn.ndjson" --progress > /dev/null 2>&1
if ! cmp -s "$work/plain.ckpt" "$work/stream.ckpt"; then
  echo "FAIL: connectivity checkpoint differs under --stream-out" >&2
  exit 1
fi
grep -q '"connectivity.bound":6' "$work/conn.ndjson" || {
  echo "FAIL: connectivity stream never reported the bound" >&2; exit 1; }

echo "streaming surfaces are byte-transparent across thread counts"
