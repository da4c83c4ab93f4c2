#!/usr/bin/env sh
# tools/bench_gate.py on synthetic baseline and fresh BENCH_*.json: no
# build, no benchmark run. Checks that a 20% real_time regression exits 1,
# that an improvement exits 0, that a missing or malformed file exits 0
# with a warning, and that a fresh run on another CPU count is a warning.
#
# Usage: test_bench_gate.sh <path-to-tools/bench_gate.py>
set -eu

gate=$1
tmp=${TMPDIR:-/tmp}/hbnet_test_bench_gate.$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
fails=0

# bench <file> <num_cpus> <real_time ms>: a one-benchmark file in the
# format tools/bench_json.sh writes.
bench() {
  mkdir -p "$(dirname "$1")"
  cat >"$1" <<EOF
{"context": {"num_cpus": $2, "hbnet_build_type": "release"},
 "benchmarks": [
  {"name": "BM_SimShardedHb28/1", "run_type": "iteration",
   "iterations": 10, "real_time": $3, "cpu_time": $3, "time_unit": "ms"},
  {"name": "BM_SimShardedHb28/1_mean", "run_type": "aggregate",
   "aggregate_name": "mean", "real_time": 999, "time_unit": "ms"}
 ]}
EOF
}

# expect <case> <status> <pattern>: bench_gate.py on $tmp/<case>/fresh
# against $tmp/<case>/base exits <status> and prints <pattern>.
expect() {
  status=0
  python3 "$gate" "$tmp/$1/fresh" "$tmp/$1/base" >"$tmp/$1.out" 2>&1 ||
    status=$?
  if [ "$status" -ne "$2" ]; then
    echo "FAIL: $1: exit $status, expected $2" >&2
    cat "$tmp/$1.out" >&2
    fails=$((fails + 1))
  elif ! grep -qF -- "$3" "$tmp/$1.out"; then
    echo "FAIL: $1: output lacks '$3'" >&2
    cat "$tmp/$1.out" >&2
    fails=$((fails + 1))
  fi
}

bench "$tmp/regression/base/BENCH_simulation.json" 4 50.0
bench "$tmp/regression/fresh/BENCH_simulation.json" 4 60.0
expect regression 1 "FAIL  BENCH_simulation.json: BM_SimShardedHb28/1: 50 ms -> 60 ms (+20.0%)"

bench "$tmp/improvement/base/BENCH_simulation.json" 4 50.0
bench "$tmp/improvement/fresh/BENCH_simulation.json" 4 40.0
expect improvement 0 "ok    BENCH_simulation.json: BM_SimShardedHb28/1: 50 ms -> 40 ms (-20.0%)"

bench "$tmp/missing/base/BENCH_simulation.json" 4 50.0
mkdir -p "$tmp/missing/fresh"
expect missing 0 "warn  BENCH_simulation.json: no fresh run to compare"

bench "$tmp/malformed/base/BENCH_simulation.json" 4 50.0
mkdir -p "$tmp/malformed/fresh"
printf '{"benchmarks": [' >"$tmp/malformed/fresh/BENCH_simulation.json"
expect malformed 0 "warn  BENCH_simulation.json: not valid benchmark JSON"

bench "$tmp/cpus/base/BENCH_simulation.json" 1 50.0
bench "$tmp/cpus/fresh/BENCH_simulation.json" 4 50.0
expect cpus 0 "warn  BENCH_simulation.json: baseline ran on 1 CPU(s), fresh run on 4"

if [ "$fails" -ne 0 ]; then
  echo "$fails bench_gate.py case(s) failed" >&2
  exit 1
fi
echo "all bench_gate.py cases passed"
