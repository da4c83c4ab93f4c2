#!/usr/bin/env sh
# Routing contract, enforced end to end through the CLI: `hbnet_cli route`
# and `hbnet_cli disjoint` must print exactly the committed goldens.
#
#  * route_hb25.txt, HB(2,5): Case 1 (same butterfly part), Case 2 (same
#    cube part), Case 3 (both differ), butterfly walks that wrap the level
#    cycle and one that must backtrack.
#  * route_hb34.txt, HB(3,4): cube parts that differ in 2 and in 3 bits,
#    with equal and with different butterfly parts, so the cube phase's
#    LSB-first order is pinned beyond m = 2.
#  * cli_hb13.txt, HB(1,3): the stdout of every other read-only subcommand
#    (info, label, dot, edges, cuts, election, analyze --audit), so a
#    change to the CLI's argv handling cannot silently change its output.
#
# Any change to the optimal covering walk, the Section-3 route or the
# Theorem-5 family shows up here.
#
# Regenerate the goldens only for an intended behavior change:
#   tools/test_route_golden.sh <path-to-hbnet_cli> --print tests/golden
#
# Usage: test_route_golden.sh <path-to-hbnet_cli> [--print] <golden-dir>
set -eu

cli=$1
shift
print=0
if [ "$1" = "--print" ]; then
  print=1
  shift
fi
golden_dir=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run_pairs m n src:dst...  prints `route` and `disjoint` for each pair.
run_pairs() {
  m=$1
  n=$2
  shift 2
  for pair in "$@"; do
    src=${pair%%:*}
    dst=${pair##*:}
    for cmd in route disjoint; do
      echo "== $cmd $m $n $src $dst"
      "$cli" "$cmd" "$m" "$n" "$src" "$dst"
    done
  done
}

# Dense ids: ((cube << n) | word) * n + level.
run_pairs 2 5 0:480 0:113 187:294 4:86 2:157 635:4 1:41 >"$work/route_hb25.txt"
run_pairs 3 4 0:192 358:25 148:298 0:511 397:112 199:291 \
  >"$work/route_hb34.txt"
for args in "info 1 3" "label 1 3 17" "dot 1 3" "edges 1 3" "cuts 1 3" \
  "election 1 3" "analyze 1 3 --threads 1 --audit"; do
  echo "== $args"
  # shellcheck disable=SC2086  # $args is a word list on purpose
  "$cli" $args
done >"$work/cli_hb13.txt"

status=0
for name in route_hb25.txt route_hb34.txt cli_hb13.txt; do
  if [ "$print" = 1 ]; then
    cp "$work/$name" "$golden_dir/$name"
  elif ! cmp -s "$work/$name" "$golden_dir/$name"; then
    echo "FAIL: CLI output differs from $golden_dir/$name" >&2
    diff "$golden_dir/$name" "$work/$name" >&2 || true
    status=1
  fi
done
[ "$print" = 1 ] && exit 0
[ "$status" = 0 ] || exit 1

echo "route, disjoint and HB(1,3) subcommand output is byte-identical to the goldens"
