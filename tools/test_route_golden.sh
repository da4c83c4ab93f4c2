#!/usr/bin/env sh
# Routing contract, enforced end to end through the CLI: `hbnet_cli route`
# and `hbnet_cli disjoint` on HB(2,5) must print exactly the committed
# golden. The pairs cover Case 1 (same butterfly part), Case 2 (same cube
# part), Case 3 (both differ), butterfly walks that wrap the level cycle
# and one that must backtrack, so any change to the optimal covering walk,
# the Section-3 route or the Theorem-5 family shows up here.
#
# Regenerate the golden only for an intended behavior change:
#   tools/test_route_golden.sh <path-to-hbnet_cli> --print \
#     > tests/golden/route_hb25.txt
#
# Usage: test_route_golden.sh <path-to-hbnet_cli> <golden-file>|--print
set -eu

cli=$1
golden=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Dense ids on HB(2,5): ((cube << 5) | word) * 5 + level.
for pair in 0:480 0:113 187:294 4:86 2:157 635:4 1:41; do
  src=${pair%%:*}
  dst=${pair##*:}
  for cmd in route disjoint; do
    echo "== $cmd 2 5 $src $dst"
    "$cli" "$cmd" 2 5 "$src" "$dst"
  done
done >"$work/out.txt"

if [ "$golden" = "--print" ]; then
  cat "$work/out.txt"
  exit 0
fi

if ! cmp -s "$work/out.txt" "$golden"; then
  echo "FAIL: route/disjoint output differs from $golden" >&2
  diff "$golden" "$work/out.txt" >&2 || true
  exit 1
fi

echo "route and disjoint output is byte-identical to the golden"
