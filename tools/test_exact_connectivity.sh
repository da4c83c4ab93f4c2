#!/usr/bin/env sh
# Exact-kappa proof through the CLI, with the orbit schedule's size pinned:
# `hbnet_cli analyze <m> <n> --exact-connectivity --sparsify --implicit`
# must exit 0, print "Corollary 1 verified" and report exactly <solves>
# solves and 0 pruned. A schedule that drops an automorphism (more solves)
# or folds targets that are not in one orbit (fewer) fails here, not only
# in a timing.
#
# Usage: test_exact_connectivity.sh <path-to-hbnet_cli> <m> <n> <solves>
set -u

cli=$1
m=$2
n=$3
solves=$4

out=$("$cli" analyze "$m" "$n" --exact-connectivity --sparsify --implicit)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne 0 ]; then
  echo "FAIL: hbnet_cli exited $rc" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF "source, $solves solves, 0 pruned,"; then
  echo "FAIL: expected $solves solves, 0 pruned" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF "Corollary 1 verified"; then
  echo "FAIL: Corollary 1 not verified" >&2
  exit 1
fi
echo "ok: HB($m,$n) proved with $solves solves"
