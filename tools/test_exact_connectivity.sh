#!/usr/bin/env sh
# Exact-kappa proof through the CLI, with the orbit schedule's size pinned:
# `hbnet_cli analyze <m> <n> --exact-connectivity --sparsify --implicit`
# must exit 0, print "Corollary 1 verified" and report exactly <solves>
# solves and 0 pruned. A schedule that drops an automorphism (more solves)
# or folds targets that are not in one orbit (fewer) fails here, not only
# in a timing.
#
# The proof runs at --threads 1 and at --threads 4, and the two stdouts must
# be identical once the thread count in the header and the wall time are
# masked. The last progress line must name the stage's last block
# ("stage 0 block B/B", B = the 256-target blocks the solves fill), and no
# progress line may report block 0.
#
# Usage: test_exact_connectivity.sh <path-to-hbnet_cli> <m> <n> <solves>
set -u

cli=$1
m=$2
n=$3
solves=$4

# Masks the two fields that may differ between thread counts.
mask() {
  sed -e 's/([0-9]* threads,/(N threads,/' -e 's/ pruned, [^ ]* s)/ pruned, T s)/'
}

for threads in 1 4; do
  out=$("$cli" analyze "$m" "$n" --exact-connectivity --sparsify --implicit \
    --threads "$threads")
  rc=$?
  printf '%s\n' "$out"
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: hbnet_cli exited $rc at --threads $threads" >&2
    exit 1
  fi
  if [ "$threads" -eq 1 ]; then
    first=$(printf '%s\n' "$out" | mask)
  elif [ "$(printf '%s\n' "$out" | mask)" != "$first" ]; then
    echo "FAIL: stdout at --threads $threads differs from --threads 1" >&2
    exit 1
  fi
done

if ! printf '%s\n' "$out" | grep -qF "source, $solves solves, 0 pruned,"; then
  echo "FAIL: expected $solves solves, 0 pruned" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF "Corollary 1 verified"; then
  echo "FAIL: Corollary 1 not verified" >&2
  exit 1
fi
blocks=$(( (solves + 255) / 256 ))
last=$(printf '%s\n' "$out" | grep '^  stage ' | tail -n 1)
case $last in
  "  stage 0 block $blocks/$blocks "*) ;;
  *)
    echo "FAIL: last progress line is '$last'," \
      "expected stage 0 block $blocks/$blocks" >&2
    exit 1
    ;;
esac
if printf '%s\n' "$out" | grep -q '^  stage [0-9]* block 0/'; then
  echo "FAIL: a progress line reports block 0" >&2
  exit 1
fi
echo "ok: HB($m,$n) proved with $solves solves at 1 and 4 threads"
