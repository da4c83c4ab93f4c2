#!/usr/bin/env sh
# Argv hardening regression test: every malformed numeric token must make
# hbnet_cli print a diagnostic and exit nonzero -- never die on an uncaught
# std::stoul/std::stod exception (which exits 1 via the top-level handler
# but with an unhelpful "error: stoul" message) and never silently accept a
# partial token like "4x".
#
# Usage: test_cli_args.sh <path-to-hbnet_cli>
set -eu

cli=$1
fails=0

# expect_reject <description> <args...>: the command must exit nonzero and
# print something to stderr.
expect_reject() {
  desc=$1
  shift
  if "$cli" "$@" >/dev/null 2>/tmp/hbnet_cli_args_err.$$; then
    echo "FAIL: $desc: expected nonzero exit: $cli $*" >&2
    fails=$((fails + 1))
  elif ! [ -s /tmp/hbnet_cli_args_err.$$ ]; then
    echo "FAIL: $desc: rejected but no diagnostic on stderr: $cli $*" >&2
    fails=$((fails + 1))
  fi
  rm -f /tmp/hbnet_cli_args_err.$$
}

# expect_reject_naming <flag> <description> <args...>: as expect_reject, and
# the first line of the diagnostic (the usage text follows it) names <flag>.
expect_reject_naming() {
  flag=$1
  shift
  expect_reject "$@"
  desc=$1
  shift
  "$cli" "$@" >/dev/null 2>/tmp/hbnet_cli_args_err.$$ || true
  if ! head -n 1 /tmp/hbnet_cli_args_err.$$ | grep -qF -- "$flag"; then
    echo "FAIL: $desc: diagnostic does not name $flag: $cli $*" >&2
    fails=$((fails + 1))
  fi
  rm -f /tmp/hbnet_cli_args_err.$$
}

# expect_reject_silent <description> <args...>: as expect_reject, and
# nothing reaches stdout -- the command failed before doing any work.
expect_reject_silent() {
  expect_reject "$@"
  desc=$1
  shift
  if [ -n "$("$cli" "$@" 2>/dev/null)" ]; then
    echo "FAIL: $desc: rejected only after printing to stdout: $cli $*" >&2
    fails=$((fails + 1))
  fi
}

expect_reject "non-numeric m" info x 3
expect_reject "partial-token n" info 2 3x
expect_reject "negative m" info -2 3
expect_reject "empty n" info 2 ""
expect_reject "bad label id" label 2 3 12y
expect_reject "bad route src" route 2 3 0q 5
expect_reject "bad route dst" route 2 3 0 5q
expect_reject "bad disjoint src" disjoint 2 3 zz 5
expect_reject "bad sim rate" sim 2 3 --rate 0.05x
expect_reject "bad sim cycles" sim 2 3 --cycles 10e
expect_reject "bad sim seed" sim 2 3 --seed 1.5
expect_reject "bad sim threads" sim 2 3 --threads two
expect_reject "missing flag value" sim 2 3 --rate
expect_reject "bad analyze threads" analyze 2 3 --threads 4x
expect_reject "HB n above 20" info 1 21

# analyze: flags of the exact sweep need --exact-connectivity, --audit
# belongs to the plain analysis, and a value flag needs its value.
for flag in --sparsify --implicit --no-orbits --progress; do
  expect_reject_naming "$flag" "analyze $flag without --exact-connectivity" \
    analyze 1 3 "$flag"
done
for flag in --max-blocks --stream-interval-ms; do
  expect_reject_naming "$flag" "analyze $flag without --exact-connectivity" \
    analyze 1 3 "$flag" 1
done
for flag in --checkpoint --metrics-out --stream-out --prom-out; do
  expect_reject_naming "$flag" "analyze $flag without --exact-connectivity" \
    analyze 1 3 "$flag" /nonexistent/hbnet_cli_args
done
expect_reject_naming --sparsify "analyze plain with sparsify and checkpoint" \
  analyze 1 3 --sparsify --checkpoint /nonexistent/f --max-blocks 1
expect_reject_naming --audit "analyze --audit with --exact-connectivity" \
  analyze 1 3 --exact-connectivity --audit
for flag in --threads --max-blocks --checkpoint --metrics-out --stream-out \
  --prom-out --stream-interval-ms; do
  expect_reject_naming "$flag needs a value" "analyze $flag without a value" \
    analyze 1 3 --exact-connectivity "$flag"
done
expect_reject "bad wormhole vcs" wormhole 2 3 --vcs x6
expect_reject "wormhole flits beyond 16 bits" wormhole 1 3 --flits 65536 --vcs 6 --cycles 50
expect_reject "wormhole flits wrapping to 4" wormhole 1 3 --flits 65540 --vcs 6 --cycles 50
expect_reject "wormhole vcs beyond 64" wormhole 2 3 --vcs 65
expect_reject "bad campaign rates" campaign 2 3 --rates 0.05x
expect_reject "bad campaign rate list" campaign 2 3 --rates 0.02,,0.05
expect_reject "bad campaign faults" campaign 2 3 --faults 0,2x
expect_reject "bad campaign trials" campaign 2 3 --trials -1
expect_reject "bad campaign model" campaign 2 3 --models bogus
expect_reject "bad campaign engine" campaign 2 3 --engine bogus
expect_reject "campaign rate out of range" campaign 2 3 --rates 1.5
expect_reject "wormhole campaign with events model" campaign 2 3 --engine wormhole --models events --faults 2
expect_reject "sf campaign with links model" campaign 2 3 --models links --faults 2
expect_reject "bad wormhole fault count" wormhole 2 3 --faults 3x
expect_reject "wormhole faults without adaptive policy" wormhole 2 3 --faults 2
expect_reject "wormhole link faults without adaptive policy" wormhole 2 3 --link-faults 2

# Run horizons: warmup + cycles + drain must stay below 2^32 on both
# engines, wrapped past 64 bits or not; 2^64 - 1 is an ordinary value, not
# "unset".
expect_reject "sim horizon at 2^32" sim 1 3 --shards 1 --cycles 4294967296
expect_reject "sim horizon at 2^32 without warmup or drain" sim 1 3 --warmup 0 --drain 0 --cycles 4294967296
expect_reject "sim warmup at 2^64 - 1" sim 1 3 --warmup 18446744073709551615
expect_reject "wormhole horizon wrapping 64 bits" wormhole 1 3 --cycles 18446744073709551615 --warmup 10 --drain 0
expect_reject "wormhole warmup at 2^64 - 1" wormhole 1 3 --warmup 18446744073709551615
expect_reject "wormhole horizon past 32 bits" wormhole 2 3 --vcs 6 --cycles 4294967296
expect_reject "sf campaign horizon at 2^32" campaign 1 3 --cycles 4294967296
expect_reject "wormhole campaign horizon wrapping 64 bits" campaign 1 3 --engine wormhole --cycles 18446744073709551615

# Injection rates must lie in (0, 1], as campaign --rates enforces.
expect_reject "sim rate above 1" sim 1 3 --rate 1.5
expect_reject "sim negative rate" sim 1 3 --rate -0.5
expect_reject "sim zero rate" sim 1 3 --rate 0
expect_reject "wormhole rate above 1" wormhole 1 3 --rate 1.5
expect_reject "wormhole negative rate" wormhole 1 3 --rate -0.5

# A flag of the other subcommand is rejected, not silently ignored.
expect_reject "sim with --faults" sim 1 3 --faults 3
expect_reject "sim with --link-faults" sim 1 3 --link-faults 2
expect_reject "sim with --policy" sim 1 3 --policy adaptive
expect_reject "sim with --vcs" sim 1 3 --vcs 6
expect_reject "sim with --flits" sim 1 3 --flits 4
expect_reject "wormhole with --shards" wormhole 1 3 --shards 2
expect_reject "wormhole with --valiant" wormhole 1 3 --valiant

# Every subcommand, table-driven. Each row is
#   <command>|<positionals after m n>|<value flags>
# and each subcommand must reject an unknown flag, one positional too many
# and each value flag left without its value, naming the token in the
# first line of the diagnostic; a well-formed run must succeed.
sim_flags="--rate --cycles --warmup --drain --seed --threads --pattern"
sim_flags="$sim_flags --trace-out --metrics-out --links-csv --stream-out"
sim_flags="$sim_flags --prom-out --stream-interval-ms"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
while IFS='|' read -r cmd pos value_flags; do
  [ -n "$cmd" ] || continue
  # shellcheck disable=SC2086  # $pos and $value_flags are word lists
  {
    expect_reject_naming --bogus "$cmd: unknown flag" $cmd 1 3 $pos --bogus
    expect_reject_naming extra "$cmd: one positional too many" \
      $cmd 1 3 $pos extra
    for flag in $value_flags; do
      expect_reject_naming "$flag" "$cmd: $flag needs a value" \
        $cmd 1 3 "$flag"
    done
    if ! "$cli" $cmd 1 3 $pos >/dev/null 2>&1; then
      echo "FAIL: well-formed '$cmd 1 3 $pos' should succeed" >&2
      fails=$((fails + 1))
    fi
  }
done <<TABLE
info||
route|0 5|
disjoint|0 5|
label|17|
dot|$work/g.dot|
edges|$work/g.txt|
cuts||
election||
analyze|--threads 1|--threads --max-blocks --checkpoint --metrics-out --stream-out --prom-out --stream-interval-ms
wormhole|--cycles 50|$sim_flags --vcs --flits --policy --faults --link-faults
sim|--cycles 50|$sim_flags --shards
campaign|--cycles 50|--models --rates --faults --trials --seed --engine --cycles --threads --metrics-out --csv --stream-out --prom-out --stream-interval-ms
TABLE
expect_reject_naming bogus "unknown subcommand" bogus 1 3
expect_reject_naming route "missing positional" route 1 3 0
expect_reject_naming --metrics-out "flag as a flag's value" \
  sim 1 3 --metrics-out --csv
expect_reject_naming --foo "dot with a flag for its file" dot 1 3 --foo
[ ! -e --foo ] || {
  echo "FAIL: 'dot 1 3 --foo' wrote a file named --foo" >&2
  rm -f -- --foo
  fails=$((fails + 1))
}

# --threads is capped at 1024 (every pool worker is an OS thread); larger
# values are refused before any thread starts.
expect_reject_naming --threads "sim threads above the cap" \
  sim 1 3 --threads 1025
expect_reject_naming --threads "wormhole threads above the cap" \
  wormhole 1 3 --threads 100000
expect_reject_naming --threads "analyze threads above the cap" \
  analyze 1 3 --threads 4294967295
expect_reject_naming --threads "campaign threads above the cap" \
  campaign 1 3 --threads 100000

# Output paths are opened before the run: a bad one fails before any
# result reaches stdout.
bad=/nonexistent/hbnet_cli_args
expect_reject_silent "campaign --csv bad path" \
  campaign 1 3 --cycles 50 --csv "$bad/c.csv"
expect_reject_silent "campaign --metrics-out bad path" \
  campaign 1 3 --cycles 50 --metrics-out "$bad/m.json"
expect_reject_silent "sim --metrics-out bad path" \
  sim 1 3 --cycles 50 --metrics-out "$bad/m.json"
expect_reject_silent "sim --links-csv bad path" \
  sim 1 3 --cycles 50 --links-csv "$bad/l.csv"
expect_reject_silent "wormhole --trace-out bad path" \
  wormhole 1 3 --cycles 50 --trace-out "$bad/t.json"
expect_reject_silent "analyze --metrics-out bad path" \
  analyze 1 3 --exact-connectivity --metrics-out "$bad/m.json"
expect_reject_silent "dot bad path" dot 1 3 "$bad/g.dot"
# The live-telemetry exports are checked with the artifacts, before the run.
expect_reject_silent "sim --stream-out bad path" \
  sim 1 3 --cycles 50 --stream-out "$bad/x.ndjson"
expect_reject_silent "sim --prom-out bad path" \
  sim 1 3 --cycles 50 --prom-out "$bad/x.prom"
expect_reject_silent "analyze --stream-out bad path" \
  analyze 1 3 --exact-connectivity --stream-out "$bad/x.ndjson"
expect_reject_silent "analyze --prom-out bad path" \
  analyze 1 3 --exact-connectivity --prom-out "$bad/x.prom"

# A write that fails after the run (a full device) names the file and
# exits 1.
if [ -w /dev/full ]; then
  for args in "wormhole 1 3 --cycles 50 --metrics-out /dev/full" \
              "sim 1 3 --cycles 50 --links-csv /dev/full" \
              "campaign 1 3 --cycles 50 --csv /dev/full"; do
    # shellcheck disable=SC2086  # $args is a word list on purpose
    if "$cli" $args >/dev/null 2>/tmp/hbnet_cli_args_err.$$; then
      echo "FAIL: write to /dev/full exits 0: $cli $args" >&2
      fails=$((fails + 1))
    elif ! grep -qF "cannot write /dev/full" /tmp/hbnet_cli_args_err.$$; then
      echo "FAIL: write to /dev/full not reported: $cli $args" >&2
      fails=$((fails + 1))
    fi
    rm -f /tmp/hbnet_cli_args_err.$$
  done
fi

# Well-formed commands must still pass.
if ! "$cli" info 2 3 >/dev/null; then
  echo "FAIL: well-formed 'info 2 3' should succeed" >&2
  fails=$((fails + 1))
fi

# The ends of the accepted ranges still run.
if ! "$cli" sim 1 3 --rate 1 --warmup 0 --cycles 20 --drain 200 >/dev/null; then
  echo "FAIL: 'sim --rate 1' should succeed" >&2
  fails=$((fails + 1))
fi
if ! "$cli" wormhole 1 3 --rate 1 --warmup 0 --cycles 20 >/dev/null; then
  echo "FAIL: 'wormhole --rate 1' should succeed" >&2
  fails=$((fails + 1))
fi

# The previously rejected fault-injecting wormhole campaign is now the
# supported path (adaptive policy + escape VC): it must succeed.
if ! "$cli" campaign 2 3 --engine wormhole --faults 2 --cycles 50 >/dev/null; then
  echo "FAIL: fault-injecting wormhole campaign should succeed" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails argv hardening case(s) failed" >&2
  exit 1
fi
echo "all argv hardening cases passed"
