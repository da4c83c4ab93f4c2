#!/usr/bin/env python3
"""Benchmark regression gate for the committed BENCH_*.json baselines.

Compares a fresh ``tools/bench_json.sh`` run against the baselines committed
at the repository root and fails (exit 1) when any benchmark present in both
regresses by more than the threshold (default 10% on ``real_time``).

Usage:
    tools/bench_json.sh build fresh-bench/
    python3 tools/bench_gate.py fresh-bench/ [baseline-dir] [--threshold PCT]
    python3 tools/bench_gate.py fresh-bench/ --write-baseline

Rules:
  * Only ``run_type == "iteration"`` entries are compared (aggregates such
    as mean/median/stddev are derived values and would double-count).
  * ``real_time`` values are normalized through ``time_unit`` before
    comparison, so a baseline in ms gates a fresh run reported in ns.
  * A baseline file missing from the fresh run (or vice versa), and a
    benchmark name present on only one side, are WARNINGS, not failures --
    new benchmarks land without a baseline until the next re-baseline.
  * Improvements are reported but never gate.
  * A baseline from a non-release build, or from a host with another
    ``context.num_cpus`` than the fresh run, is a WARNING: the timings
    then compare builds or hosts, not code.
  * User counters (``state.counters`` -- every numeric key that is not one
    of the standard benchmark fields, e.g. the wormhole fault columns
    delivered/misroutes/unroutable) are tracked: a counter that drifts,
    appears, or disappears between baseline and fresh run is a WARNING.
    Counters describe the workload, not the machine, so they never gate --
    but silent drift would make the timing comparison meaningless.

An unreadable, empty, or malformed JSON file on either side is a warning
(the file is skipped), never a stack trace: benchmark history is allowed to
be missing -- on a fresh clone, after a filter change, or before the first
re-baseline -- and the gate must degrade to "nothing to compare" instead of
crashing CI.

Re-baselining (see docs/performance.md): when a deliberate change moves a
benchmark past the threshold, regenerate the artifacts on the reference
machine with ``tools/bench_json.sh build fresh-bench`` and promote them with
``--write-baseline`` (copies fresh-bench/BENCH_*.json over the committed
baselines), then commit the updated BENCH_*.json alongside the change that
explains them.
"""

import argparse
import json
import pathlib
import shutil
import sys

# Factors to nanoseconds; benchmark JSON time_unit values.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Standard per-benchmark fields of Google Benchmark's JSON schema. Any
# *other* numeric key is a user counter (state.counters) and is tracked as
# workload metadata alongside the timing.
_STANDARD_KEYS = {
    "name", "run_name", "run_type", "iterations", "real_time", "cpu_time",
    "time_unit", "repetitions", "threads", "family_index",
    "per_family_instance_index", "repetition_index", "aggregate_name",
    "aggregate_unit",
}


def load_iterations(path, warnings):
    """name -> (real_time ns, counters) for every iteration entry of a file.

    ``counters`` maps each non-standard numeric key (a state.counters
    entry) to its float value. An unreadable or malformed file appends a
    warning and yields an empty mapping instead of raising: missing/corrupt
    benchmark history must degrade the gate, not crash it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        warnings.append(f"{path.name}: unreadable ({err.strerror or err}); "
                        "skipped")
        return {}
    except json.JSONDecodeError as err:
        warnings.append(f"{path.name}: not valid benchmark JSON ({err.msg} "
                        f"at line {err.lineno}); skipped")
        return {}
    if not isinstance(doc, dict) or not isinstance(doc.get("benchmarks"), list):
        warnings.append(f"{path.name}: no 'benchmarks' array "
                        "(empty or truncated run?); skipped")
        return {}
    out = {}
    for bench in doc["benchmarks"]:
        if not isinstance(bench, dict):
            continue
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("name")
        real = bench.get("real_time")
        unit = bench.get("time_unit", "ns")
        if name is None or real is None:
            continue
        counters = {
            key: float(value)
            for key, value in bench.items()
            if key not in _STANDARD_KEYS
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
        out[name] = (float(real) * _UNIT_NS.get(unit, 1.0), counters)
    return out


def load_context(path):
    """The file's ``context`` object, or {} when the file is unreadable or
    has none (load_iterations reports the file itself)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(doc, dict) or not isinstance(doc.get("context"), dict):
        return {}
    return doc["context"]


def check_build_type(context, name, side, warnings):
    """Warn when a benchmark file was produced by a non-release build.

    ``context.hbnet_build_type`` (stamped by tools/bench_json.sh from the
    build tree's CMakeCache) is authoritative; Google Benchmark's own
    ``context.library_build_type`` -- how the *benchmark support library*
    was compiled, often a debug system package -- is the fallback for
    artifacts predating the stamp. A "debug" baseline makes every
    comparison meaningless (debug timings are several times slower and
    gate nothing real), so the mismatch is surfaced loudly -- but stays a
    warning: the gate still runs on what it has.
    """
    build_type = context.get("hbnet_build_type",
                             context.get("library_build_type"))
    if build_type is not None and build_type != "release":
        warnings.append(
            f"{name}: {side} was produced by a '{build_type}' build, "
            "not 'release' -- regenerate with tools/bench_json.sh from a "
            "-DCMAKE_BUILD_TYPE=Release tree")


def check_num_cpus(base_context, fresh_context, name, warnings):
    """Warn when the baseline and the fresh run saw different CPU counts.

    Multi-threaded benchmarks scale with the cores, so such timings compare
    hosts, not code. A warning, like the build type: the gate still runs.
    """
    base = base_context.get("num_cpus")
    fresh = fresh_context.get("num_cpus")
    if base is not None and fresh is not None and base != fresh:
        warnings.append(
            f"{name}: baseline ran on {base} CPU(s), fresh run on {fresh} "
            "-- timings compare hosts; re-baseline on the gating host")


def fmt_ns(ns):
    for unit, factor in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= factor:
            return f"{ns / factor:.3g} {unit}"
    return f"{ns:.3g} ns"


def main(argv):
    parser = argparse.ArgumentParser(
        description="Gate fresh bench_json.sh output against committed "
        "BENCH_*.json baselines."
    )
    parser.add_argument("fresh_dir", type=pathlib.Path,
                        help="directory holding the fresh BENCH_*.json run")
    parser.add_argument("baseline_dir", type=pathlib.Path, nargs="?",
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="directory holding the committed baselines "
                        "(default: repository root)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="max tolerated real_time regression in percent "
                        "(default: 10)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="promote the fresh BENCH_*.json to the baseline "
                        "directory (regenerating the committed baselines) "
                        "instead of gating against them")
    args = parser.parse_args(argv)

    if not args.fresh_dir.is_dir():
        print(f"bench-gate: fresh directory {args.fresh_dir} does not exist "
              "-- run tools/bench_json.sh first; nothing to compare",
              file=sys.stderr)
        return 2

    fresh_paths = sorted(args.fresh_dir.glob("BENCH_*.json"))

    if args.write_baseline:
        if not fresh_paths:
            print(f"bench-gate: no BENCH_*.json in {args.fresh_dir} to "
                  "promote; run tools/bench_json.sh first", file=sys.stderr)
            return 2
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for path in fresh_paths:
            shutil.copyfile(path, args.baseline_dir / path.name)
            print(f"bench-gate: wrote {args.baseline_dir / path.name}")
        print(f"bench-gate: promoted {len(fresh_paths)} baseline file(s); "
              "review and commit them with the change that explains them")
        return 0

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        # Not an error: a tree with no committed history yet (or a pruned
        # baseline set) simply has nothing to gate against.
        print(f"bench-gate: warning: no BENCH_*.json baselines in "
              f"{args.baseline_dir}; nothing to gate against (promote a "
              "reference run with --write-baseline)", file=sys.stderr)
        return 0

    failures = []
    warnings = []
    compared = 0

    fresh_files = {p.name for p in fresh_paths}
    for extra in sorted(fresh_files - {p.name for p in baselines}):
        warnings.append(f"{extra}: fresh file has no committed baseline")

    for base_path in baselines:
        fresh_path = args.fresh_dir / base_path.name
        if not fresh_path.is_file():
            warnings.append(f"{base_path.name}: no fresh run to compare")
            continue
        base_context = load_context(base_path)
        fresh_context = load_context(fresh_path)
        check_build_type(base_context, base_path.name, "baseline", warnings)
        check_build_type(fresh_context, base_path.name, "fresh run", warnings)
        check_num_cpus(base_context, fresh_context, base_path.name, warnings)
        base = load_iterations(base_path, warnings)
        fresh = load_iterations(fresh_path, warnings)
        for name in sorted(set(base) - set(fresh)):
            warnings.append(f"{base_path.name}: '{name}' missing from fresh "
                            "run (filter change?)")
        for name in sorted(set(fresh) - set(base)):
            warnings.append(f"{base_path.name}: '{name}' is new -- no "
                            "baseline yet")
        for name in sorted(set(base) & set(fresh)):
            compared += 1
            base_ns, base_counters = base[name]
            fresh_ns, fresh_counters = fresh[name]
            delta = 100.0 * (fresh_ns / base_ns - 1.0)
            line = (f"{base_path.name}: {name}: "
                    f"{fmt_ns(base_ns)} -> {fmt_ns(fresh_ns)} "
                    f"({delta:+.1f}%)")
            if delta > args.threshold:
                failures.append(line)
            else:
                print(f"ok    {line}")
            # Counter drift: workload metadata, warn-only.
            for key in sorted(set(base_counters) - set(fresh_counters)):
                warnings.append(f"{base_path.name}: {name}: counter '{key}' "
                                "missing from fresh run")
            for key in sorted(set(fresh_counters) - set(base_counters)):
                warnings.append(f"{base_path.name}: {name}: counter '{key}' "
                                "is new -- no baseline yet")
            for key in sorted(set(base_counters) & set(fresh_counters)):
                if base_counters[key] != fresh_counters[key]:
                    warnings.append(
                        f"{base_path.name}: {name}: counter '{key}' drifted "
                        f"{base_counters[key]:g} -> {fresh_counters[key]:g}")

    for w in warnings:
        print(f"warn  {w}")
    for f in failures:
        print(f"FAIL  {f}")

    print(f"bench-gate: {compared} compared, {len(failures)} regressions "
          f"(> {args.threshold:g}%), {len(warnings)} warnings")
    if failures:
        print("bench-gate: deliberate? re-baseline with "
              "'tools/bench_json.sh build .' and commit the new BENCH_*.json "
              "(docs/performance.md).")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
