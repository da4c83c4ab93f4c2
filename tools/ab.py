#!/usr/bin/env python3
"""Paired A/B runs of hbbench between two revisions of this repository.

Builds each side into its own tree under --scratch: a git revision is
exported with `git archive`, and WORKTREE copies the working tree (tracked
and untracked, non-ignored files). No network is used. It then runs
`hbbench/run.py --trace 0` in alternating pairs, one pair per seed, with
the side that runs first flipping from pair to pair, and two more pairs on
a held-out seed, one base first and one head first, that the summary
reports apart. Each side gets a discarded warm-up call first, which also
builds it.

It runs every workload BENCHMARK.json lists, one after another, unless
--workload names one. For every workload and end-to-end metric it prints
each side's median and IQR over the pairs, the change in medians, in how
many pairs the head side was better (the direction comes from
BENCHMARK.json), and the median and IQR of the per-pair head/base ratio. A
host stall slows both runs of a pair, so the ratio is steadier than either
side's median. It exits 1 when a workload digest differs between the two
sides on the same seed, or when any run reports failed checks.

    python3 tools/ab.py --base HEAD --head WORKTREE --workload campaign \\
        --seeds 11-20 --holdout 99 --scratch /tmp/ab \\
        --record /tmp/ab/runs.txt
    python3 tools/ab.py --replay /tmp/ab/runs.txt

Each call runs for BENCHMARK.json's run_seconds, so both sides are
measured at the benchmark's own run length; the warm-up call runs for
WARMUP_SECONDS. --record keeps every run's stdout, and --replay analyses
such a file again without building or running anything. In it, a line
`### <side> <seed> <role> <workload>` starts each run's output; the role
is `pair`, `holdout` (the held-out pair that ran base first) or
`holdout-rev` (the one that ran head first).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SIDES = ("base", "head")
WARMUP_SECONDS = 1
# Held-out role -> the order its pair ran in.
HOLDOUT_ROLES = {"holdout": "base first", "holdout-rev": "head first"}


def parse_seeds(text):
    """'11-20' or '1,5,9' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def benchmark_spec():
    """BENCHMARK.json at the repository root, or {} when unreadable."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


def metric_directions():
    """End-to-end metric -> True when higher is better."""
    return {m["name"]: m["better"] == "higher"
            for m in benchmark_spec().get("end_to_end", [])}


def materialize(rev, dest):
    """Writes the sources of `rev` (a git revision or WORKTREE) to dest."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], capture_output=True, check=True)
        for name in out.stdout.decode().split("\0"):
            src = ROOT / name
            if name and src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"ab: git archive {rev} failed")


def run_bench(tree, build_dir, log, workload, seed, seconds):
    """One hbbench/run.py call; returns its stdout."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    cmd = [sys.executable, str(tree / "hbbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                         stderr=log, text=True)
    return out.stdout


def workload_names():
    """The workloads BENCHMARK.json lists, in its order."""
    return [w["name"] for w in benchmark_spec().get("workloads", [])]


def parse_run(text):
    """hbbench stdout -> {'digests': {...}, 'failed': n, 'metrics': {...}}."""
    digests, result = {}, None
    for line in text.splitlines():
        if line.startswith("digest "):
            _, name, value = line.split()[:3]
            digests[name] = value
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        return {"digests": digests, "failed": None, "metrics": {}}
    return {"digests": digests, "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def read_record(path):
    """A --record file -> list of (side, seed, role, workload, stdout)."""
    runs, head, lines = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("### "):
            if head:
                runs.append((*head, "\n".join(lines)))
            side, seed, role, workload = line.split()[1:5]
            head, lines = (side, int(seed), role, workload), []
        else:
            lines.append(line)
    if head:
        runs.append((*head, "\n".join(lines)))
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def analyse(runs, out=sys.stdout):
    """Prints the comparison of every workload; returns the exit status."""
    status = 0
    for workload in dict.fromkeys(w for _, _, _, w, _ in runs):
        status |= analyse_workload(
            workload, [r for r in runs if r[3] == workload], out)
    return status


def analyse_workload(workload, runs, out):
    """Prints one workload's comparison; returns the exit status."""
    by_key = {(side, seed, role): parse_run(text)
              for side, seed, role, _, text in runs}
    status = 0
    for (side, seed, role), r in sorted(by_key.items()):
        if r["failed"] != 0:
            print(f"FAIL {workload} {side} seed {seed}: failed = "
                  f"{r['failed']}", file=out)
            status = 1
    pairs = sorted({(seed, role) for _, seed, role in by_key
                    if all((s, seed, role) in by_key for s in SIDES)})
    for seed, role in pairs:
        base, head = (by_key[(s, seed, role)]["digests"] for s in SIDES)
        if base != head:
            print(f"FAIL {workload} seed {seed}: digest differs, base {base} "
                  f"head {head}", file=out)
            status = 1
    paired = [seed for seed, role in pairs if role == "pair"]
    holdout = [(seed, role) for seed, role in pairs if role in HOLDOUT_ROLES]
    if not paired:
        print(f"ab: {workload}: no complete pairs", file=out)
        return 1
    higher = metric_directions()
    names = sorted(by_key[("base", paired[0], "pair")]["metrics"])
    print(f"{workload}: {len(paired)} pairs (seeds {paired[0]}..{paired[-1]}); "
          "median [IQR] per side; wins = pairs where head is better; "
          "ratio = per-pair head/base", file=out)
    for name in names:
        vals = {s: [by_key[(s, seed, "pair")]["metrics"][name]
                    for seed in paired] for s in SIDES}
        up = higher.get(name, name.endswith("_per_s"))
        wins = sum((h > b) if up else (h < b)
                   for b, h in zip(vals["base"], vals["head"]))
        (b1, bm, b3), (h1, hm, h3) = (quartiles(vals[s]) for s in SIDES)
        change = (hm - bm) / bm * 100 if bm else 0.0
        beyond = "beyond" if abs(hm - bm) > b3 - b1 else "within"
        ratios = [h / b for b, h in zip(vals["base"], vals["head"]) if b]
        ratio = "ratio n/a"
        if ratios:
            r1, rm, r3 = quartiles(ratios)
            ratio = f"ratio {rm:.4g} [{r3 - r1:.3g}]"
        print(f"  {name}: base {bm:.6g} [{b3 - b1:.3g}]  head {hm:.6g} "
              f"[{h3 - h1:.3g}]  {change:+.1f}%  head wins {wins}/"
              f"{len(paired)}  change {beyond} base IQR  {ratio}", file=out)
        for seed, role in holdout:
            b, h = (by_key[(s, seed, role)]["metrics"][name] for s in SIDES)
            ch = (h - b) / b * 100 if b else 0.0
            r = f"ratio {h / b:.4g}" if b else "ratio n/a"
            print(f"    held-out seed {seed}, {HOLDOUT_ROLES[role]}: base "
                  f"{b:.6g} head {h:.6g} {ch:+.1f}%  {r}", file=out)
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision or WORKTREE")
    ap.add_argument("--head", help="git revision or WORKTREE")
    ap.add_argument("--workload",
                    help="one workload (default: every BENCHMARK.json one)")
    ap.add_argument("--seeds", default="11-20")
    ap.add_argument("--holdout", type=int)
    ap.add_argument("--scratch", type=Path)
    ap.add_argument("--record", type=Path, help="write every run's stdout")
    ap.add_argument("--replay", type=Path, help="analyse a --record file")
    args = ap.parse_args()
    if args.replay:
        return analyse(read_record(args.replay))
    if not (args.base and args.head and args.scratch):
        ap.error("--base, --head and --scratch are required")
    seconds = benchmark_spec().get("run_seconds")
    if seconds is None:
        raise SystemExit("ab: BENCHMARK.json has no run_seconds")
    workloads = [args.workload] if args.workload else workload_names()
    if not workloads:
        raise SystemExit("ab: BENCHMARK.json lists no workloads")

    scratch = args.scratch.resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    schedule = [(seed, "pair", i % 2 == 1)
                for i, seed in enumerate(parse_seeds(args.seeds))]
    if args.holdout is not None:
        schedule += [(args.holdout, "holdout", False),
                     (args.holdout, "holdout-rev", True)]
    trees, runs = {}, []
    with open(scratch / "ab-build.log", "a") as log:
        for side, rev in zip(SIDES, (args.base, args.head)):
            tree = scratch / f"{side}-src"
            materialize(rev, tree)
            trees[side] = (tree, scratch / f"{side}-build")
            print(f"ab: {side} = {rev}", file=sys.stderr)
        for workload in workloads:
            for side in SIDES:
                print(f"ab: {workload} {side} warming up", file=sys.stderr)
                run_bench(*trees[side], log, workload, 0, WARMUP_SECONDS)
            for seed, role, head_first in schedule:
                for side in (SIDES[::-1] if head_first else SIDES):
                    text = run_bench(*trees[side], log, workload, seed,
                                     seconds)
                    runs.append((side, seed, role, workload, text))
                    print(f"ab: {workload} {side} seed {seed} done",
                          file=sys.stderr)
    if args.record:
        with open(args.record, "w") as f:
            for side, seed, role, workload, text in runs:
                f.write(f"### {side} {seed} {role} {workload}\n"
                        f"{text.rstrip()}\n")
    return analyse(runs)


if __name__ == "__main__":
    sys.exit(main())
