#!/usr/bin/env python3
"""Alternating parent/change tfbench pairs, summarised in one JSON file.

    python3 scripts/bench_pairs.py PARENT_CHECKOUT --workload W [--workload W ...] \\
        --pairs P --out BENCH_<n>.json [--seconds S] [--seed FIRST]

Pair j of each workload runs ``tfbench/run.py --workload W --seed FIRST+j
--seconds S`` once for each side.  ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``, the run length of the benchmark itself; claim a performance
gain at that default, since shorter runs cannot hold a pair's order.  The
parent runs first in even pairs and second in odd ones, so neither side
always gets the warmer machine.  Right before each run, that side's ``src/``
and ``tfbench/`` (PARENT_CHECKOUT's or this checkout's) are copied, without
``__pycache__``, into the directory ``parent`` or ``change`` of a temporary
directory made afresh for the pair, and the run uses the copy.  Both sides
thus import from directories made the same way and equally recently: where
a checkout lives, what it has compiled before and which copy was made first
move ``setup_s`` by several percent.  Every run's end-to-end metrics are read
from the JSON object on the last line of its standard output.

The output file holds tfbench's environment line (Python, numpy, BLAS and
CPU count) from the first run; in its protocol block, each checkout's
``git rev-parse HEAD``, whether its tracked or untracked files differ
from that commit (``dirty``), both null for a checkout that is not the
root of a git work tree, and the line count of its ``src/**/*.py``
(``src_lines``), and how the copies were staged (``staging``); and,
per workload and metric, both sides' values in pair order, their medians
and quartiles, and how many pairs the change won, judged by the metric's
direction in BENCHMARK.json (ties count for neither side).  Per workload,
``timing_lines`` keeps each run's ``wall_s:`` and ``setup_s:`` summary lines
from tfbench's standard output, per side in pair order: they give the
minimum, maximum and tail percentile, so a slow outlier that leaves the
median alone still shows.  A run that exits non-zero stops the script with
the tail of that run's standard error.  Uses the standard library only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TIMING_PREFIXES = ("wall_s:", "setup_s:")
STDERR_TAIL_LINES = 20


def tfbench(checkout: Path, workload: str, seed: int, seconds: float
            ) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics, environment line and timing summary lines of one tfbench run in
    ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "tfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: tfbench exited "
                           f"{proc.returncode}\n{tail}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: checks failed\n{proc.stderr}")
    environment = next(json.loads(line.partition(" ")[2]) for line in lines
                       if line.startswith("environment "))
    timing = [line for line in lines if line.startswith(TIMING_PREFIXES)]
    return ({name: metric["value"] for name, metric in result["metrics"].items()}, environment,
            timing)


def revision(checkout: Path) -> dict:
    """The HEAD commit of ``checkout``, whether its working tree differs from it and
    the line count of its library sources.

    ``commit`` and ``dirty`` are None when ``checkout`` is not the root of a
    git work tree, such as a plain copy of the sources.
    """
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in (checkout / "src").rglob("*.py"))
    top = git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != checkout.resolve():
        return {"commit": None, "dirty": None, "src_lines": src_lines}
    return {"commit": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain").stdout.strip()), "src_lines": src_lines}


def stage(checkout: Path, dest: Path) -> Path:
    """``dest`` holding copies of ``checkout``'s ``src/`` and ``tfbench/``, without bytecode."""
    for part in ("src", "tfbench"):
        shutil.copytree(checkout / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def summary(parent: list[float], change: list[float], better: str) -> dict:
    out = {}
    for side, values in zip(SIDES, (parent, change)):
        quartiles = statistics.quantiles(values, n=4, method="inclusive") \
            if len(values) > 1 else values * 3
        out[side] = {"values": values, "median": statistics.median(values),
                     "quartiles": [quartiles[0], quartiles[2]]}
    sign = 1.0 if better == "higher" else -1.0
    out["better"] = better
    out["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out["parent_wins"] = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return out


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    report = {"protocol": {"pairs": args.pairs, "seconds": args.seconds,
                           "seeds": [args.seed, args.seed + args.pairs - 1],
                           "order": "parent first in even pairs, change first in odd pairs",
                           "staging": "fresh copies for every pair, each made right before "
                                      "its run",
                           "checkouts": {side: revision(path)
                                         for side, path in checkouts.items()}},
              "workloads": {}}
    for workload in args.workload:
        runs, timing = {side: [] for side in SIDES}, {side: [] for side in SIDES}
        for j in range(args.pairs):
            seed = args.seed + j
            with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
                for side in SIDES if j % 2 == 0 else SIDES[::-1]:
                    copy = stage(checkouts[side], Path(tmp) / side)
                    metrics, environment, lines = tfbench(copy, workload, seed, args.seconds)
                    runs[side].append(metrics)
                    timing[side].append(lines)
                    report.setdefault("environment", environment)
            print(f"{workload} pair {j + 1}/{args.pairs} (seed {seed}): "
                  + ", ".join(f"{side} wall_s {runs[side][-1]['wall_s']:.4f}"
                              for side in SIDES), flush=True)
        report["workloads"][workload] = {
            **{name: summary([r[name] for r in runs["parent"]],
                             [r[name] for r in runs["change"]], better)
               for name, better in directions.items()},
            "timing_lines": timing}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
