#!/usr/bin/env python3
"""Compare the artifacts of two tfcomm checkouts on the shipped and the tfbench configs.

    python3 scripts/compare_artifacts.py OTHER_CHECKOUT OUT_OTHER OUT_THIS

Runs ``scripts/run_all.py`` of OTHER_CHECKOUT (against its own ``src/``)
into OUT_OTHER and this checkout's into OUT_THIS, so every config in
``scripts/configs/`` goes through ``run_experiment`` once per side, each
into ``OUT/<kind>/``.  Each side's ``run_experiment`` then also runs every
operation of every tfbench workload, as ``tfbench/workloads.operations``
of this checkout generates them for seeds 1-3, each into
``OUT/<workload>-s<seed>-<j>-<kind>/``.  It then diffs the sha256 digests
in every run's manifest ``outputs``.  For a CSV or JSON artifact whose
digest differs it also names the fields present on only one side (JSON
keys, CSV row:column positions) and prints how many of the common values
differ and the largest relative and absolute difference.  Exits 0 when
every digest matches, 1 otherwise.  Uses the standard library only.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_SEEDS = (1, 2, 3)
# argv: tfbench directory, artifact root, seeds; tfcomm comes from PYTHONPATH
RUN_WORKLOADS = """
import sys
from pathlib import Path
sys.dont_write_bytecode = True  # no __pycache__ under tfbench/
sys.path.insert(0, sys.argv[1])
import workloads
from tfcomm.cli import run_experiment
for name in workloads.WORKLOADS:
    for seed in map(int, sys.argv[3:]):
        for j, (kind, cfg) in enumerate(workloads.operations(name, seed)):
            run_experiment(kind, cfg, Path(sys.argv[2]) / f"{name}-s{seed}-{j}-{kind}")
"""


def run_all(checkout: Path, out: Path) -> None:
    """The shipped configs and the tfbench operations through ``checkout``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, str(checkout / "scripts" / "run_all.py"), "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, "-c", RUN_WORKLOADS, str(HERE.parent / "tfbench"), str(out),
                    *map(str, WORKLOAD_SEEDS)], env=env, check=True)


def outputs(root: Path) -> dict[tuple[str, str], str]:
    digests = {}
    for manifest in sorted(root.glob("*/manifest.json")):
        kind = manifest.parent.name
        for name, digest in json.loads(manifest.read_text(encoding="utf-8"))["outputs"].items():
            digests[(kind, name)] = digest
    return digests


def leaves(value, key=""):
    """(key, value) of every scalar in a parsed JSON document."""
    if isinstance(value, dict):
        for name in sorted(value):
            yield from leaves(value[name], f"{key}.{name}")
    elif isinstance(value, list):
        for j, item in enumerate(value):
            yield from leaves(item, f"{key}[{j}]")
    else:
        yield key, value


def cells(path: Path) -> list[tuple[str, object]]:
    """(position, value) of every field of a CSV (numbers parsed) or JSON artifact."""
    if path.suffix == ".json":
        return list(leaves(json.loads(path.read_text(encoding="utf-8"))))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(f"{i}:{j}", text if i == 0 else float(text))
            for i, row in enumerate(rows) for j, text in enumerate(row)]


def _positions(label: str, keys: list[str]) -> str:
    shown = ", ".join(keys[:5]) + (", ..." if len(keys) > 5 else "")
    return f"{label} {len(keys)} ({shown}); "


def value_difference(path_a: Path, path_b: Path) -> str:
    cells_a, cells_b = dict(cells(path_a)), dict(cells(path_b))
    removed = [k for k in cells_a if k not in cells_b]
    added = [k for k in cells_b if k not in cells_a]
    common = [k for k in cells_a if k in cells_b]
    changed, rel, absolute = 0, 0.0, 0.0
    for key in common:
        a, b = cells_a[key], cells_b[key]
        if a == b:
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            return f"non-numeric value at {key} differs: {a!r} vs {b!r}"
        changed += 1
        absolute = max(absolute, abs(a - b))
        rel = max(rel, abs(a - b) / max(abs(a), abs(b)))
    return ((_positions("removed", removed) if removed else "")
            + (_positions("added", added) if added else "")
            + f"{changed} of {len(common)} common values differ, "
              f"max relative difference {rel:.3g}, max absolute difference {absolute:.3g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    parser.add_argument("out_other", type=Path, help="artifact root for the other checkout")
    parser.add_argument("out_this", type=Path, help="artifact root for this checkout")
    args = parser.parse_args()

    run_all(args.other.resolve(), args.out_other)
    run_all(HERE.parent, args.out_this)
    other, this = outputs(args.out_other), outputs(args.out_this)
    differing = 0
    for key in sorted(set(other) | set(this)):
        kind, name = key
        if other.get(key) == this.get(key):
            print(f"same     {kind}/{name}")
            continue
        differing += 1
        detail = "missing on one side"
        if key in other and key in this:
            detail = value_difference(args.out_other / kind / name,
                                      args.out_this / kind / name)
        print(f"DIFFERS  {kind}/{name}: {detail}")
    print(f"{len(set(other) | set(this)) - differing} same, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
