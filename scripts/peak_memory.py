#!/usr/bin/env python3
"""Peak memory, time and bytes written of each experiment kind at a given N, in fresh processes.

    python3 scripts/peak_memory.py N [--set [KIND:]KEY=VALUE ...] [--kind KIND ...] \\
        [--checkout DIR]

For every config in ``DIR/scripts/configs/`` (DIR defaults to this checkout),
or only those of the ``--kind`` kinds, runs

    python -m tfcomm KIND --config CONFIG --set n_dim=N [--set KEY=VALUE ...] --out TMP

with ``DIR/src`` on PYTHONPATH, in a child of its own measuring process: that
process reads the child's peak resident set size as
``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``, which then covers that one
child alone.  A second child runs the same command in process under
``tracemalloc``, started after the imports, and reports the run's heap peak:
the Python and numpy allocations live at once, which peak RSS overstates
where the allocator keeps freed pages or maps them at its own threshold.  It is
a separate run so that the first one's time stays untraced.  A ``--set``
assignment prefixed ``KIND:`` applies to that kind only, one without a prefix
to every kind.  Each run's artifacts go to a temporary directory that is then
removed; the first run's file sizes are summed (spread-analyze at N = 4096
writes about 646 MB).  Prints one line per kind: its exit status, wall time,
peak RSS and heap peak in MiB and the bytes its artifacts hold.  Exits 1 if
either run of a kind exits non-zero.  Uses the standard library only.

The N = 4096 measurements quoted in CHANGES.md ran the shipped configs with

    python3 scripts/peak_memory.py 4096 \\
        --set pulse-design:time_step=64 --set pulse-design:freq_step=128 \\
        --set pulse-design:baseline.n_subcarriers=64 --set pulse-design:baseline.cp_len=0 \\
        --set ofdm-sim:system.n_subcarriers=64 --set ofdm-sim:system.cp_len=0 \\
        --set ofdm-sim:n_frames=64 \\
        --set 'ofdm-sim:channel={"kind": "specular", "paths": [[0, 0, 1.0, 0.0],
               [2, -1, 0.5, 0.25], [5, 2, 0.25, -0.1]]}'

plus one ofdm-sim run that keeps the shipped flat 3 x 3 profile.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# argv: the command to measure; prints its exit status, seconds and ru_maxrss in KiB
MEASURE = """
import resource, subprocess, sys, time
started = time.perf_counter()
status = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
print(status, time.perf_counter() - started,
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
# argv: tfcomm's arguments; runs them traced and prints the exit status and the heap peak in bytes
TRACE = """
import sys, tracemalloc
from tfcomm.cli import run
tracemalloc.start()
status = run(sys.argv[1:])
print(status, tracemalloc.get_traced_memory()[1])
"""


def assignments(kind: str, sets: list[str]) -> list[str]:
    """The ``--set`` arguments of ``sets`` that apply to ``kind``, prefixes removed."""
    out = []
    for item in sets:
        key, _, value = item.partition("=")
        scope, _, key = key.rpartition(":")
        if scope in ("", kind):
            out += ["--set", f"{key}={value}"]
    return out


def measure(checkout: Path, kind: str, config: Path, n_dim: int, sets: list[str]
            ) -> tuple[int, float, int, int, int]:
    """(exit status, seconds, peak RSS in KiB, heap peak in bytes, bytes written) of one
    CLI run, from two fresh processes: the exit status is the worse of the two."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    args = [kind, "--config", str(config), "--set", f"n_dim={n_dim}", *assignments(kind, sets)]
    with tempfile.TemporaryDirectory(prefix="peak-memory-") as out:
        proc = subprocess.run([sys.executable, "-c", MEASURE, sys.executable, "-m", "tfcomm",
                               *args, "--out", out],
                              stdout=subprocess.PIPE, text=True, check=True, env=env)
        written = sum(path.stat().st_size for path in Path(out).rglob("*") if path.is_file())
    status, seconds, maxrss_kb = proc.stdout.split()
    with tempfile.TemporaryDirectory(prefix="peak-memory-") as out:
        traced = subprocess.run([sys.executable, "-c", TRACE, *args, "--out", out],
                                stdout=subprocess.PIPE, text=True, check=True, env=env)
    traced_status, heap_peak = traced.stdout.split()
    return (max(int(status), int(traced_status)), float(seconds), int(maxrss_kb),
            int(heap_peak), written)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_dim", type=int, help="the n_dim every run is set to")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="[KIND:]KEY=VALUE", help="an override passed to tfcomm --set")
    parser.add_argument("--kind", dest="kinds", action="append", default=[],
                        help="run only this kind (repeatable)")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/ and scripts/configs/ run (default: this one)")
    args = parser.parse_args()

    failed = 0
    for config in sorted((args.checkout / "scripts" / "configs").glob("*.json")):
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        if args.kinds and kind not in args.kinds:
            continue
        status, seconds, maxrss_kb, heap_peak, written = measure(
            args.checkout.resolve(), kind, config.resolve(), args.n_dim, args.sets)
        failed += status != 0
        print(f"{kind:15s} exit {status}  {seconds:8.2f} s  {maxrss_kb / 1024:8.1f} MiB RSS"
              f"  {heap_peak / 2**20:8.1f} MiB heap  {written:12d} bytes written", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
