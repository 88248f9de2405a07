#!/usr/bin/env python3
"""Benchmark tfcomm the way its users run it: scaled CLI experiments.

    python3 tfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tfcomm checkout; the library is imported from its
``src/`` directory.  Every operation is one ``tfcomm.cli.run_experiment``
call on a config generated from ``--seed`` (see workloads.py), and every
operation's artifacts are checked.  Artifacts go to throwaway directories
under ``.bench_build/tfbench`` in the checkout.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds per
pass of the workload, after one untimed warm-up pass), ``setup_s`` (median
over fresh interpreters of the time until tfcomm is imported and the inputs
exist), ``peak_rss_mb`` (peak resident memory of a fresh process running
one pass) and ``ok_ratio`` (operations whose outputs passed their checks,
over operations attempted).  ``--trace 1`` alternates untraced and traced
passes and reports per-layer self times, call counts and errors (see
tracer.py); ``trace.overhead_s`` is the traced minus the untraced median
pass time.  The spans are written to ``.bench_build/tfbench``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process is
single-threaded apart from BLAS, whose thread count is left at its default
and recorded in the environment line; probes run one at a time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "tfbench"

SETUP_PROBES = 11
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
TAIL_SAMPLES = 10

# (metric name, traced function or layer, field, unit); see README.md for which
# end-to-end metric each one is expected to move.
_LAYER_FIELDS = [(f"{layer}.{field}", layer, field, unit)
                 for layer in LAYERS
                 for field, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))]
_FUNCTION_FIELDS = [
    ("channel_models.wssus_sample", "self_s"),
    ("channel_models.preset_profile", "calls"),
    ("tf_core.synthesize_channel", "self_s"),
    ("wh_frames.lattice_matrix", "self_s"),
    ("wh_frames.lattice_matrix", "calls"),
    ("wh_frames.tight_window", "self_s"),
    ("wh_frames.tight_window", "calls"),
    ("wh_frames.frame_operator", "self_s"),
    ("wh_frames.frame_bounds", "self_s"),
    ("wh_frames.dual_window", "self_s"),
    ("ofdm.transmit_through", "self_s"),
    ("ofdm.cross_ambiguity", "self_s"),
    ("ofdm.interference_power", "self_s"),
    ("ofdm.OFDMConfig", "self_s"),
    ("ofdm.OFDMConfig", "calls"),
    ("identification.identify", "self_s"),
    ("identification.sounding_quality", "self_s"),
    ("identification.build_sounding_matrix", "calls"),
    ("capacity.capacity_low_snr", "self_s"),
    ("capacity.capacity_low_snr", "calls"),
    ("cli.emit_plotdata", "self_s"),
    ("cli.run_experiment", "self_s"),
]
SPAN_METRICS = _LAYER_FIELDS + [(f"{fn}.{field}", fn, field, "s" if field == "self_s" else "count")
                                for fn, field in _FUNCTION_FIELDS]


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, kind: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{kind}: {p}" for p in problems[:3]]


def run_pass(ops, cli, tally: Tally) -> tuple[float, int]:
    """Run every operation once; returns (seconds inside run_experiment, bytes written).

    ``cli.run_experiment`` is looked up on every call, so a traced pass runs
    the wrapped function.
    """
    wall = 0.0
    written = 0
    for kind, cfg in ops:
        out = Path(tempfile.mkdtemp(dir=WORK))
        try:
            start = time.perf_counter()
            try:
                cli.run_experiment(kind, cfg, out)
                problems = None
            except Exception as exc:  # a failed operation is counted, not fatal
                problems = [f"raised {type(exc).__name__}: {exc}"]
            wall += time.perf_counter() - start
            if problems is None:
                problems = workloads.check(kind, cfg, out)
            written += sum(p.stat().st_size for p in out.iterdir())
            tally.record(kind, problems)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return wall, written


def _probe(args: list[str]) -> tuple[float, str]:
    """Start probe.py in a fresh interpreter; (seconds to its first line, its last line)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), *args],
                          stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or not first:
        raise RuntimeError(f"probe {args[0]} exited with code {proc.returncode}")
    return elapsed, (first + rest).strip().splitlines()[-1]


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded, or None."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _timing_summary(name: str, samples: list[float]) -> str:
    """Median, and the highest percentile with TAIL_SAMPLES samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = (f"{name}: median {statistics.median(ordered):.4f} s, min {ordered[0]:.4f} s, "
            f"max {ordered[-1]:.4f} s, n={n}")
    if n > TAIL_SAMPLES:
        text += f", p{100 * (n - TAIL_SAMPLES) / n:.0f} {ordered[n - TAIL_SAMPLES - 1]:.4f} s"
    else:
        text += f" (no percentile has {TAIL_SAMPLES} samples beyond it)"
    return text


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    from tfcomm import cli

    _probe(["setup", workload, str(seed)])  # untimed: fills the bytecode cache
    setups = [_probe(["setup", workload, str(seed)])[0] for _ in range(SETUP_PROBES)]
    _, line = _probe(["rss", workload, str(seed), str(WORK)])
    rss = json.loads(line)
    tally.attempted += rss["attempted"]
    tally.failed += rss["failed"]
    tally.problems += rss["problems"]

    ops = workloads.operations(workload, seed)
    run_pass(ops, cli, tally)  # warm-up
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        walls.append(run_pass(ops, cli, tally)[0])
    print(_timing_summary("wall_s", walls))
    print(_timing_summary("setup_s", setups))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss["maxrss_kb"] / 1024.0, "MiB"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    import tfcomm
    from tfcomm import cli

    desc, n_dim = workloads.profile_spec(workload, seed)
    params = {k: v for k, v in desc.items() if k != "kind"}
    support = tfcomm.preset_profile(desc["kind"], n_dim, **params).support_count / n_dim**2

    ops = workloads.operations(workload, seed)
    run_pass(ops, cli, tally)  # warm-up
    tracer = Tracer()
    plain, traced, totals, written = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(run_pass(ops, cli, tally)[0])
        tracer.install()
        try:
            wall, size = run_pass(ops, cli, tally)
        finally:
            tracer.uninstall()
        traced.append(wall)
        written.append(size)
        totals.append(tracer.end_pass())
    spans = WORK / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(spans)
    print(f"spans: {spans.relative_to(ROOT)} ({len(traced)} traced passes)")
    print(_timing_summary("untraced wall_s", plain))
    print(_timing_summary("traced wall_s", traced))

    metrics = {}
    for metric, key, field, unit in SPAN_METRICS:
        values = [t.get(key, {}).get(field, 0) for t in totals]
        if field != "self_s" and len(set(values)) > 1:
            print(f"warning: {metric} differs between passes: {sorted(set(values))}",
                  file=sys.stderr)
        pick = statistics.median if field == "self_s" else statistics.median_low
        metrics[metric] = (pick(values), unit)
    metrics["channel_models.support_fraction"] = (support, "ratio")
    metrics["cli.bytes_written"] = (statistics.median_low(written), "bytes")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tfcomm" / "__init__.py").is_file():
        print(f"tfbench: no tfcomm sources under {SRC}; run from a tfcomm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tfcomm
    if Path(tfcomm.__file__).resolve().parent != SRC / "tfcomm":
        print(f"tfbench: imported tfcomm from {tfcomm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")

    WORK.mkdir(parents=True, exist_ok=True)
    print("environment", json.dumps(environment(), sort_keys=True))
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, args.seed, args.seconds, tally)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"failed_ratio {tally.failed / max(1, tally.attempted)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
