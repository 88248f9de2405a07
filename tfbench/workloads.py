"""Seeded workload configs and per-operation output checks.

A workload is a list of operations, each one ``(kind, config)`` pair handed
to ``tfcomm.cli.run_experiment``.  Configs come from the workload seed
only; tfcomm sees nothing but the generated configs.  This module uses the
standard library alone, so the set-up probe can time ``import tfcomm`` plus
input generation without importing anything else heavy.

Checks use invariants and tolerances, never digests: a change that legally
alters a random stream (sparse WSSUS draws, say) must still pass.  Values
that do not depend on any random stream are compared against
``references.json``, recorded from the unmodified library by
``record_references.py``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("ofdm-sim-n256", "pulse-design-n96", "analysis-n512")

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Deterministic variants: the seed picks one, so each has a recorded reference.
PULSE_DESIGN_PROFILES = ((1, 1), (2, 1), (1, 2), (2, 2))  # flat_rect (max_delay, max_doppler)
CAPACITY_PROFILES = ((1, 1), (2, 1), (2, 2))  # flat_rect (max_delay, max_doppler)

REF_RTOL = 1e-6
OFDM_SIGMAS = 5.0  # allowed |mean - predicted| in standard errors of the mean


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def ofdm_sim_n256(rng: random.Random) -> list[tuple[str, dict]]:
    # delay_decay in (5/6, 1] keeps 7 delay taps; max_doppler 2 gives 5
    # Doppler bins, so the profile holds 35 of the 65,536 cells.
    return [("ofdm-sim", {
        "kind": "ofdm-sim",
        "n_dim": 256,
        "system": {"kind": "cp_ofdm", "n_subcarriers": 16, "cp_len": 16},
        "channel": {"kind": "wssus", "profile": {
            "kind": "exponential_jakes", "delay_decay": rng.uniform(0.9, 1.0),
            "max_doppler": 2}},
        "n_frames": 200,
        "noise_psd": rng.uniform(0.005, 0.02),
        "seed": rng.randrange(2**31),
    })]


def pulse_design_config(variant: int) -> dict:
    max_delay, max_doppler = PULSE_DESIGN_PROFILES[variant]
    return {
        "kind": "pulse-design",
        "n_dim": 96,
        "time_step": 12,
        "freq_step": 12,
        "profile": {"kind": "flat_rect", "max_delay": max_delay, "max_doppler": max_doppler},
        "method": "local_search",
        "n_sweeps": 1,
        "step": 0.02,
        "baseline": {"n_subcarriers": 8, "cp_len": 4},
    }


def frame_analyze_config() -> dict:
    # Redundancy 2.  Other grids of the same redundancy cost up to twice as
    # much in the dense eigensolver, so the grid is fixed to keep runs comparable.
    return {"kind": "frame-analyze", "n_dim": 512, "time_step": 16, "freq_step": 16,
            "pulse": {"kind": "gaussian"}}


def capacity_config(variant: int) -> dict:
    max_delay, max_doppler = CAPACITY_PROFILES[variant]
    return {"kind": "capacity", "n_dim": 512,
            "profile": {"kind": "flat_rect", "max_delay": max_delay,
                        "max_doppler": max_doppler},
            "snr": 0.5, "power_budget": 1.0,
            "bandwidths": {"min": 0.01, "max": 1000.0, "count": 200}}


def pulse_design_n96(rng: random.Random) -> list[tuple[str, dict]]:
    return [("pulse-design", pulse_design_config(rng.randrange(len(PULSE_DESIGN_PROFILES))))]


def analysis_n512(rng: random.Random) -> list[tuple[str, dict]]:
    n = 512
    cells = rng.sample([(m, l) for m in range(0, 21) for l in range(-10, 11)], 6)
    paths = [[m, l, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for m, l in cells]
    return [
        ("frame-analyze", frame_analyze_config()),
        # A period-16 Dirac train sounds a 16 x 32 rectangle (|S| = N) exactly.
        ("identify", {"kind": "identify", "n_dim": n, "period": 16,
                      "support": {"n_delay": 16, "n_doppler": 32},
                      "noise_psd": 10.0 ** rng.uniform(-6.0, -4.0),
                      "seed": rng.randrange(2**31)}),
        ("spread-analyze", {"kind": "spread-analyze", "n_dim": n,
                            "channel": {"kind": "specular", "paths": paths}}),
        ("capacity", capacity_config(rng.randrange(len(CAPACITY_PROFILES)))),
    ]


_GENERATORS = {
    "ofdm-sim-n256": ofdm_sim_n256,
    "pulse-design-n96": pulse_design_n96,
    "analysis-n512": analysis_n512,
}


def operations(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (kind, config) operations of one pass of ``workload``."""
    return _GENERATORS[workload](_rng(workload, seed))


def profile_spec(workload: str, seed: int) -> tuple[dict, int]:
    """(profile descriptor, N) of the scattering profile the workload uses."""
    for kind, cfg in operations(workload, seed):
        if kind == "ofdm-sim":
            return cfg["channel"]["profile"], cfg["n_dim"]
        if kind in ("pulse-design", "capacity"):
            return cfg["profile"], cfg["n_dim"]
    raise ValueError(f"workload {workload!r} uses no scattering profile")


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the outputs are right


def _reject_constant(token: str):
    raise ValueError(f"non-finite literal {token}")


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _row_count(path: Path) -> int:
    """Data rows of a CSV whose fields hold no line breaks."""
    return path.read_bytes().count(b"\n") - 1


def _close(value: float, reference: float, rtol: float = REF_RTOL) -> bool:
    return math.isclose(value, reference, rel_tol=rtol, abs_tol=1e-300)


def _reference(section: str, variant: int | None = None) -> dict:
    ref = json.loads(REFERENCES.read_text(encoding="utf-8"))[section]
    return ref if variant is None else ref[variant]


def _check_ofdm_sim(cfg: dict, out: Path) -> list[str]:
    report = _report(out / "sim_report.json")
    rows = _csv_rows(out / "frames.csv")
    problems = []
    if len(rows) != cfg["n_frames"]:
        problems.append(f"frames.csv has {len(rows)} rows, expected {cfg['n_frames']}")
    energies = [float(r[2]) for r in rows]
    if not energies or not all(math.isfinite(e) for e in energies):
        return problems + ["frames.csv interference energies missing or non-finite"]
    mean = sum(energies) / len(energies)
    var = sum((e - mean) ** 2 for e in energies) / max(1, len(energies) - 1)
    stderr = math.sqrt(var / len(energies))
    predicted = report["predicted_interference_power"]
    if not _close(report["mean_interference_energy"], mean, 1e-9):
        problems.append("mean_interference_energy disagrees with frames.csv")
    if stderr <= 0.0 or abs(mean - predicted) > OFDM_SIGMAS * stderr:
        problems.append(f"mean interference {mean:.6g} is not within {OFDM_SIGMAS} standard "
                        f"errors ({stderr:.3g}) of the prediction {predicted:.6g}")
    return problems


def _check_pulse_design(cfg: dict, out: Path) -> list[str]:
    report = _report(out / "design_report.json")
    ref = _reference("pulse-design", PULSE_DESIGN_PROFILES.index(
        (cfg["profile"]["max_delay"], cfg["profile"]["max_doppler"])))
    n = cfg["n_dim"]
    problems = []
    if not report["biorthogonality_defect"] <= 1e-9:
        problems.append(f"biorthogonality_defect {report['biorthogonality_defect']} > 1e-9")
    if not _close(report["interference_power"], ref["interference_power"]):
        problems.append(f"interference_power {report['interference_power']!r} != "
                        f"reference {ref['interference_power']!r}")
    if not _close(report["baseline"]["interference_power"], ref["baseline_interference_power"]):
        problems.append("baseline interference_power differs from the reference")
    for name, rows in (("tx_pulse.csv", n), ("rx_pulse.csv", n), ("ambiguity_db.csv", n * n)):
        if _row_count(out / name) != rows:
            problems.append(f"{name} does not have {rows} rows")
    return problems


def _check_frame_analyze(cfg: dict, out: Path) -> list[str]:
    report = _report(out / "frame_report.json")
    ref = _reference("frame-analyze")
    problems = [f"{flag} is false" for flag in ("is_frame", "wexler_raz_dual")
                if report[flag] is not True]
    for bound in ("lower_bound", "upper_bound"):
        if not _close(report[bound], ref[bound]):
            problems.append(f"{bound} {report[bound]!r} != reference {ref[bound]!r}")
    return problems


def _check_identify(cfg: dict, out: Path) -> list[str]:
    report = _report(out / "identify_report.json")
    problems = []
    if abs(report["condition_number"] - 1.0) > 1e-9:
        problems.append(f"condition_number {report['condition_number']} is not 1")
    # The sounding matrix is unitary, so the error is the noise projected onto
    # |S| = N coordinates: relative error ~ sqrt(noise_psd).
    level = math.sqrt(cfg["noise_psd"])
    if not 0.5 * level < report["relative_error"] < 2.0 * level:
        problems.append(f"relative_error {report['relative_error']:.3g} is not on the order "
                        f"of the noise level {level:.3g}")
    if _row_count(out / "estimate.csv") != report["n_unknowns"]:
        problems.append("estimate.csv row count differs from n_unknowns")
    return problems


def _check_spread_analyze(cfg: dict, out: Path) -> list[str]:
    report = _report(out / "spread_report.json")
    n = cfg["n_dim"]
    n_paths = len(cfg["channel"]["paths"])
    problems = []
    for name in ("spreading_db.csv", "transfer_db.csv"):
        if _row_count(out / name) != n * n:
            problems.append(f"{name} does not have N^2 = {n * n} rows")
    if report["support_count"] != n_paths or _row_count(out / "spreading.csv") != n_paths:
        problems.append(f"support does not hold the {n_paths} specular paths")
    return problems


def _check_capacity(cfg: dict, out: Path) -> list[str]:
    report = _report(out / "capacity_report.json")
    max_delay, max_doppler = cfg["profile"]["max_delay"], cfg["profile"]["max_doppler"]
    ref = _reference("capacity", CAPACITY_PROFILES.index((max_delay, max_doppler)))
    sweep = report["sweep"]
    problems = []
    if sweep["interior_maximum"] is not True:
        problems.append("rate curve has no interior maximum")
    if not _close(sweep["best_rate"], ref["best_rate"]):
        problems.append(f"best_rate {sweep['best_rate']!r} != reference {ref['best_rate']!r}")
    if not report["point"]["capacity"] <= report["point"]["awgn_reference"]:
        problems.append("capacity exceeds the AWGN reference")
    if _row_count(out / "sweep.csv") != cfg["bandwidths"]["count"]:
        problems.append("sweep.csv row count differs from the bandwidth count")
    return problems


_CHECKS = {
    "ofdm-sim": _check_ofdm_sim,
    "pulse-design": _check_pulse_design,
    "frame-analyze": _check_frame_analyze,
    "identify": _check_identify,
    "spread-analyze": _check_spread_analyze,
    "capacity": _check_capacity,
}


def check(kind: str, cfg: dict, out: Path) -> list[str]:
    """Problems with the artifacts one operation wrote to ``out``."""
    try:
        return _CHECKS[kind](cfg, Path(out))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
