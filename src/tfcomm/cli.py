"""Command-line experiment runner.

Six subcommands (spread-analyze, frame-analyze, pulse-design, ofdm-sim,
identify, capacity) each read a strict JSON config, run a thin composition
of library calls, and write CSV/JSON artifacts plus a manifest with sha256
digests into the output directory.  Identical config and seed give
byte-identical artifacts; the manifest's wall-time field is the one value
outside that guarantee.  Exit codes: 0 success, 2 config/validation
problems, 3 numerical failures surfaced from the library (not a frame, not
identifiable, a failed demodulator split, a non-finite result).

All randomness is derived from the single run seed through fixed substream
labels, so per-frame draws are reproducible in isolation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import CapacityQuery, bandwidth_sweep, capacity_low_snr
from .channel_models import ScatteringProfile, from_specular, preset_profile, \
    time_invariant, wssus_sample
from .identification import IdentifiabilityError, build_sounding_matrix, \
    centered_rect_support, dirac_train, identify, sounding_quality
from .ofdm import OFDMConfig, cp_ofdm_config, design_pulses, interference_power, \
    simulate_frames
from .tf_core import SpreadingFunction, centered_index, spread_metrics, \
    synthesize_channel, tf_transfer
from .wh_frames import NotAFrameError, Pulse, WHGrid, check_wexler_raz, dual_window, \
    frame_bounds, gaussian_pulse, localization_metrics, read_pulse_csv, rect_pulse, \
    tight_window, write_pulse_csv

__all__ = [
    "ConfigError",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_NUMERICAL",
    "KINDS",
    "run_experiment",
    "emit_plotdata",
    "run",
    "entry",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

OUT_DIR_ENV = "TFCOMM_OUT_DIR"
DB_FLOOR = -40.0


class ConfigError(Exception):
    """Configuration failed schema validation."""


# ---------------------------------------------------------------------------
# schema helpers

_MISSING = object()


@dataclass(frozen=True)
class _Key:
    name: str
    types: tuple
    default: object = _MISSING


def _validate(obj, keys: list[_Key], where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    known = {k.name for k in keys}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed {sorted(known)}")
    out = {}
    for key in keys:
        if key.name in obj:
            val = obj[key.name]
            if float in key.types and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            if not isinstance(val, key.types) or isinstance(val, bool) and bool not in key.types:
                names = "/".join(t.__name__ for t in key.types)
                raise ConfigError(f"{where}.{key.name}: expected {names}, "
                                  f"got {type(val).__name__}")
            out[key.name] = val
        elif key.default is _MISSING:
            raise ConfigError(f"{where}: missing required key {key.name!r}")
        else:
            out[key.name] = key.default
    return out


def _complex_list(values, where: str, length: int | None = None) -> np.ndarray:
    """Parse [x, ...] or [[re, im], ...] into a complex vector."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}: expected a nonempty list")
    out = []
    for j, item in enumerate(values):
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            out.append(complex(item))
        elif isinstance(item, list) and len(item) == 2 and \
                all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item):
            out.append(complex(item[0], item[1]))
        else:
            raise ConfigError(f"{where}[{j}]: expected a number or [re, im] pair")
    if length is not None and len(out) != length:
        raise ConfigError(f"{where}: expected {length} entries, got {len(out)}")
    return np.array(out)


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def _positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where}: expected a positive integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# descriptor builders (profiles, pulses, channels, systems)


def _build_profile(desc, n_dim: int, where: str) -> ScatteringProfile:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    params = {k: v for k, v in desc.items() if k != "kind"}
    try:
        return preset_profile(desc["kind"], n_dim, **params)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_pulse(desc, n_dim: int, where: str, base_dir: Path,
                 grid: WHGrid | None = None) -> Pulse:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = desc["kind"]
    if kind == "gaussian":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("sigma", (float,), None)], where)
        if spec["sigma"] is not None:
            pulse = gaussian_pulse(n_dim, sigma=spec["sigma"])
        elif grid is not None:
            pulse = gaussian_pulse(n_dim, grid.time_step, grid.freq_step)
        else:
            pulse = gaussian_pulse(n_dim)
        return pulse
    if kind == "rect":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("length", (int,)),
                                _Key("offset", (int,), 0)], where)
        return rect_pulse(n_dim, spec["length"], spec["offset"])
    if kind == "csv":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("path", (str,))], where)
        path = Path(spec["path"])
        if not path.is_absolute():
            path = base_dir / path
        pulse = read_pulse_csv(path)
        if pulse.n_dim != n_dim:
            raise ConfigError(f"{where}: pulse file has length {pulse.n_dim}, expected {n_dim}")
        return pulse
    raise ConfigError(f"{where}.kind: unknown pulse kind {kind!r}")


def _build_channel(desc, n_dim: int, where: str) -> SpreadingFunction | ScatteringProfile:
    """A deterministic channel's SpreadingFunction, or a WSSUS channel's profile."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = desc["kind"]
    if kind == "specular":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("paths", (list,))], where)
        paths = []
        for j, item in enumerate(spec["paths"]):
            if not (isinstance(item, list) and len(item) == 4):
                raise ConfigError(f"{where}.paths[{j}]: expected [delay, doppler, re, im]")
            paths.append((item[0], item[1], complex(item[2], item[3])))
        return from_specular(paths, n_dim)
    if kind == "time_invariant":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("gains", (list,))], where)
        return time_invariant(_complex_list(spec["gains"], f"{where}.gains"), n_dim)
    if kind == "wssus":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("profile", (dict,))], where)
        return _build_profile(spec["profile"], n_dim, f"{where}.profile")
    raise ConfigError(f"{where}.kind: unknown channel kind {kind!r}")


def _build_system(desc, n_dim: int, where: str, base_dir: Path) -> OFDMConfig:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = desc["kind"]
    if kind == "cp_ofdm":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("n_subcarriers", (int,)),
                                _Key("cp_len", (int,))], where)
        return cp_ofdm_config(n_dim, spec["n_subcarriers"], spec["cp_len"])
    if kind == "designed":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("time_step", (int,)),
                                _Key("freq_step", (int,)), _Key("profile", (dict,)),
                                _Key("method", (str,), "matched_gaussian_tight"),
                                _Key("n_sweeps", (int,), 1), _Key("step", (float,), 0.02)],
                         where)
        grid = WHGrid(n_dim, spec["time_step"], spec["freq_step"])
        profile = _build_profile(spec["profile"], n_dim, f"{where}.profile")
        tx, rx = design_pulses(profile, grid, spec["method"],
                               n_sweeps=spec["n_sweeps"], step=spec["step"])
        return OFDMConfig(grid, tx, rx)
    if kind == "pulse_pair":
        spec = _validate(desc, [_Key("kind", (str,)), _Key("time_step", (int,)),
                                _Key("freq_step", (int,)), _Key("tx", (dict,)),
                                _Key("rx", (dict,))], where)
        grid = WHGrid(n_dim, spec["time_step"], spec["freq_step"])
        tx = _build_pulse(spec["tx"], n_dim, f"{where}.tx", base_dir, grid)
        rx = _build_pulse(spec["rx"], n_dim, f"{where}.rx", base_dir, grid)
        return OFDMConfig(grid, tx, rx)
    raise ConfigError(f"{where}.kind: unknown system kind {kind!r}")


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(value) -> str:
    x = float(value)
    if not math.isfinite(x):
        raise ArithmeticError(f"non-finite value {x!r} in a CSV artifact")
    return repr(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"{path.name}: non-finite value in the report") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _grid_db(values: np.ndarray, floor_db: float) -> np.ndarray:
    mags = np.abs(values)
    peak = mags.max()
    if peak == 0.0:
        return np.full(values.shape, floor_db)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mags / peak)
    return np.maximum(db, floor_db)


def emit_plotdata(kind: str, source, path, floor_db: float = DB_FLOOR) -> None:
    """Write long-format (x, y, value_db) CSV for heatmaps and curves.

    Magnitudes are normalized to the grid peak and clamped ``floor_db``
    below it (default 40 dB of dynamic range).  Spreading and ambiguity
    grids use centered axes; transfer grids use raw (n, k).  For
    capacity-curve the columns are (bandwidth, rate, rate relative to the
    peak in dB).
    """
    path = Path(path)
    if kind in ("spreading-heatmap", "ambiguity-heatmap", "transfer-heatmap"):
        grid = np.asarray(source)
        n = grid.shape[0]
        db = _grid_db(grid, floor_db)
        centered = kind != "transfer-heatmap"
        axis = centered_index(np.arange(n), n) if centered else np.arange(n)
        rows = [[int(axis[i]), int(axis[j]), _fmt(db[i, j])]
                for i in range(n) for j in range(n)]
        _write_csv(path, ["x", "y", "value_db"], rows)
        return
    if kind == "capacity-curve":
        rates = np.asarray(source.rates, dtype=float)
        peak = rates.max()
        rows = []
        for bw, rate in zip(source.bandwidths, rates):
            rel = floor_db if peak <= 0 or rate <= 0 else \
                max(floor_db, 20.0 * np.log10(rate / peak))
            rows.append([_fmt(bw), _fmt(rate), _fmt(rel)])
        _write_csv(path, ["x", "y", "value_db"], rows)
        return
    raise ConfigError(f"unknown plotdata kind {kind!r}")


def _write_spreading_csv(path: Path, spreading) -> None:
    rows = []
    for m_raw, l_raw in spreading.support_indices():
        val = spreading.coeffs[m_raw, l_raw]
        rows.append([int(centered_index(m_raw, spreading.n_dim)),
                     int(centered_index(l_raw, spreading.n_dim)),
                     _fmt(val.real), _fmt(val.imag)])
    _write_csv(path, ["m", "l", "re", "im"], rows)


# ---------------------------------------------------------------------------
# experiment implementations: each returns {filename: payload-written} map


def _run_spread_analyze(cfg: dict, out: Path, base_dir: Path) -> list[str]:
    spec = _validate(cfg, [_Key("kind", (str,), "spread-analyze"), _Key("n_dim", (int,)),
                           _Key("channel", (dict,)), _Key("sample_rate", (float,), None),
                           _Key("seed", (int,), 0)], "config")
    n = _positive_int(spec["n_dim"], "config.n_dim")
    spreading = _build_channel(spec["channel"], n, "config.channel")
    if isinstance(spreading, ScatteringProfile):
        spreading = wssus_sample(spreading, [spec["seed"], 0])
    metrics = spread_metrics(spreading, spec["sample_rate"])
    transfer = tf_transfer(spreading)
    _write_spreading_csv(out / "spreading.csv", spreading)
    emit_plotdata("spreading-heatmap", spreading.coeffs, out / "spreading_db.csv")
    emit_plotdata("transfer-heatmap", transfer.values, out / "transfer_db.csv")
    _write_json(out / "spread_report.json", {
        "n_dim": n,
        "support_count": metrics.support_count,
        "normalized_spread": metrics.normalized_spread,
        "box_spread": metrics.box_spread,
        "tau_max": metrics.tau_max,
        "nu_max": metrics.nu_max,
        "underspread": metrics.underspread,
        "underspread_box": metrics.underspread_box,
        "channel_frobenius_norm": synthesize_channel(spreading).frobenius_norm(),
    })
    return ["spreading.csv", "spreading_db.csv", "transfer_db.csv", "spread_report.json"]


def _run_frame_analyze(cfg: dict, out: Path, base_dir: Path) -> list[str]:
    spec = _validate(cfg, [_Key("kind", (str,), "frame-analyze"), _Key("n_dim", (int,)),
                           _Key("time_step", (int,)), _Key("freq_step", (int,)),
                           _Key("pulse", (dict,)), _Key("seed", (int,), 0)], "config")
    n = _positive_int(spec["n_dim"], "config.n_dim")
    grid = WHGrid(n, spec["time_step"], spec["freq_step"])
    pulse = _build_pulse(spec["pulse"], n, "config.pulse", base_dir, grid)
    report = frame_bounds(pulse, grid)
    dual = dual_window(pulse, grid)
    tight = tight_window(pulse, grid)
    is_dual, biorth_defect = check_wexler_raz(pulse, dual, grid)
    t_spread, f_spread = localization_metrics(pulse)
    write_pulse_csv(out / "dual_window.csv", dual)
    write_pulse_csv(out / "tight_window.csv", tight)
    _write_json(out / "frame_report.json", {
        "n_dim": n,
        "time_step": grid.time_step,
        "freq_step": grid.freq_step,
        "redundancy": grid.redundancy,
        "tf_product": grid.tf_product,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "is_frame": report.is_frame,
        "is_tight": report.is_tight,
        "condition": report.condition,
        "wexler_raz_dual": is_dual,
        "biorthogonality_defect": biorth_defect,
        "time_spread": t_spread,
        "freq_spread": f_spread,
    })
    return ["dual_window.csv", "tight_window.csv", "frame_report.json"]


def _run_pulse_design(cfg: dict, out: Path, base_dir: Path) -> list[str]:
    spec = _validate(cfg, [_Key("kind", (str,), "pulse-design"), _Key("n_dim", (int,)),
                           _Key("time_step", (int,)), _Key("freq_step", (int,)),
                           _Key("profile", (dict,)),
                           _Key("method", (str,), "matched_gaussian_tight"),
                           _Key("n_sweeps", (int,), 1), _Key("step", (float,), 0.02),
                           _Key("baseline", (dict,), None), _Key("seed", (int,), 0)],
                     "config")
    n = _positive_int(spec["n_dim"], "config.n_dim")
    grid = WHGrid(n, spec["time_step"], spec["freq_step"])
    profile = _build_profile(spec["profile"], n, "config.profile")
    tx, rx = design_pulses(profile, grid, spec["method"],
                           n_sweeps=spec["n_sweeps"], step=spec["step"])
    system = OFDMConfig(grid, tx, rx)
    report = {
        "n_dim": n,
        "method": spec["method"],
        "time_step": grid.time_step,
        "freq_step": grid.freq_step,
        "tf_product": grid.tf_product,
        "spectral_efficiency": system.spectral_efficiency,
        "biorthogonality_defect": system.biorthogonality_defect,
        "interference_power": interference_power(profile, system),
    }
    if spec["baseline"] is not None:
        base = _validate(spec["baseline"], [_Key("n_subcarriers", (int,)),
                                            _Key("cp_len", (int,))], "config.baseline")
        baseline = cp_ofdm_config(n, base["n_subcarriers"], base["cp_len"])
        report["baseline"] = {
            "n_subcarriers": base["n_subcarriers"],
            "cp_len": base["cp_len"],
            "tf_product": baseline.grid.tf_product,
            "interference_power": interference_power(profile, baseline),
        }
    write_pulse_csv(out / "tx_pulse.csv", tx)
    write_pulse_csv(out / "rx_pulse.csv", rx)
    emit_plotdata("ambiguity-heatmap", system.ambiguity, out / "ambiguity_db.csv")
    _write_json(out / "design_report.json", report)
    return ["tx_pulse.csv", "rx_pulse.csv", "ambiguity_db.csv", "design_report.json"]


def _run_ofdm_sim(cfg: dict, out: Path, base_dir: Path) -> list[str]:
    spec = _validate(cfg, [_Key("kind", (str,), "ofdm-sim"), _Key("n_dim", (int,)),
                           _Key("system", (dict,)), _Key("channel", (dict,)),
                           _Key("n_frames", (int,), 1), _Key("noise_psd", (float,), 0.0),
                           _Key("constellation", (str,), "qpsk"),
                           _Key("seed", (int,), 0)], "config")
    n = _positive_int(spec["n_dim"], "config.n_dim")
    n_frames = _positive_int(spec["n_frames"], "config.n_frames")
    system = _build_system(spec["system"], n, "config.system", base_dir)
    channel = _build_channel(spec["channel"], n, "config.channel")
    energies = simulate_frames(system, channel, n_frames, spec["seed"], spec["noise_psd"],
                               spec["constellation"])
    _write_csv(out / "frames.csv",
               ["frame", "gain_energy", "interference_energy", "noise_energy",
                "error_vector_energy"],
               [[idx, *map(_fmt, row)] for idx, row in enumerate(energies)])
    report = {
        "n_dim": n,
        "n_frames": n_frames,
        "noise_psd": spec["noise_psd"],
        "spectral_efficiency": system.spectral_efficiency,
        "biorthogonality_defect": system.biorthogonality_defect,
        "mean_interference_energy": float(np.mean(energies[:, 1])),
        "max_interference_energy": float(np.max(energies[:, 1])),
    }
    if isinstance(channel, ScatteringProfile):
        report["predicted_interference_power"] = interference_power(channel, system)
    _write_json(out / "sim_report.json", report)
    return ["frames.csv", "sim_report.json"]


def _run_identify(cfg: dict, out: Path, base_dir: Path) -> list[str]:
    spec = _validate(cfg, [_Key("kind", (str,), "identify"), _Key("n_dim", (int,)),
                           _Key("period", (int,)), _Key("support", (dict, list)),
                           _Key("noise_psd", (float,), 0.0), _Key("seed", (int,), 0)],
                     "config")
    n = _positive_int(spec["n_dim"], "config.n_dim")
    if not spec["noise_psd"] >= 0.0:
        raise ConfigError(f"config.noise_psd: expected a nonnegative number, "
                          f"got {spec['noise_psd']!r}")
    if isinstance(spec["support"], dict):
        sup = _validate(spec["support"], [_Key("n_delay", (int,)), _Key("n_doppler", (int,))],
                        "config.support")
        support = centered_rect_support(sup["n_delay"], sup["n_doppler"])
    else:
        cells = []
        for j, cell in enumerate(spec["support"]):
            if not (isinstance(cell, list) and len(cell) == 2):
                raise ConfigError(f"config.support[{j}]: expected [delay, doppler]")
            cells.append((cell[0], cell[1]))
        support = tuple(cells)
    probe = dirac_train(n, spec["period"])
    mat = build_sounding_matrix(probe, support, n)
    rng = np.random.default_rng([spec["seed"], 0])
    truth = (rng.standard_normal(len(support))
             + 1j * rng.standard_normal(len(support))) / np.sqrt(2.0)
    observation = mat @ truth
    if spec["noise_psd"] > 0.0:
        noise_rng = np.random.default_rng([spec["seed"], 1])
        observation = observation + np.sqrt(spec["noise_psd"] / 2.0) * (
            noise_rng.standard_normal(n) + 1j * noise_rng.standard_normal(n))
    result = identify(observation, probe, support)
    condition, worst_amb = sounding_quality(probe, support)
    rows = [[m, l, _fmt(est.real), _fmt(est.imag), _fmt(true.real), _fmt(true.imag)]
            for (m, l), est, true in zip(support, result.estimate, truth)]
    _write_csv(out / "estimate.csv", ["m", "l", "re", "im", "true_re", "true_im"], rows)
    _write_json(out / "identify_report.json", {
        "n_dim": n,
        "period": spec["period"],
        "n_unknowns": len(support),
        "noise_psd": spec["noise_psd"],
        "residual": result.residual,
        "condition_number": result.condition_number,
        "max_offgrid_ambiguity": worst_amb,
        "relative_error": float(np.linalg.norm(result.estimate - truth)
                                / np.linalg.norm(truth)),
    })
    return ["estimate.csv", "identify_report.json"]


def _run_capacity(cfg: dict, out: Path, base_dir: Path) -> list[str]:
    spec = _validate(cfg, [_Key("kind", (str,), "capacity"), _Key("n_dim", (int,)),
                           _Key("profile", (dict,)), _Key("snr", (float,), None),
                           _Key("power_budget", (float,), None),
                           _Key("bandwidths", (list, dict), None),
                           _Key("delay_cell", (float,), 1.0),
                           _Key("doppler_cell", (float,), None),
                           _Key("seed", (int,), 0)], "config")
    n = _positive_int(spec["n_dim"], "config.n_dim")
    profile = _build_profile(spec["profile"], n, "config.profile")
    sweep_requested = spec["power_budget"] is not None or spec["bandwidths"] is not None
    if spec["snr"] is None and not sweep_requested:
        raise ConfigError("config: need 'snr' and/or 'power_budget' with 'bandwidths'")
    report: dict = {"n_dim": n, "delay_cell": spec["delay_cell"]}
    outputs = []
    if spec["snr"] is not None:
        query = CapacityQuery(profile, spec["snr"], spec["delay_cell"], spec["doppler_cell"])
        cap, penalty = capacity_low_snr(query)
        report["point"] = {
            "snr": spec["snr"],
            "capacity": cap,
            "penalty": penalty,
            "awgn_reference": query.awgn_reference,
            "support_area": query.support_area,
        }
    if sweep_requested:
        if spec["power_budget"] is None or spec["bandwidths"] is None:
            raise ConfigError("config: bandwidth sweeps need both 'power_budget' and "
                              "'bandwidths'")
        grid_desc = spec["bandwidths"]
        if isinstance(grid_desc, dict):
            gspec = _validate(grid_desc, [_Key("min", (float,)), _Key("max", (float,)),
                                          _Key("count", (int,)),
                                          _Key("spacing", (str,), "log")],
                              "config.bandwidths")
            if gspec["min"] <= 0 or gspec["max"] <= gspec["min"] or gspec["count"] < 2:
                raise ConfigError("config.bandwidths: need 0 < min < max and count >= 2")
            if gspec["spacing"] == "log":
                grid = np.geomspace(gspec["min"], gspec["max"], gspec["count"])
            elif gspec["spacing"] == "linear":
                grid = np.linspace(gspec["min"], gspec["max"], gspec["count"])
            else:
                raise ConfigError("config.bandwidths.spacing: expected 'log' or 'linear'")
        else:
            grid = np.array([float(v) for v in grid_desc])
        sweep = bandwidth_sweep(profile, spec["power_budget"], grid,
                                spec["delay_cell"], spec["doppler_cell"])
        _write_csv(out / "sweep.csv", ["bandwidth", "snr", "capacity", "penalty", "rate"],
                   [[_fmt(v) for v in row] for row in sweep.rows()])
        emit_plotdata("capacity-curve", sweep, out / "capacity_curve_db.csv")
        report["sweep"] = {
            "power_budget": spec["power_budget"],
            "best_bandwidth": sweep.best_bandwidth,
            "best_rate": float(sweep.rates[sweep.best_index]),
            "interior_maximum": sweep.has_interior_maximum,
        }
        outputs += ["sweep.csv", "capacity_curve_db.csv"]
    _write_json(out / "capacity_report.json", report)
    return outputs + ["capacity_report.json"]


_RUNNERS = {
    "spread-analyze": _run_spread_analyze,
    "frame-analyze": _run_frame_analyze,
    "pulse-design": _run_pulse_design,
    "ofdm-sim": _run_ofdm_sim,
    "identify": _run_identify,
    "capacity": _run_capacity,
}

KINDS = tuple(sorted(_RUNNERS))


# ---------------------------------------------------------------------------
# orchestration


def _apply_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.split(".")
    if not all(keys):
        raise ConfigError(f"--set: bad key path {dotted!r}")
    try:
        value = json.loads(raw, parse_constant=_reject_constant)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_experiment(kind: str, config: dict, out_dir, seed=None,
                   base_dir=None) -> dict:
    """Validate, execute, and write artifacts plus manifest; returns the manifest.

    ``seed`` overrides the config seed; ``base_dir`` anchors relative paths
    referenced by the config (defaults to the working directory).  Files are
    staged and moved into ``out_dir`` only when the whole run succeeds; numpy
    warnings are silenced, as non-finite results raise ArithmeticError.
    """
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {list(KINDS)}")
    cfg = dict(config)
    declared = cfg.get("kind")
    if declared is not None and declared != kind:
        raise ConfigError(f"config declares kind {declared!r} but {kind!r} was requested")
    if seed is not None:
        cfg["seed"] = int(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        started = time.monotonic()
        with np.errstate(all="ignore"):
            filenames = _RUNNERS[kind](cfg, staging, base)
        manifest = {
            "kind": kind,
            "tool_version": __version__,
            "seed": cfg.get("seed", 0),
            "config": cfg,
            "wall_time_seconds": time.monotonic() - started,
            "outputs": {name: _sha256(staging / name) for name in filenames},
        }
        _write_json(staging / "manifest.json", manifest)
        for name in [*filenames, "manifest.json"]:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfcomm",
        description="Deterministic time-frequency channel/modem experiments")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        cmd = sub.add_parser(kind, help=f"run a {kind} experiment")
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None,
                         help=f"output directory (default ${OUT_DIR_ENV} or ./tfcomm-out)")
        cmd.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE", help="override a (dotted) config key")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "tfcomm-out"
    try:
        config_path = Path(args.config)
        try:
            cfg = json.loads(config_path.read_text(encoding="utf-8"),
                             parse_constant=_reject_constant)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        for assignment in args.overrides:
            _apply_override(cfg, assignment)
        run_experiment(args.kind, cfg, out_dir, seed=args.seed,
                       base_dir=config_path.resolve().parent)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"tfcomm: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotAFrameError, IdentifiabilityError, ArithmeticError) as exc:
        print(f"tfcomm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def entry() -> None:
    sys.exit(run())
