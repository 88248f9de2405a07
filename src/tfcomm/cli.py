"""Command-line experiment runner.

Six subcommands (spread-analyze, frame-analyze, pulse-design, ofdm-sim,
identify, capacity) each read a strict JSON config, run a thin composition of
library calls, and write CSV/JSON artifacts plus a manifest with sha256 digests
into the output directory.  Identical config and seed give byte-identical
artifacts; the manifest's wall-time field is the one value outside that
guarantee.  Rows end in \\r\\n.  Tables go column-wise through
``wh_frames._write_csv``, numbers as their ``repr``; heatmaps through
``emit_plotdata`` a block of grid rows at a time, so no run holds an N x N grid
it writes, dB as ``%.4f`` assembled in numpy words (a rounding tie takes
``%.4f`` itself).  Exit codes: 0 success, 2 config/validation or ``--out``
problems, 3 numerical failures from the library (not a frame, not identifiable,
a failed eigensolver or demodulator split, a non-finite result) and refused
allocations (out of memory).

One table, ``_RUNNERS``, maps each kind to its runner, its report file and
its own config keys; a key that holds an object declares its key list, or a
``_Variants`` table of key lists by the object's ``kind``, and a str key its
choices.  ``run_experiment`` checks the whole config at every depth in one
pass (``_validate``), then creates the output directory, then calls the runner,
which builds its descriptors from the checked config, writes its CSVs and
returns its report.  A run that exits 2 or 3 leaves no directory it created.
Every exit-2 message about a config value starts with its location: a table
check's dotted key, or the key at which ``_located`` makes a library
ValueError/TypeError a ConfigError, else ``config`` around the runner.

All randomness is derived from the single run seed through generators of
fixed lists: [seed, 0] for a spread-analyze WSSUS draw and the identify
truth, [seed, 1] for identify noise, and [seed, 0], [seed, 1] and [seed, 2]
for ofdm-sim's channels, symbols and noise, drawn frame after frame.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import re
import reprlib
import shutil
import sys
import tempfile
import time
from collections import namedtuple
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import CapacityQuery, bandwidth_sweep, capacity_low_snr
from .channel_models import ScatteringProfile, _complex_normals, from_specular, \
    preset_profile, time_invariant, wssus_sample
from .identification import IdentifiabilityError, _canonical_support, \
    centered_rect_support, dirac_train, identify, offgrid_ambiguity, refuse_overspread
from .ofdm import _CONSTELLATIONS, OFDMConfig, cp_ofdm_config, interference_descent, \
    interference_power, simulate_frames
from .tf_core import SpreadingFunction, _ambiguity_rows, _cell_filter, _grid_rows, \
    _transfer_rows, centered_index, spread_metrics
from .wh_frames import NotAFrameError, Pulse, WHGrid, _frame_analysis, check_wexler_raz, \
    _write_csv, gaussian_pulse, localization_metrics, read_pulse_csv, rect_pulse, write_pulse_csv

__all__ = [
    "ConfigError", "EXIT_OK", "EXIT_CONFIG", "EXIT_NUMERICAL", "KINDS", "run_experiment",
    "emit_plotdata", "run", "entry",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

OUT_DIR_ENV = "TFCOMM_OUT_DIR"
DB_FLOOR = -40.0
# largest accepted n_dim: several kinds build N x N arrays
_MAX_N_DIM = 4096
# largest accepted count (frames, bandwidths): no larger than the largest N x N grid
_MAX_COUNT = _MAX_N_DIM ** 2


class ConfigError(Exception):
    """Configuration failed schema validation."""


# ---------------------------------------------------------------------------
# schema helpers

_MISSING = object()  # the default of a required key
_ABSENT = object()  # the default of a key that, when not given, stays out of the checked object
_Variants = namedtuple("_Variants", "noun kinds")  # key lists by "kind"; noun names the kind


@dataclass(frozen=True)
class _Key:
    name: str
    types: tuple
    default: object = _MISSING
    # a given value must satisfy lo <= value, gt < value and value <= hi; None is no bound
    # and a str hi names a key of the checked top level (hi="n_dim")
    lo: float | None = None
    gt: float | None = None
    hi: float | str | None = None
    # forms a given list's entries may take: () a number, (name, ...) a list of numbers
    entries: tuple = ()
    # a given object's keys: a key list, or a _Variants table chosen by the object's "kind"
    schema: list | _Variants | None = None
    choices: tuple = ()  # the values a given str may take; () takes any


def _fits(item, form: tuple) -> bool:
    """Whether a list entry is a number (form ()) or a list of len(form) numbers."""
    if not form:
        return isinstance(item, (int, float)) and not isinstance(item, bool)
    return isinstance(item, list) and len(item) == len(form) and all(_fits(v, ()) for v in item)


def _check_numbers(value, where: str, ranged: bool, entries_ranged: bool) -> None:
    """Reject a non-finite float in ``value`` or its list entries at any depth, and an int past
    float range in ``value`` if ``ranged`` or in an entry if ``entries_ranged``."""
    stack = [(where, value, ranged)]
    while stack:
        where, value, ranged = stack.pop()
        if isinstance(value, list):
            stack += reversed([(f"{where}[{j}]", v, entries_ranged) for j, v in enumerate(value)])
        elif isinstance(value, float) and not math.isfinite(value):  # JSON reads 1e400 as inf
            raise ConfigError(f"{where}: non-finite number {value!r} is not allowed")
        elif ranged and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"{where}: integer beyond float range is not allowed")


def _validate(obj, keys: list[_Key], where: str, top: dict | None = None) -> dict:
    """The one pass over a config: ``obj`` checked against ``keys`` in table order at every
    depth, defaults filled in; ``top`` is the checked top level, which a str bound reads."""
    known = {k.name for k in keys}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed {sorted(known)}")
    out = {}
    top = out if top is None else top
    for key in keys:
        at = f"{where}.{key.name}"
        if key.name in obj:
            val = obj[key.name]
            _check_numbers(val, at, float in key.types, bool(key.entries))
            if float in key.types and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            if not isinstance(val, key.types) or isinstance(val, bool) and bool not in key.types:
                names = "/".join(t.__name__ for t in key.types)
                raise ConfigError(f"{at}: expected {names}, got {type(val).__name__}")
            hi = top[key.hi] if isinstance(key.hi, str) else key.hi
            if (key.lo is not None and val < key.lo or key.gt is not None and val <= key.gt
                    or hi is not None and val > hi):
                lo = "" if key.lo is None else f"{key.lo} <= "
                lo = lo if key.gt is None else f"{key.gt} < "
                hi = "" if hi is None else f" <= {hi}"
                raise ConfigError(f"{at}: expected {lo}{key.name}{hi}, got {reprlib.repr(val)}")
            if key.choices and val not in key.choices:
                raise ConfigError(f"{at}: unknown {key.name} {val!r}")
            for j, item in enumerate(val if key.entries and isinstance(val, list) else []):
                if not any(_fits(item, form) for form in key.entries):
                    names = " or ".join(f"[{', '.join(f)}]" if f else "a number"
                                        for f in key.entries)
                    raise ConfigError(f"{at}[{j}]: expected {names}")
            schema = key.schema if isinstance(val, dict) else None
            if isinstance(schema, _Variants):
                if "kind" not in val:
                    raise ConfigError(f"{at}: expected an object with a 'kind' key")
                if not (isinstance(val["kind"], str) and val["kind"] in schema.kinds):
                    raise ConfigError(f"{at}.kind: unknown {schema.noun} kind {val['kind']!r}")
                schema = [_Key("kind", (str,)), *schema.kinds[val["kind"]]]
            out[key.name] = val if schema is None else _validate(val, schema, at, top)
        elif key.default is _MISSING:
            raise ConfigError(f"{where}: missing required key {key.name!r}")
        elif key.default is not _ABSENT:
            out[key.name] = key.default
    return out


@contextlib.contextmanager
def _located(where: str):
    """Re-raise a library ValueError/TypeError, not LinAlgError, as a ConfigError at ``where``,
    a run of over 40 digits in its message shortened as ``reprlib.repr`` shortens an int."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(re.sub(r"(\d{18})\d{4,}(\d{19})", r"\1...\2", f"{where}: {exc}")) from exc


# ---------------------------------------------------------------------------
# descriptor builders (profiles, pulses, channels, systems)


# each variant's keys besides "kind"; a profile key left out takes its builder's default;
# pulse-design configs and "designed" systems share _DESIGN_KEYS; the descent perturbs a
# unit-norm seed window, so a step above 1 would swamp it
_TOTAL_GAIN = _Key("total_gain", (float,), _ABSENT, lo=0)
_PROFILES = _Variants("profile", {
    "flat_rect": [_Key("max_delay", (int,)), _Key("max_doppler", (int,)), *(
        _Key(name, (int,), _ABSENT) for name in ("min_delay", "min_doppler")), _TOTAL_GAIN],
    "exponential_jakes": [_Key("delay_decay", (float,), gt=0), _Key("max_doppler", (int,), lo=0),
                          _Key("max_delay", (int,), _ABSENT, lo=0), _TOTAL_GAIN],
    "drm_like": [*(_Key(name, (list,), _ABSENT, entries=((),))
                   for name in ("tap_delays", "tap_gains", "doppler_halfwidths")), _TOTAL_GAIN]})
_STEPS = [_Key("time_step", (int,), lo=1), _Key("freq_step", (int,), lo=1)]
_DESIGN_KEYS = [*_STEPS, _Key("profile", (dict,), schema=_PROFILES), _Key("method", (str,),
                "matched_gaussian_tight", choices=("matched_gaussian_tight", "local_search")),
                _Key("n_sweeps", (int,), 1, lo=0), _Key("step", (float,), 0.02, gt=0, hi=1)]
_PULSES = _Variants("pulse", {"gaussian": [_Key("sigma", (float,), None, gt=0)],
                              "rect": [_Key("length", (int,)), _Key("offset", (int,), 0)],
                              "csv": [_Key("path", (str,))]})
_CHANNELS = _Variants("channel", {
    "specular": [_Key("paths", (list,), entries=(("delay", "doppler", "re", "im"),))],
    "time_invariant": [_Key("gains", (list,), entries=((), ("re", "im")))],
    "wssus": [_Key("profile", (dict,), schema=_PROFILES)]})
_CP_OFDM_KEYS = [_Key("n_subcarriers", (int,), lo=1), _Key("cp_len", (int,), lo=0)]
_SYSTEMS = _Variants("system", {"cp_ofdm": _CP_OFDM_KEYS, "designed": _DESIGN_KEYS, "pulse_pair": [
    *_STEPS, _Key("tx", (dict,), schema=_PULSES), _Key("rx", (dict,), schema=_PULSES)]})


def _build_profile(spec: dict, n_dim: int, where: str) -> ScatteringProfile:
    """A preset profile; ``preset_profile`` checks the parameters against N."""
    with _located(where):
        return preset_profile(n_dim=n_dim, **spec)


def _build_pulse(spec: dict, n_dim: int, where: str, base_dir: Path, grid: WHGrid) -> Pulse:
    with _located(where):
        if spec["kind"] == "gaussian":
            return gaussian_pulse(n_dim, grid.time_step, grid.freq_step, spec["sigma"])
        if spec["kind"] == "rect":
            return rect_pulse(n_dim, spec["length"], spec["offset"])
        try:
            pulse = read_pulse_csv(base_dir / spec["path"])
        except OSError as exc:
            raise ConfigError(f"{where}.path: cannot read pulse file: {exc}") from exc
    if pulse.n_dim != n_dim:
        raise ConfigError(f"{where}: pulse file has length {pulse.n_dim}, expected {n_dim}")
    return pulse


def _build_channel(spec: dict, n_dim: int, where: str) -> SpreadingFunction | ScatteringProfile:
    """A deterministic channel's SpreadingFunction, or a WSSUS channel's profile."""
    if spec["kind"] == "wssus":
        return _build_profile(spec["profile"], n_dim, f"{where}.profile")
    if spec["kind"] == "specular":
        with _located(f"{where}.paths"):
            return from_specular([(m, l, complex(re, im)) for m, l, re, im in spec["paths"]],
                                 n_dim)
    with _located(f"{where}.gains"):
        return time_invariant([complex(*g) if isinstance(g, list) else complex(g)
                               for g in spec["gains"]], n_dim)


def _design(spec: dict, n_dim: int, where: str
            ) -> tuple[ScatteringProfile, OFDMConfig, float, dict]:
    """The profile, the designed system, its interference power and its report's descent fields.

    Both methods (``_DESIGN_KEYS`` declares them) run ``interference_descent``:
    ``matched_gaussian_tight`` with no sweeps, ``local_search`` with ``n_sweeps``.
    """
    grid = WHGrid(n_dim, spec["time_step"], spec["freq_step"])
    profile = _build_profile(spec["profile"], n_dim, f"{where}.profile")
    sweeps = spec["n_sweeps"] if spec["method"] == "local_search" else 0
    tx, rx, powers, accepted = interference_descent(profile, grid, sweeps, spec["step"])
    descent = {"descent_powers": powers, "descent_accepted_trials": accepted} \
        if spec["method"] == "local_search" else {}
    return profile, OFDMConfig(grid, tx, rx), powers[-1], descent


def _build_system(spec: dict, n_dim: int, where: str, base_dir: Path) -> OFDMConfig:
    with _located(where):
        if spec["kind"] == "cp_ofdm":
            return cp_ofdm_config(n_dim, spec["n_subcarriers"], spec["cp_len"])
        if spec["kind"] == "designed":
            return _design(spec, n_dim, where)[1]
        grid = WHGrid(n_dim, spec["time_step"], spec["freq_step"])
        tx = _build_pulse(spec["tx"], n_dim, f"{where}.tx", base_dir, grid)
        rx = _build_pulse(spec["rx"], n_dim, f"{where}.rx", base_dir, grid)
        return OFDMConfig(grid, tx, rx)


# ---------------------------------------------------------------------------
# artifact writers


# grid rows per block of a heatmap's two passes, and cells per packed write
_HEATMAP_BLOCK_ROWS = 64
_HEATMAP_CHUNK_CELLS = 4096


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"{path.name}: non-finite value in the report") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _grid_db(values: np.ndarray, peak=None) -> np.ndarray:
    """20 log10(|values| / peak) clamped at ``DB_FLOOR``; ``peak`` defaults to max |values|."""
    mags = np.abs(values)
    peak = mags.max() if peak is None else peak
    if peak == 0.0:
        return np.full(mags.shape, DB_FLOOR)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mags / peak)
    return np.maximum(db, DB_FLOOR)


@functools.cache  # built on first use, not by every process that imports the CLI
def _db_tables() -> tuple[np.ndarray, np.ndarray]:
    """The words "0." ... "40.", "-0." ... "-40." and, shifted by 32 bits, "0000" ... "9999"."""
    heads, digits = (np.array(t, "S4").view("<u4").astype("<u8") for t in (
        [b"%s%d." % (sign, i) for sign in (b"", b"-") for i in range(41)],
        [b"%04d" % i for i in range(10000)]))
    return heads, digits << np.uint64(32)


def _db_words(db: np.ndarray) -> np.ndarray:
    """Each dB value in [-40, 0] as ``%.4f``, NUL-padded in a little-endian 8-byte word.

    rint(-db * 1e4) rounds as printf does: the product (< 2^19) is within 2^-34 of
    exact, and a cell within 1e-6 of a half-integer (an exact tie such as -0.03125)
    takes ``%.4f`` itself.  The sign bit keeps "-0." for a value in (-5e-5, 0].
    """
    heads, digits = _db_tables()
    scaled = -db * 1e4
    rounded = np.rint(scaled)
    units = rounded.astype(np.int64)
    whole = units // 10000  # a quarter of np.divmod's time
    words = heads[whole + 41 * np.signbit(db)] | digits[units - 10000 * whole]
    tie = np.abs(scaled - rounded) > 0.5 - 1e-6
    words[tie] = np.array([b"%.4f" % v for v in db[tie].tolist()], "S8").view("<u8")
    return words


def _axis_words(n_dim: int, centered: bool) -> tuple[list, np.ndarray, np.ndarray]:
    """A heatmap's line starts "\\r\\nx" and, NUL-padded in little-endian words, its x
    words "\\r\\nx," and y words "y,"."""
    axis = centered_index(np.arange(n_dim), n_dim) if centered else np.arange(n_dim)
    starts = [b"\r\n%d" % v for v in axis.tolist()]
    return starts, *(np.array([s[k:] + b"," for s in starts], "S8").view("<u8") for k in (0, 2))


def emit_plotdata(path, n_dim: int, rows, centered: bool) -> None:
    """Write an N x N heatmap as long-format (x, y, value_db) CSV.

    ``rows(start, stop)`` returns the grid rows [start, stop).  Magnitudes are
    normalized to the grid peak and clamped at ``DB_FLOOR`` (40 dB of dynamic
    range).  Axes are ``centered`` (spreading and ambiguity grids) or raw (n, k)
    (transfer grids); x labels a grid row, y a column.  Two passes over blocks
    of ``_HEATMAP_BLOCK_ROWS`` rows: one finds the peak, one scales each block
    as ``_grid_db`` scales the whole grid.  A row wholly at the floor is written
    as one pre-joined floor row; the others, ``_HEATMAP_CHUNK_CELLS`` cells at a
    time, as three 8-byte words a line ("\\r\\nx,", "y,", the value) with their
    NUL padding dropped.  Every value reads as ``%.4f`` (``_db_words``: the floor
    reads -40.0000, a value in (-5e-5, 0) -0.0000); rows end in \\r\\n.  A
    non-finite value raises ArithmeticError and writes nothing.
    """
    path = Path(path)
    blocks = [(start, min(start + _HEATMAP_BLOCK_ROWS, n_dim))
              for start in range(0, n_dim, _HEATMAP_BLOCK_ROWS)]
    peak = np.max([np.abs(rows(*block)).max() for block in blocks],
                  initial=0.0)  # a nan block peak makes it nan
    if not np.isfinite(peak):
        raise ArithmeticError(f"non-finite value in the CSV artifact {path.name}")
    starts, x_words, y_words = _axis_words(n_dim, centered)
    floor_line = [b"", *(b",%s,%.4f" % (s[2:], DB_FLOOR) for s in starts)]  # start.join: a row
    step = max(1, _HEATMAP_CHUNK_CELLS // n_dim)
    words = np.empty((step, n_dim, 3), "<u8")
    words[..., 1] = y_words
    with open(path, "wb") as fh:
        fh.write(b"x,y,value_db")  # each line starts with the previous one's \r\n
        for start, stop in blocks:
            db = _grid_db(rows(start, stop), peak)
            floor = (db == DB_FLOOR).all(axis=1)  # runs of rows at and off the floor, cut by step
            cuts = sorted({*(np.flatnonzero(np.diff(floor)) + 1), *range(step, len(db), step)})
            for i, j in zip([0, *cuts], [*cuts, len(db)]):
                if floor[i]:
                    fh.write(b"".join(x.join(floor_line) for x in starts[start + i:start + j]))
                else:
                    words[:j - i, :, 0] = x_words[start + i:start + j, None]
                    words[:j - i, :, 2] = _db_words(db[i:j])
                    fh.write(words[:j - i].tobytes().translate(None, b"\0"))
        fh.write(b"\r\n")


# ---------------------------------------------------------------------------
# experiments: each runner gets the validated config, N, the staging
# directory and the base directory; it writes its CSVs and returns its report


def _run_spread_analyze(spec: dict, n: int, out: Path, base_dir: Path) -> dict:
    spreading = _build_channel(spec["channel"], n, "config.channel")
    if isinstance(spreading, ScatteringProfile):
        spreading = wssus_sample(spreading, [spec["seed"], 0])
    metrics = spread_metrics(spreading, spec["sample_rate"])
    m_raw, l_raw, vals = spreading.support_cells
    _write_csv(out / "spreading.csv", ["m", "l", "re", "im"],
               [centered_index(m_raw, n), centered_index(l_raw, n), vals.real, vals.imag])
    emit_plotdata(out / "spreading_db.csv", n, functools.partial(_grid_rows, n, spreading.cells),
                  True)
    emit_plotdata(out / "transfer_db.csv", n, _transfer_rows(spreading), False)
    # ||H||_F = sqrt(N) ||S||_F (Parseval in the orthonormal basis M^l D^m / sqrt(N))
    return {**asdict(metrics),
            "channel_frobenius_norm": float(np.sqrt(n) * np.linalg.norm(spreading.cells[2]))}


def _run_frame_analyze(spec: dict, n: int, out: Path, base_dir: Path) -> dict:
    grid = WHGrid(n, spec["time_step"], spec["freq_step"])
    pulse = _build_pulse(spec["pulse"], n, "config.pulse", base_dir, grid)
    bounds, dual, tight = _frame_analysis(pulse, grid)
    is_dual, biorth_defect = check_wexler_raz(pulse, dual, grid)
    t_spread, f_spread = localization_metrics(pulse)
    write_pulse_csv(out / "dual_window.csv", dual)
    write_pulse_csv(out / "tight_window.csv", tight)
    return {**asdict(grid), "redundancy": grid.redundancy, "tf_product": grid.tf_product,
            **asdict(bounds), "wexler_raz_dual": is_dual, "biorthogonality_defect": biorth_defect,
            "time_spread": t_spread, "freq_spread": f_spread}


def _run_pulse_design(spec: dict, n: int, out: Path, base_dir: Path) -> dict:
    if spec["baseline"] is not None:  # before the descent
        with _located("config.baseline"):
            baseline = cp_ofdm_config(n, **spec["baseline"])
    profile, system, power, descent = _design(spec, n, "config")
    report = {"method": spec["method"], **asdict(system.grid),
              "tf_product": system.grid.tf_product,
              "spectral_efficiency": system.spectral_efficiency,
              "biorthogonality_defect": system.biorthogonality_defect,
              "interference_power": power, **descent}
    if spec["baseline"] is not None:
        report["baseline"] = {
            **spec["baseline"],
            "tf_product": baseline.grid.tf_product,
            "interference_power": interference_power(profile, baseline),
        }
    write_pulse_csv(out / "tx_pulse.csv", system.tx_pulse)
    write_pulse_csv(out / "rx_pulse.csv", system.rx_pulse)
    g, gamma = system.tx_pulse.samples, system.rx_pulse.samples
    emit_plotdata(out / "ambiguity_db.csv", n,
                  lambda start, stop: _ambiguity_rows(g, gamma, np.arange(start, stop)), True)
    return report


def _run_ofdm_sim(spec: dict, n: int, out: Path, base_dir: Path) -> dict:
    channel = _build_channel(spec["channel"], n, "config.channel")  # before any design
    system = _build_system(spec["system"], n, "config.system", base_dir)
    energies = simulate_frames(system, channel, spec["n_frames"], spec["seed"],
                               spec["noise_psd"], spec["constellation"])
    _write_csv(out / "frames.csv", ["frame", "gain_energy", "interference_energy",
                                    "noise_energy", "error_vector_energy"],
               [np.arange(spec["n_frames"]), *energies.T])
    report = {"n_frames": spec["n_frames"], "noise_psd": spec["noise_psd"],
              "spectral_efficiency": system.spectral_efficiency,
              "biorthogonality_defect": system.biorthogonality_defect,
              "mean_interference_energy": float(np.mean(energies[:, 1])),
              "max_interference_energy": float(np.max(energies[:, 1]))}
    if isinstance(channel, ScatteringProfile):
        report["predicted_interference_power"] = interference_power(channel, system)
    return report


def _run_identify(spec: dict, n: int, out: Path, base_dir: Path) -> dict:
    rect = isinstance(spec["support"], dict) and spec["support"]
    with _located("config.period"):
        probe = dirac_train(n, spec["period"])
    # from the counts, before any cell is enumerated
    refuse_overspread(rect["n_delay"] * rect["n_doppler"] if rect else
                      len({tuple(cell) for cell in spec["support"]}), n)
    with _located("config.support"):
        support = _canonical_support(centered_rect_support(rect["n_delay"], rect["n_doppler"])
                                     if rect else tuple(map(tuple, spec["support"])), n)
    rng = np.random.default_rng([spec["seed"], 0])
    truth = _complex_normals(rng, (), (len(support),)) / np.sqrt(2.0)
    observation = _cell_filter(*np.array(support).T, n)(probe, truth)  # X truth, X never formed
    if spec["noise_psd"] > 0.0:
        noise_rng = np.random.default_rng([spec["seed"], 1])
        observation = observation + np.sqrt(spec["noise_psd"] / 2.0) * _complex_normals(
            noise_rng, (), (n,))
    result = identify(observation, probe, support)
    _write_csv(out / "estimate.csv", ["m", "l", "re", "im", "true_re", "true_im"],
               [*np.array(result.support).T, result.estimate.real, result.estimate.imag,
                truth.real, truth.imag])
    return {
        "period": spec["period"],
        "n_unknowns": len(support),
        "noise_psd": spec["noise_psd"],
        "residual": result.residual,
        "condition_number": result.condition_number,
        "numerical_rank": result.numerical_rank,
        "smallest_singular_value": result.smallest_singular_value,
        "max_offgrid_ambiguity": offgrid_ambiguity(probe, support),
        "relative_error": float(np.linalg.norm(result.estimate - truth)
                                / np.linalg.norm(truth)),
    }


def _run_capacity(spec: dict, n: int, out: Path, base_dir: Path) -> dict:
    profile = _build_profile(spec["profile"], n, "config.profile")
    sweep_requested = spec["power_budget"] is not None or spec["bandwidths"] is not None
    if spec["snr"] is None and not sweep_requested:
        raise ConfigError("config: need 'snr' and/or 'power_budget' with 'bandwidths'")
    if sweep_requested and (spec["power_budget"] is None or spec["bandwidths"] is None):
        raise ConfigError("config: bandwidth sweeps need both 'power_budget' and 'bandwidths'")
    grid = spec["bandwidths"]
    if isinstance(grid, dict):
        grid = _SPACINGS[grid["spacing"]](grid["min"], grid["max"], grid["count"])
    report: dict = {"delay_cell": spec["delay_cell"]}
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
        CapacityQuery(profile, spec["power_budget"], spec["delay_cell"], spec["doppler_cell"])
        with _located("config.bandwidths"):  # the query above checked the cells, not a bandwidth
            sweep = bandwidth_sweep(profile, spec["power_budget"], grid,
                                    spec["delay_cell"], spec["doppler_cell"])
        _write_csv(out / "sweep.csv", ["bandwidth", "snr", "capacity", "penalty", "rate"],
                   [sweep.bandwidths, sweep.snrs, sweep.capacities, sweep.penalties,
                    sweep.rates])
        _write_csv(out / "capacity_curve_db.csv", ["x", "y", "value_db"],  # rates <= 0: floor
                   [sweep.bandwidths, sweep.rates, _grid_db(np.maximum(sweep.rates, 0.0))])
        report["sweep"] = {
            "power_budget": spec["power_budget"],
            "best_bandwidth": sweep.best_bandwidth,
            "best_rate": float(sweep.rates[sweep.best_index]),
            "interior_maximum": sweep.has_interior_maximum,
        }
    return report


_SPACINGS = {"log": np.geomspace, "linear": np.linspace}  # a bandwidth grid's spacings
# kind -> (runner, report file, config keys between "n_dim" and "seed")
_RUNNERS = {
    "spread-analyze": (_run_spread_analyze, "spread_report.json", [
        _Key("channel", (dict,), schema=_CHANNELS), _Key("sample_rate", (float,), None, gt=0)]),
    "frame-analyze": (_run_frame_analyze, "frame_report.json", [
        *_STEPS, _Key("pulse", (dict,), schema=_PULSES)]),
    "pulse-design": (_run_pulse_design, "design_report.json", [
        _Key("baseline", (dict,), None, schema=_CP_OFDM_KEYS), *_DESIGN_KEYS]),
    "ofdm-sim": (_run_ofdm_sim, "sim_report.json", [
        _Key("channel", (dict,), schema=_CHANNELS), _Key("system", (dict,), schema=_SYSTEMS),
        _Key("n_frames", (int,), 1, lo=1, hi=_MAX_COUNT), _Key("noise_psd", (float,), 0.0, lo=0),
        _Key("constellation", (str,), "qpsk", choices=_CONSTELLATIONS)]),
    "identify": (_run_identify, "identify_report.json", [
        _Key("period", (int,)), _Key("support", (dict, list), entries=(("delay", "doppler"),),
                                     schema=[_Key(name, (int,), lo=1, hi="n_dim")
                                             for name in ("n_delay", "n_doppler")]),
        _Key("noise_psd", (float,), 0.0, lo=0)]),
    "capacity": (_run_capacity, "capacity_report.json", [
        _Key("profile", (dict,), schema=_PROFILES), _Key("snr", (float,), None, gt=0),
        _Key("power_budget", (float,), None, gt=0),
        _Key("bandwidths", (list, dict), None, entries=((),), schema=[
            _Key("min", (float,), gt=0), _Key("max", (float,)),
            _Key("count", (int,), lo=2, hi=_MAX_COUNT),
            _Key("spacing", (str,), "log", choices=tuple(_SPACINGS))]),
        _Key("delay_cell", (float,), 1.0, gt=0), _Key("doppler_cell", (float,), None, gt=0)]),
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
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer literal past the int-string limit
        value = raw
    except RecursionError as exc:
        raise ConfigError(f"--set {dotted}: value nests too deeply") from exc
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
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

    The whole config is checked before ``out_dir`` is created.  ``seed`` overrides the
    config seed; ``base_dir`` anchors relative paths referenced by the config (defaults to
    the working directory).  Files are staged in ``out_dir`` and moved into it only when the
    whole run succeeds; a failed run removes each directory it created that stays empty.
    Numpy warnings are silenced, as non-finite results raise ArithmeticError.
    """
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {list(KINDS)}")
    cfg = dict(config)
    declared = cfg.get("kind")
    if declared is not None and declared != kind:
        raise ConfigError(f"config.kind: declared {declared!r} but {kind!r} was requested")
    if seed is not None:
        cfg["seed"] = int(seed)
    runner, report_name, keys = _RUNNERS[kind]
    started = time.monotonic()
    with _located("config"):  # the whole config, before anything is created
        spec = _validate(cfg, [_Key("kind", (str,), kind),
                               _Key("n_dim", (int,), lo=1, hi=_MAX_N_DIM), *keys,
                               _Key("seed", (int,), 0, lo=0)], "config")
    out = Path(out_dir)
    created = [d for d in (out, *out.parents) if not os.path.lexists(d)]  # deepest first
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    staging = manifest = None
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        except OSError as exc:
            raise ConfigError(f"--out: cannot create the output directory: {exc}") from exc
        with np.errstate(all="ignore"), _located("config"):
            report = runner(spec, spec["n_dim"], staging, base)
            _write_json(staging / report_name, {"n_dim": spec["n_dim"], **report})
        outputs = {path.name: _sha256(path) for path in sorted(staging.iterdir())}
        manifest = {
            "kind": kind,
            "tool_version": __version__,
            "seed": cfg.get("seed", 0),
            "config": cfg,
            "wall_time_seconds": time.monotonic() - started,
            "outputs": outputs,
        }
        _write_json(staging / "manifest.json", manifest)
        for name in [*outputs, "manifest.json"]:
            os.replace(staging / name, out / name)
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for directory in created if manifest is None else []:
            with contextlib.suppress(OSError):  # one that something else wrote into stays
                directory.rmdir()
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfcomm",
        description="Deterministic time-frequency channel/modem experiments")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        cmd = sub.add_parser(kind, help=f"run the {kind} experiment")
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
            cfg = json.loads(config_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config: expected an object, got {type(cfg).__name__}")
        for assignment in args.overrides:
            _apply_override(cfg, assignment)
        run_experiment(args.kind, cfg, out_dir, seed=args.seed,
                       base_dir=config_path.resolve().parent)
    except (NotAFrameError, IdentifiabilityError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"tfcomm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's message names the refused allocation
        print(f"tfcomm: out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"tfcomm: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
