"""Deterministic and random doubly dispersive channel constructions.

Deterministic builders place spreading mass directly on the delay-Doppler
grid: specular multipath sums, time-invariant tap channels (circulant),
purely frequency-dispersive multipliers (diagonal), and oscillator
impairment models.  The random model is the discrete WSSUS channel: every
cell of the scattering-profile support gets an independent zero-mean complex
Gaussian coefficient whose variance is read off the profile, which makes the
wide-sense stationarity of the induced time-frequency transfer exact rather
than asymptotic.  Cells outside the support carry no mass and draw nothing,
so a draw costs O(K) normals for K support cells, not O(N^2).  Second-order
statistics live in the scattering profile and its 2-D Fourier dual, the
time-frequency correlation grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .tf_core import SpreadingFunction, centered_index, dd_to_tf_grid, tf_to_dd_grid

__all__ = [
    "ScatteringProfile",
    "TFCorrelation",
    "SpecularPath",
    "from_specular",
    "time_invariant",
    "frequency_dispersive",
    "oscillator_impairment",
    "wssus_sample",
    "tf_correlation",
    "scattering_from_correlation",
    "preset_profile",
    "flat_rect_profile",
    "exponential_jakes_profile",
    "drm_like_profile",
    "jakes_doppler_masses",
    "write_profile_csv",
    "read_profile_csv",
]


def _centered_bounds(n_dim: int) -> tuple[int, int]:
    lo = -((n_dim - 1) // 2)
    return lo, lo + n_dim - 1


def _check_on_grid(value, name: str, n_dim: int) -> int:
    if int(value) != value:
        raise ValueError(f"{name} must be an on-grid integer, got {value!r}")
    lo, hi = _centered_bounds(n_dim)
    if not lo <= int(value) <= hi:
        raise ValueError(f"{name} {value} outside centered range [{lo}, {hi}] for N = {n_dim}")
    return int(value)


@dataclass(frozen=True)
class ScatteringProfile:
    """Nonnegative second-moment grid C[m, l] of a WSSUS channel.

    The grid is a read-only copy, so the cached support cannot go stale.
    """

    n_dim: int
    intensities: np.ndarray

    def __post_init__(self):
        c = np.array(self.intensities, dtype=float)
        n = int(self.n_dim)
        if n < 1:
            raise ValueError("dimension must be positive")
        if c.shape != (n, n):
            raise ValueError(f"intensity grid must be {n}x{n}, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("intensity grid contains non-finite entries")
        if c.min(initial=0.0) < 0:
            raise ValueError("intensities must be nonnegative")
        c.flags.writeable = False
        object.__setattr__(self, "n_dim", n)
        object.__setattr__(self, "intensities", c)

    @cached_property
    def support_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(delays, Dopplers, sqrt(C)) of the K cells carrying mass, row-major."""
        rows, cols = np.nonzero(self.intensities)
        return rows, cols, np.sqrt(self.intensities[rows, cols])

    @property
    def total_gain(self) -> float:
        return float(self.intensities.sum())

    @property
    def support_count(self) -> int:
        return int(self.support_cells[0].size)

    @property
    def normalized_spread(self) -> float:
        """Support cells per dimension; the discrete underspread measure."""
        return self.support_count / self.n_dim

    def support_extents(self) -> tuple[int, int]:
        """Largest |centered delay| and |centered Doppler| carrying mass."""
        rows, cols, _ = self.support_cells
        if rows.size == 0:
            return 0, 0
        return (int(np.abs(centered_index(rows, self.n_dim)).max()),
                int(np.abs(centered_index(cols, self.n_dim)).max()))

    def scaled(self, total_gain: float) -> "ScatteringProfile":
        current = self.total_gain
        if current == 0.0:
            raise ValueError("cannot rescale an all-zero profile")
        return ScatteringProfile(self.n_dim, self.intensities * (total_gain / current))


@dataclass(frozen=True)
class TFCorrelation:
    """Correlation grid R[dn, dk] of the transfer values of a WSSUS channel."""

    n_dim: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = int(self.n_dim)
        if v.shape != (n, n):
            raise ValueError(f"correlation grid must be {n}x{n}, got shape {v.shape}")
        object.__setattr__(self, "n_dim", n)
        object.__setattr__(self, "values", v)

    @property
    def total_gain(self) -> float:
        return float(self.values[0, 0].real)


@dataclass(frozen=True)
class SpecularPath:
    """One discrete propagation path: integer delay/Doppler and complex gain."""

    delay: int
    doppler: int
    gain: complex


def _sparse_spreading(n_dim: int, cells: dict[tuple[int, int], complex]) -> SpreadingFunction:
    coeffs = np.zeros((n_dim, n_dim), dtype=complex)
    for (m, l), gain in cells.items():
        coeffs[m % n_dim, l % n_dim] += gain
    return SpreadingFunction(coeffs)


def from_specular(paths, n_dim: int) -> SpreadingFunction:
    """Superpose point scatterers: each path contributes gain at (delay, Doppler).

    ``paths`` is an iterable of SpecularPath or (delay, doppler, gain)
    triples; delays and Dopplers must be integers inside the centered grid.
    Coinciding paths add coherently.
    """
    cells: dict[tuple[int, int], complex] = {}
    for path in paths:
        if isinstance(path, SpecularPath):
            delay, doppler, gain = path.delay, path.doppler, path.gain
        else:
            delay, doppler, gain = path
        m = _check_on_grid(delay, "path delay", n_dim)
        l = _check_on_grid(doppler, "path doppler", n_dim)
        cells[(m, l)] = cells.get((m, l), 0.0) + complex(gain)
    return _sparse_spreading(n_dim, cells)


def time_invariant(gains, n_dim: int, delays=None) -> SpreadingFunction:
    """Tap channel with all mass at Doppler zero; synthesizes to a circulant.

    Default tap placement is causal: gains[j] sits at delay j.
    """
    g = np.asarray(gains, dtype=complex).ravel()
    if delays is None:
        delays = np.arange(g.size)
    delays = np.asarray(delays)
    if delays.shape != g.shape:
        raise ValueError("delays and gains must have matching lengths")
    return from_specular(zip(delays.tolist(), [0] * g.size, g.tolist()), n_dim)


def frequency_dispersive(mod_signal) -> SpreadingFunction:
    """Multiplicative channel y[i] = m[i] x[i]; all mass at delay zero."""
    m = np.asarray(mod_signal, dtype=complex).ravel()
    n = m.size
    if n == 0:
        raise ValueError("modulating signal must be nonempty")
    coeffs = np.zeros((n, n), dtype=complex)
    coeffs[0, :] = np.fft.ifft(m)
    return SpreadingFunction(coeffs)


def oscillator_impairment(freq_offset: int, timing_offset: int,
                          phase_noise_spectrum, n_dim: int) -> SpreadingFunction:
    """Receiver-chain impairment: one delay, a Doppler profile shifted in frequency.

    The output superposes sinusoids weighted by the spectrum sampled at
    psi[(nu + freq_offset) mod N], so a point spectrum with offset f yields
    a pure derotation by f bins.  Because the grid basis modulation runs
    with a negative sign, the stored coefficient at Doppler l is
    psi[(freq_offset - l) mod N].  Any carrier phase constant is expected
    to be folded into the spectrum by the caller.
    """
    psi = np.asarray(phase_noise_spectrum, dtype=complex).ravel()
    if psi.size != n_dim:
        raise ValueError(f"spectrum length {psi.size} does not match N = {n_dim}")
    m = _check_on_grid(timing_offset, "timing offset", n_dim)
    f = _check_on_grid(freq_offset, "frequency offset", n_dim)
    coeffs = np.zeros((n_dim, n_dim), dtype=complex)
    coeffs[m % n_dim, :] = psi[(f - np.arange(n_dim)) % n_dim]
    return SpreadingFunction(coeffs)


def _support_draw(profile: ScatteringProfile, rng: np.random.Generator) -> np.ndarray:
    """CN(0, C) coefficients on the K support cells, in ``support_cells`` order.

    Consumes exactly 2K standard normals: K real parts, then K imaginary parts.
    """
    amplitudes = profile.support_cells[2]
    k = amplitudes.size
    return amplitudes * (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)


def wssus_sample(profile: ScatteringProfile, seed) -> SpreadingFunction:
    """One channel draw: independent CN(0, C[m, l]) spreading coefficients.

    Only the K cells of the profile support are drawn (2K normals from the
    stream); every other cell is exactly zero.  ``seed`` feeds numpy's
    default_rng, so ints, SeedSequence-style lists, and Generator instances
    all work.  Monte Carlo substreams: pass [base_seed, draw_index] per draw;
    every draw is then reproducible in isolation and draws never share a
    stream.
    """
    rows, cols, _ = profile.support_cells
    coeffs = np.zeros((profile.n_dim, profile.n_dim), dtype=complex)
    coeffs[rows, cols] = _support_draw(profile, np.random.default_rng(seed))
    return SpreadingFunction(coeffs)


def tf_correlation(profile: ScatteringProfile) -> TFCorrelation:
    """Second-order dual of the profile on the time-frequency grid.

    R[dn, dk] = sum_{m,l} C[m, l] exp(-2j*pi*(dk*m - dn*l)/N); in particular
    R[0, 0] is the total gain.  For a WSSUS draw, E{L[n, k] L*[n-dn, k-dk]}
    equals R[dn, dk] for every anchor (n, k).
    """
    return TFCorrelation(profile.n_dim, dd_to_tf_grid(profile.intensities.astype(complex)))


def scattering_from_correlation(corr: TFCorrelation, atol: float = 1e-10) -> ScatteringProfile:
    """Invert :func:`tf_correlation`; rejects grids that are not valid duals."""
    c = tf_to_dd_grid(corr.values)
    if np.abs(c.imag).max(initial=0.0) > atol or c.real.min(initial=0.0) < -atol:
        raise ValueError("correlation grid is not the dual of a nonnegative profile")
    return ScatteringProfile(corr.n_dim, np.maximum(c.real, 0.0))


def jakes_doppler_masses(max_doppler: int) -> np.ndarray:
    """Per-bin masses of the classical U-shaped Doppler density.

    Bin l in [-max_doppler, max_doppler] receives the density mass between
    the bin edges l -+ 1/2, with the continuous support radius placed at
    max_doppler + 1/2 so the edge bins stay finite.  Returned in centered
    order (index 0 is bin -max_doppler); sums to 1.
    """
    if int(max_doppler) != max_doppler or max_doppler < 0:
        raise ValueError(f"max_doppler must be a nonnegative integer, got {max_doppler}")
    radius = max_doppler + 0.5
    edges = np.arange(-max_doppler, max_doppler + 2) - 0.5
    cdf = np.arcsin(np.clip(edges / radius, -1.0, 1.0)) / np.pi
    return np.diff(cdf) + 0.0


def _place_centered(n_dim: int, delays, delay_weights, dopplers, doppler_weights,
                    total_gain: float) -> ScatteringProfile:
    grid = np.zeros((n_dim, n_dim))
    rows = np.array([_check_on_grid(m, "delay", n_dim) % n_dim for m in delays])
    cols = np.array([_check_on_grid(l, "doppler", n_dim) % n_dim for l in dopplers])
    grid[np.ix_(rows, cols)] = np.outer(delay_weights, doppler_weights)
    return ScatteringProfile(n_dim, grid).scaled(total_gain)


def flat_rect_profile(n_dim: int, max_delay: int, max_doppler: int,
                      min_delay: int | None = None, min_doppler: int | None = None,
                      total_gain: float = 1.0) -> ScatteringProfile:
    """Uniform mass on a delay-Doppler rectangle, centered by default."""
    if min_delay is None:
        min_delay = -max_delay
    if min_doppler is None:
        min_doppler = -max_doppler
    if min_delay > max_delay or min_doppler > max_doppler:
        raise ValueError("empty support rectangle")
    delays = range(int(min_delay), int(max_delay) + 1)
    dopplers = range(int(min_doppler), int(max_doppler) + 1)
    return _place_centered(n_dim, delays, np.ones(len(delays)),
                           dopplers, np.ones(len(dopplers)), total_gain)


def exponential_jakes_profile(n_dim: int, delay_decay: float, max_doppler: int,
                              max_delay: int | None = None,
                              total_gain: float = 1.0) -> ScatteringProfile:
    """Causal exponential delay power profile crossed with a U-shaped Doppler law.

    ``delay_decay`` is the 1/e constant in samples; the delay axis is
    truncated at ``max_delay`` (default: six decay constants, capped at the
    centered-grid edge).
    """
    if delay_decay <= 0:
        raise ValueError("delay_decay must be positive")
    if max_delay is None:
        max_delay = min((n_dim - 1) // 2, max(1, int(np.ceil(6.0 * delay_decay))))
    delays = range(0, int(max_delay) + 1)
    delay_weights = np.exp(-np.arange(len(delays)) / delay_decay)
    dopplers = range(-int(max_doppler), int(max_doppler) + 1)
    return _place_centered(n_dim, delays, delay_weights,
                           dopplers, jakes_doppler_masses(int(max_doppler)), total_gain)


DRM_TAP_GAINS = (1.0, 0.7, 0.5, 0.25)


def drm_like_profile(n_dim: int, tap_delays=(0, 1, 2, 3), tap_gains=DRM_TAP_GAINS,
                     doppler_halfwidths=(0, 1, 1, 2),
                     total_gain: float = 1.0) -> ScatteringProfile:
    """Qualitative shortwave-style preset: few taps, later taps more Doppler-spread.

    Not calibrated to any broadcast standard; intended for demo plots where
    energy should sit in a small corner of the delay-Doppler plane.
    """
    tap_delays = tuple(tap_delays)
    tap_gains = tuple(tap_gains)
    doppler_halfwidths = tuple(doppler_halfwidths)
    if not len(tap_delays) == len(tap_gains) == len(doppler_halfwidths):
        raise ValueError("tap parameter tuples must have equal lengths")
    grid = np.zeros((n_dim, n_dim))
    for delay, gain, halfwidth in zip(tap_delays, tap_gains, doppler_halfwidths):
        if gain < 0:
            raise ValueError("tap gains must be nonnegative")
        row = _check_on_grid(delay, "tap delay", n_dim) % n_dim
        masses = gain * jakes_doppler_masses(int(halfwidth))
        for offset, mass in zip(range(-int(halfwidth), int(halfwidth) + 1), masses):
            grid[row, _check_on_grid(offset, "doppler", n_dim) % n_dim] += mass
    return ScatteringProfile(n_dim, grid).scaled(total_gain)


_PRESETS = {
    "flat_rect": flat_rect_profile,
    "exponential_jakes": exponential_jakes_profile,
    "drm_like": drm_like_profile,
}


def preset_profile(kind: str, n_dim: int, **params) -> ScatteringProfile:
    """Dispatch to a named profile builder; unknown kinds or keys are rejected."""
    try:
        builder = _PRESETS[kind]
    except KeyError:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {sorted(_PRESETS)}") from None
    return builder(n_dim, **params)


def write_profile_csv(path, profile: ScatteringProfile) -> None:
    """Export nonzero cells as rows (m, l, intensity) with centered indices."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "l", "intensity"])
        for row, col in np.argwhere(profile.intensities):
            writer.writerow([int(centered_index(row, profile.n_dim)),
                             int(centered_index(col, profile.n_dim)),
                             repr(float(profile.intensities[row, col]))])


def read_profile_csv(path, n_dim: int) -> ScatteringProfile:
    """Read a profile exported by :func:`write_profile_csv`."""
    grid = np.zeros((n_dim, n_dim))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["m", "l", "intensity"]:
            raise ValueError(f"{Path(path).name}: expected header m,l,intensity")
        for row in reader:
            m = _check_on_grid(int(row["m"]), "delay", n_dim)
            l = _check_on_grid(int(row["l"]), "doppler", n_dim)
            grid[m % n_dim, l % n_dim] = float(row["intensity"])
    return ScatteringProfile(n_dim, grid)
