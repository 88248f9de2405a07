"""Deterministic and random doubly dispersive channel constructions.

Deterministic builders place spreading mass directly on the delay-Doppler
grid: specular multipath sums, time-invariant tap channels (circulant),
purely frequency-dispersive multipliers (diagonal), and oscillator
impairment models.  The random model is the discrete WSSUS channel: every
cell of the scattering-profile support gets an independent zero-mean complex
Gaussian coefficient whose variance is read off the profile, which makes the
wide-sense stationarity of the induced time-frequency transfer exact rather
than asymptotic.  Cells outside the support carry no mass and draw nothing,
so a draw costs O(K) normals for K support cells, not O(N^2).  A scattering
profile is its K support cells (delay, Doppler, mass C > 0) and a spreading
function its nonzero cells; the presets, the builders and the draws emit
cells, never an N x N grid.  The profile's 2-D Fourier dual is the
time-frequency correlation grid of the second-order statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tf_core import SpreadingFunction, _cell_store, _centered_range, _check_dim, _frozen, \
    _grid_rows, as_samples, centered_index, dd_to_tf_grid, tf_to_dd_grid

__all__ = [
    "ScatteringProfile", "TFCorrelation", "from_specular", "time_invariant",
    "frequency_dispersive", "oscillator_impairment", "wssus_sample", "tf_correlation",
    "scattering_from_correlation", "preset_profile", "flat_rect_profile",
    "exponential_jakes_profile", "drm_like_profile", "jakes_doppler_masses",
]


_DUAL_ATOL = 1e-10  # per-cell rounding slack when inverting a valid dual


def _check_on_grid(value, name: str, n_dim: int) -> int:
    if int(value) != value:
        raise ValueError(f"{name} must be an on-grid integer, got {value!r}")
    lo, hi = _centered_range(n_dim)
    if not lo <= int(value) <= hi:
        raise ValueError(f"{name} {value} outside centered range [{lo}, {hi}] for N = {n_dim}")
    return int(value)


@dataclass(frozen=True, eq=False, init=False)
class ScatteringProfile:
    """Second moments C > 0 of a WSSUS channel, stored as its K support cells.

    ``support_cells`` is (delays, Dopplers, C), row-major and read-only.
    ``ScatteringProfile(n_dim, grid)`` keeps the nonzero cells of a dense grid.
    """

    n_dim: int
    support_cells: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __init__(self, n_dim: int, intensities):
        n, c = _check_dim(n_dim), np.asarray(intensities, dtype=float)
        if c.shape != (n, n):
            raise ValueError(f"intensity grid must be {n}x{n}, got shape {c.shape}")
        self.__dict__.update(vars(self._from_cells(n, *np.nonzero(c), c[c != 0])))

    @classmethod
    def _from_cells(cls, n_dim: int, delays, dopplers, masses) -> "ScatteringProfile":
        """Nonnegative masses at grid indices in [0, N), repeated cells added in order."""
        if np.min(masses, initial=0.0) < 0:
            raise ValueError("intensities must be nonnegative")
        profile = object.__new__(cls)
        profile.__dict__.update(n_dim=_check_dim(n_dim), support_cells=_cell_store(
            n_dim, delays, dopplers, masses, float, "intensities"))
        return profile

    @cached_property
    def intensities(self) -> np.ndarray:
        """The dense N x N grid, built on first read; read-only."""
        return _frozen(_grid_rows(self.n_dim, self.support_cells, 0, self.n_dim))[0]

    @property
    def total_gain(self) -> float:
        return float(self.support_cells[2].sum())

    @property
    def support_count(self) -> int:
        return int(self.support_cells[2].size)

    def support_extents(self) -> tuple[int, int]:
        """Largest |centered delay| and |centered Doppler| carrying mass."""
        rows, cols, _ = self.support_cells
        return (int(np.abs(centered_index(rows, self.n_dim)).max(initial=0)),
                int(np.abs(centered_index(cols, self.n_dim)).max(initial=0)))

    def scaled(self, total_gain: float) -> "ScatteringProfile":
        current = self.total_gain
        if current == 0.0:
            raise ValueError("cannot rescale an all-zero profile")
        if not 0 <= total_gain < np.inf:
            raise ValueError(f"total_gain must be nonnegative and finite, got {total_gain}")
        rows, cols, masses = self.support_cells
        return self._from_cells(self.n_dim, rows, cols, masses * (total_gain / current))


@dataclass(frozen=True, eq=False)
class TFCorrelation:
    """Correlation grid R[dn, dk] of the transfer values of a WSSUS channel."""

    n_dim: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = int(self.n_dim)
        if v.shape != (n, n):
            raise ValueError(f"correlation grid must be {n}x{n}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite entries in values")
        object.__setattr__(self, "n_dim", n)
        object.__setattr__(self, "values", v)

    @property
    def total_gain(self) -> float:
        return float(self.values[0, 0].real)


def from_specular(paths, n_dim: int) -> SpreadingFunction:
    """Superpose point scatterers: each path contributes gain at (delay, Doppler).

    ``paths`` is an iterable of (delay, doppler, gain) triples; delays and
    Dopplers must be integers inside the centered grid.  Each validated
    gain is added into its cell, so coinciding paths add coherently.
    """
    delays, dopplers, gains = [], [], []
    for delay, doppler, gain in paths:
        delays.append(_check_on_grid(delay, "path delay", n_dim) % n_dim)
        dopplers.append(_check_on_grid(doppler, "path doppler", n_dim) % n_dim)
        gains.append(complex(gain))
    if not np.isfinite(gains).all():
        raise ValueError("non-finite path gains")
    return SpreadingFunction.from_cells(n_dim, delays, dopplers, gains)


def time_invariant(gains, n_dim: int, delays=None) -> SpreadingFunction:
    """Tap channel with all mass at Doppler zero; synthesizes to a circulant.

    Default tap placement is causal: gains[j] sits at delay j.
    """
    g = as_samples(np.ravel(gains), "gains")
    if delays is None:
        delays = np.arange(g.size)
    delays = np.asarray(delays)
    if delays.shape != g.shape:
        raise ValueError("delays and gains must have matching lengths")
    return from_specular(zip(delays.tolist(), [0] * g.size, g.tolist()), n_dim)


def frequency_dispersive(mod_signal) -> SpreadingFunction:
    """Multiplicative channel y[i] = m[i] x[i]; all mass at delay zero."""
    m = as_samples(np.ravel(mod_signal), "mod_signal")
    return SpreadingFunction.from_cells(m.size, np.zeros(m.size), np.arange(m.size), np.fft.ifft(m))


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
    psi = as_samples(np.ravel(phase_noise_spectrum), "phase_noise_spectrum")
    if psi.size != n_dim:
        raise ValueError(f"spectrum length {psi.size} does not match N = {n_dim}")
    m = _check_on_grid(timing_offset, "timing offset", n_dim)
    f = _check_on_grid(freq_offset, "frequency offset", n_dim)
    return SpreadingFunction.from_cells(n_dim, np.full(n_dim, m % n_dim), np.arange(n_dim),
                                        psi[(f - np.arange(n_dim)) % n_dim])


def _complex_normals(rng: np.random.Generator, lead: tuple, shape: tuple) -> np.ndarray:
    """re + 1j*im of shape ``lead`` + ``shape`` from one ``lead`` + (2,) + ``shape`` draw: per
    lead index the stream holds all the real parts, then all the imaginary parts."""
    re, im = np.moveaxis(rng.standard_normal((*lead, 2, *shape)), len(lead), 0)
    return re + 1j * im


def _support_draw(amplitudes: np.ndarray, rng: np.random.Generator, lead=()) -> np.ndarray:
    """CN(0, C) coefficients on K support cells, given their ``amplitudes`` sqrt(C).

    One ``_complex_normals`` draw of ``lead`` + (K,) (its stream layout).
    Callers take the square roots once per profile, not once per draw.
    """
    return amplitudes * _complex_normals(rng, lead, (amplitudes.size,)) / np.sqrt(2.0)


def wssus_sample(profile: ScatteringProfile, seed) -> SpreadingFunction:
    """One channel draw: independent CN(0, C[m, l]) spreading coefficients.

    Only the K cells of the profile support are drawn (2K normals from the
    stream); every other cell is exactly zero.  ``seed`` feeds numpy's
    default_rng, so ints, SeedSequence-style lists, and Generator instances
    all work.  Monte Carlo substreams: pass [base_seed, draw_index] per draw;
    every draw is then reproducible in isolation and draws never share a
    stream.
    """
    rows, cols, masses = profile.support_cells
    return SpreadingFunction.from_cells(profile.n_dim, rows, cols,
                                        _support_draw(np.sqrt(masses), np.random.default_rng(seed)))


def tf_correlation(profile: ScatteringProfile) -> TFCorrelation:
    """Second-order dual of the profile on the time-frequency grid.

    R[dn, dk] = sum_{m,l} C[m, l] exp(-2j*pi*(dk*m - dn*l)/N); in particular
    R[0, 0] is the total gain.  For a WSSUS draw, E{L[n, k] L*[n-dn, k-dk]}
    equals R[dn, dk] for every anchor (n, k).
    """
    return TFCorrelation(profile.n_dim, dd_to_tf_grid(profile.intensities.astype(complex)))


def scattering_from_correlation(corr: TFCorrelation) -> ScatteringProfile:
    """Invert :func:`tf_correlation`; rejects grids that are not valid duals."""
    c = tf_to_dd_grid(corr.values)
    if np.abs(c.imag).max(initial=0.0) > _DUAL_ATOL or c.real.min(initial=0.0) < -_DUAL_ATOL:
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
    rows = np.array(delays, dtype=int) % n_dim  # the builders checked the extents
    cols = np.array(dopplers, dtype=int) % n_dim
    return ScatteringProfile._from_cells(
        n_dim, np.repeat(rows, cols.size), np.tile(cols, rows.size),
        np.outer(delay_weights, doppler_weights).ravel()).scaled(total_gain)


def flat_rect_profile(n_dim: int, max_delay: int, max_doppler: int,
                      min_delay: int | None = None, min_doppler: int | None = None,
                      total_gain: float = 1.0) -> ScatteringProfile:
    """Uniform mass on a delay-Doppler rectangle, centered by default."""
    max_delay = _check_on_grid(max_delay, "max_delay", n_dim)
    max_doppler = _check_on_grid(max_doppler, "max_doppler", n_dim)
    min_delay = _check_on_grid(-max_delay if min_delay is None else min_delay,
                               "-max_delay" if min_delay is None else "min_delay", n_dim)
    min_doppler = _check_on_grid(-max_doppler if min_doppler is None else min_doppler,
                                 "-max_doppler" if min_doppler is None else "min_doppler", n_dim)
    if min_delay > max_delay or min_doppler > max_doppler:
        raise ValueError("empty support rectangle")
    delays = range(min_delay, max_delay + 1)
    dopplers = range(min_doppler, max_doppler + 1)
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
    if not 0 < delay_decay < np.inf:
        raise ValueError("delay_decay must be positive and finite")
    if max_delay is None:
        max_delay = min((n_dim - 1) // 2, max(1.0, np.ceil(6.0 * delay_decay)))
    max_delay = _check_on_grid(max_delay, "max_delay", n_dim)
    max_doppler = _check_on_grid(max_doppler, "max_doppler", n_dim)
    _check_on_grid(-max_doppler, "-max_doppler", n_dim)
    delays = range(0, max_delay + 1)
    delay_weights = np.exp(-np.arange(len(delays)) / delay_decay)
    dopplers = range(-max_doppler, max_doppler + 1)
    return _place_centered(n_dim, delays, delay_weights,
                           dopplers, jakes_doppler_masses(max_doppler), total_gain)


DRM_TAP_GAINS = (1.0, 0.7, 0.5, 0.25)


def drm_like_profile(n_dim: int, tap_delays=(0, 1, 2, 3), tap_gains=DRM_TAP_GAINS,
                     doppler_halfwidths=(0, 1, 1, 2),
                     total_gain: float = 1.0) -> ScatteringProfile:
    """Qualitative shortwave-style preset: few taps, later taps more Doppler-spread.

    Not calibrated to any broadcast standard; intended for demo plots where
    energy should sit in a small corner of the delay-Doppler plane.
    """
    tap_delays, tap_gains, doppler_halfwidths = map(tuple, (tap_delays, tap_gains,
                                                            doppler_halfwidths))
    if not len(tap_delays) == len(tap_gains) == len(doppler_halfwidths):
        raise ValueError("tap parameter tuples must have equal lengths")
    cells = []  # (delay, Doppler, mass) rows, repeated taps added in order
    for delay, gain, halfwidth in zip(tap_delays, tap_gains, doppler_halfwidths):
        if not 0 <= gain < np.inf:
            raise ValueError("tap gains must be nonnegative and finite")
        row = _check_on_grid(delay, "tap_delays", n_dim) % n_dim
        halfwidth = _check_on_grid(halfwidth, "doppler_halfwidths", n_dim)
        _check_on_grid(-halfwidth, "-doppler_halfwidths", n_dim)
        masses = gain * jakes_doppler_masses(halfwidth)
        for offset, mass in zip(range(-halfwidth, halfwidth + 1), masses):
            cells.append((row, offset % n_dim, mass))
    return ScatteringProfile._from_cells(n_dim, *np.reshape(cells, (-1, 3)).T).scaled(total_gain)


_PRESETS = {
    "flat_rect": flat_rect_profile,
    "exponential_jakes": exponential_jakes_profile,
    "drm_like": drm_like_profile,
}


def preset_profile(kind: str, n_dim: int, **params) -> ScatteringProfile:
    """Dispatch to a named profile builder; unknown kinds or keys are rejected."""
    if kind not in _PRESETS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {sorted(_PRESETS)}")
    return _PRESETS[kind](n_dim, **params)
