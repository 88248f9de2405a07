"""Weyl-Heisenberg (Gabor) systems on the cyclic group of order N.

A system is generated by translating a window along a separable lattice:
g_{n,k} = M^(-k*b) D^(n*a) g, i.e. g_{n,k}[i] = g[(i - n*a) mod N] *
exp(2j*pi*k*b*i/N) with a | N and b | N, built by ``tf_core.tf_shift``.
Summing over the modulations leaves sum_{n,k} g_{n,k} gamma_{n,k}^H nonzero
only where i = j mod N/b (Walnut's representation): N/b b x b blocks, one
per residue class of samples.  The frame operator S (gamma = g) commutes
with D^a, so with d = gcd(N/b, a) the blocks r, r + d, r + 2d, ... are one
orbit, one matrix up to a cyclic shift (``_walnut_orbits``).  One batched
eigensolve of a block per orbit (``_walnut_blocks``) factors S: the bounds,
the canonical dual and tight windows and the rank-tolerant pseudo-powers
are read off it (``_block_power``), and frame-analyze solves it once for
all three (``_frame_analysis``).  The dense ``frame_operator`` is a
reference.  A window that differs from a solved one in sample i is
re-solved on one block, of the orbit of i mod d.  The Wexler-Raz test
reads duality on the lattice off the blocks of g with gamma, and
biorthogonality on the adjoint lattice (time step N/b, frequency step N/a)
off the N/b lattice rows of their cross-ambiguity.  ``_write_csv`` is the one
table writer (pulse files and every CLI table); ``read_pulse_csv`` reads a
pulse file back.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tf_core import DiscreteChannel, _ambiguity_rows, _check_dim, as_samples, centered_index, \
    tf_shift

__all__ = [
    "NotAFrameError", "WHGrid", "Pulse", "FrameReport", "lattice_matrix", "frame_operator",
    "frame_power", "frame_bounds", "dual_window", "tight_window", "check_wexler_raz",
    "localization_metrics", "gaussian_pulse", "rect_pulse", "write_pulse_csv", "read_pulse_csv",
]


class NotAFrameError(Exception):
    """The lattice translates of the window do not span with positive lower bound."""


@dataclass(frozen=True)
class WHGrid:
    """Separable time-frequency lattice with steps (time_step, freq_step)."""

    n_dim: int
    time_step: int
    freq_step: int

    def __post_init__(self):
        for name in ("n_dim", "time_step", "freq_step"):
            val = getattr(self, name)
            if int(val) != val or val < 1:
                raise ValueError(f"{name} must be a positive integer, got {val}")
            object.__setattr__(self, name, int(val))
            if self.n_dim % int(val):
                raise ValueError(f"{name} {int(val)} does not divide N = {self.n_dim}")

    @property
    def n_time(self) -> int:
        return self.n_dim // self.time_step

    @property
    def n_freq(self) -> int:
        return self.n_dim // self.freq_step

    @property
    def size(self) -> int:
        return self.n_time * self.n_freq

    @property
    def redundancy(self) -> float:
        return self.n_dim / (self.time_step * self.freq_step)

    @property
    def tf_product(self) -> float:
        """Lattice cell area divided by N; frames require tf_product <= 1."""
        return self.time_step * self.freq_step / self.n_dim

    def adjoint(self) -> "WHGrid":
        """The dual lattice (time step N/b, frequency step N/a)."""
        return WHGrid(self.n_dim, self.n_dim // self.freq_step, self.n_dim // self.time_step)


@dataclass(frozen=True, eq=False)
class Pulse:
    """A length-N window with cached l2 norm."""

    samples: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        s = as_samples(self.samples)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "norm", float(np.linalg.norm(s)))

    @property
    def n_dim(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class FrameReport:
    """Extreme frame bounds and derived flags."""

    lower_bound: float
    upper_bound: float
    is_frame: bool
    is_tight: bool
    condition: float


def lattice_matrix(pulse, grid: WHGrid) -> np.ndarray:
    """All lattice translates M^(-k*b) D^(n*a) g as columns, column index n * (N/b) + k."""
    g = as_samples(pulse)
    if g.size != grid.n_dim:
        raise ValueError(f"pulse length {g.size} does not match grid N = {grid.n_dim}")
    slots = np.arange(grid.n_time)[:, None] * grid.time_step
    bins = np.arange(grid.n_freq)[None, :] * grid.freq_step
    return np.ascontiguousarray(tf_shift(g, slots, -bins).reshape(grid.size, grid.n_dim).T)


def frame_operator(pulse, grid: WHGrid) -> DiscreteChannel:
    """S = sum over the lattice of g_{n,k} g_{n,k}^H."""
    mat = lattice_matrix(pulse, grid)
    return DiscreteChannel(mat @ mat.conj().T)


_Orbits = namedtuple("_Orbits", "index solved samples rep rows")


def _walnut_orbits(grid: WHGrid, blocks=slice(None)) -> _Orbits:
    """The Walnut gather of the blocks ``blocks``, with one block to solve per orbit.

    ``index`` gathers r + p*M - n*a mod N (M = N/b) at [block r, row p, slot n] and
    ``samples`` is its slot 0.  Block r + j*d, d = gcd(M, a) = u*M - v*a, gathers block
    r's rows and slots rolled by j*u and j*v, so its matrix is block r's rolled by j*u.
    ``solved`` gathers the orbits' r < d, and block k reads row rep[k] and eigenvector rows rows[k].
    """
    m, b, period = grid.n_freq, grid.freq_step, math.gcd(grid.n_freq, grid.time_step)
    blocks = np.arange(m)[blocks]
    reps, rep = np.unique(blocks % period, return_inverse=True)
    index = (np.append(blocks, reps)[:, None, None] + m * np.arange(b)[None, :, None]
             - grid.time_step * np.arange(grid.n_time)[None, None, :]) % grid.n_dim
    roll = pow(m // period, -1, grid.time_step // period) * (blocks // period)
    rows = b * rep[:, None] + (np.arange(b) + roll[:, None]) % b
    return _Orbits(index[:blocks.size], index[blocks.size:], index[:blocks.size, :, 0], rep, rows)


def _walnut_blocks(pulse, grid: WHGrid, orbits: _Orbits):
    """Eigensystem of the Walnut blocks of the frame operator that ``orbits`` gathers.

    With M = N/b, S[i, j] = (N/b) sum_n g[i - n*a] conj(g[j - n*a]) when
    i = j mod M and zero otherwise.  Block r holds samples r + p*M for
    p = 0..b-1.  Returns (evals, evecs, g_blocks) of shapes (..., B, b),
    (..., B, b, b) and (..., B, b) for B blocks, evals clipped at zero, all
    read off one ``eigh`` per orbit; a stack of windows (T, N) is taken as
    given and solved in one ``eigh``.
    """
    g = pulse if isinstance(pulse, np.ndarray) and pulse.ndim > 1 else as_samples(pulse)
    if g.shape[-1] != grid.n_dim:
        raise ValueError(f"pulse length {g.shape[-1]} does not match grid N = {grid.n_dim}")
    stack = g.take(orbits.solved, axis=-1)
    evals, evecs = np.linalg.eigh(grid.n_freq * (stack @ stack.conj().swapaxes(-1, -2)))
    evecs = evecs.reshape(*evecs.shape[:-3], -1, grid.freq_step).take(orbits.rows, axis=-2)
    return np.maximum(evals, 0.0).take(orbits.rep, axis=-2), evecs, g.take(orbits.samples, axis=-1)


FRAME_RANK_RTOL = 1e-10


def _block_power(grid: WHGrid, solved, spectrum: np.ndarray, power: float,
                 rank_rtol: float | None = None):
    """S^power g on the Walnut blocks that ``_walnut_blocks`` solved.

    ``solved`` is its (evals, evecs, g_blocks).  The frame test and the rank
    threshold read the largest eigenvalue of ``spectrum``, the (..., N/b, b)
    spectrum of all blocks, the solved ones included.  Returns
    values[..., j, p], the sample r + p*N/b of S^power g for the j-th block
    r; a stack returns (values, is_frame) where one window raises
    NotAFrameError (a non-frame's values are then its pseudo-power).
    """
    block_evals, evecs, g_blocks = solved
    floor = (FRAME_RANK_RTOL if rank_rtol is None else rank_rtol) * \
        spectrum.max(axis=(-2, -1), keepdims=True)
    is_frame = (spectrum > floor).all(axis=(-2, -1))
    if rank_rtol is None and spectrum.ndim == 2 and not is_frame:
        raise NotAFrameError(
            f"window does not generate a frame on {grid}: "
            f"extreme eigenvalues ({spectrum.min():.3e}, {spectrum.max():.3e})")
    scale = np.power(block_evals, power, out=np.zeros_like(block_evals),
                     where=block_evals > floor)
    coef = np.einsum("...pq,...p->...q", evecs.conj(), g_blocks) * scale
    values = np.einsum("...pq,...q->...p", evecs, coef)
    return values if spectrum.ndim == 2 else (values, is_frame)


def _frame_report(evals: np.ndarray) -> FrameReport:
    """``frame_bounds`` read off the clipped Walnut spectrum ``evals``."""
    lower, upper = float(evals.min()), float(evals.max())
    is_frame = upper > 0.0 and lower > FRAME_RANK_RTOL * upper
    is_tight = is_frame and (upper / lower - 1.0) <= 1e-9
    condition = upper / lower if is_frame else float("inf")
    return FrameReport(lower, upper, is_frame, is_tight, condition)


def _frame_analysis(pulse, grid: WHGrid) -> tuple[FrameReport, Pulse, Pulse]:
    """(``frame_bounds``, ``dual_window``, ``tight_window``) from one eigensolve."""
    solved = _walnut_blocks(pulse, grid, _walnut_orbits(grid))
    dual, tight = (Pulse(_block_power(grid, solved, solved[0], p).T.ravel()) for p in (-1.0, -0.5))
    return _frame_report(solved[0]), dual, tight


def frame_power(pulse, grid: WHGrid, power: float, rank_rtol: float | None = None) -> Pulse:
    """S^power g, with S the frame operator of g on the lattice.

    With ``rank_rtol`` None the window must generate a frame, else
    NotAFrameError.  With it set, eigenvalues at or below rank_rtol times the
    largest are dropped: the pseudo-power on the range of S (as at a*b = N).
    """
    solved = _walnut_blocks(pulse, grid, _walnut_orbits(grid))
    return Pulse(_block_power(grid, solved, solved[0], power, rank_rtol).T.ravel())


def frame_bounds(pulse, grid: WHGrid) -> FrameReport:
    """Extreme eigenvalues of the frame operator over all Walnut blocks; tight to 1e-9."""
    return _frame_report(_walnut_blocks(pulse, grid, _walnut_orbits(grid))[0])


def dual_window(pulse, grid: WHGrid) -> Pulse:
    """Canonical dual window, the frame operator inverse applied to g."""
    return frame_power(pulse, grid, -1.0)


def tight_window(pulse, grid: WHGrid) -> Pulse:
    """Canonical tight window S^(-1/2) g, whose frame bounds are both 1."""
    return frame_power(pulse, grid, -0.5)


def _gram_defect(g: np.ndarray, gamma: np.ndarray, grid: WHGrid, constant: float = 1.0) -> float:
    """max |<g_{n,k}, gamma_{n',k'}> - constant * delta| over the lattice.

    Each inner product is a unit phase times A[(n'-n)*a, (k'-k)*b] with
    A = cross_ambiguity(g, gamma), so only the N/a lattice rows of A are
    computed; the diagonal is A[0, 0].
    """
    rows = _ambiguity_rows(g, gamma, np.arange(0, grid.n_dim, grid.time_step))
    lattice = rows[:, ::grid.freq_step]
    samples = np.abs(lattice)
    samples[0, 0] = abs(lattice[0, 0] - constant)
    return float(samples.max())


def check_wexler_raz(pulse, dual, grid: WHGrid) -> tuple[bool, float]:
    """Duality on the lattice against biorthogonality on the adjoint lattice.

    Returns (dual_frames, biorthogonality_defect).  The first entry tests
    sum_{n,k} <x, gamma_{n,k}> g_{n,k} == x as "every Walnut block is I_b" to 1e-10.
    The second is the largest deviation of the adjoint-lattice cross Gram
    from (a*b/N) times the identity; the two criteria agree (Wexler-Raz).
    """
    g, gam = as_samples(pulse), as_samples(dual)
    if g.size != grid.n_dim or gam.size != grid.n_dim:
        raise ValueError(f"pulse lengths {g.size}, {gam.size} do not match grid N = {grid.n_dim}")
    index = _walnut_orbits(grid).index
    mixed = g.take(index) @ gam.take(index).conj().swapaxes(1, 2)
    is_dual = bool(np.abs(grid.n_freq * mixed - np.eye(grid.freq_step)).max() <= 1e-10)
    return is_dual, _gram_defect(g, gam, grid.adjoint(), grid.tf_product)


def _circular_spread(weights: np.ndarray) -> float:
    n = weights.size
    total = weights.sum()
    p = weights / total
    mean_phasor = np.sum(p * np.exp(2j * np.pi * np.arange(n) / n))
    center = n * np.angle(mean_phasor) / (2 * np.pi) if np.abs(mean_phasor) > 1e-12 else 0.0
    dist = (np.arange(n) - center + n / 2) % n - n / 2
    return float(np.sqrt(np.sum(p * dist**2)))


def localization_metrics(pulse) -> tuple[float, float]:
    """Circular second-moment spreads (time in samples, frequency in bins)."""
    g = as_samples(pulse)
    energy = np.abs(g) ** 2
    if energy.sum() == 0.0:
        raise ValueError("cannot localize a zero pulse")
    return _circular_spread(energy), _circular_spread(np.abs(np.fft.fft(g)) ** 2)


def gaussian_pulse(n_dim: int, time_step: int | None = None,
                   freq_step: int | None = None, sigma: float | None = None) -> Pulse:
    """Periodized Gaussian window, unit norm.

    ``sigma`` is the width in samples of exp(-pi*t^2/sigma^2).  The default
    sqrt(a*N/b) matches the window's time/frequency spread ratio to the
    grid aspect a/b; with no grid given it falls back to sqrt(N).
    """
    n = _check_dim(n_dim)
    if sigma is None:
        if time_step is not None and freq_step is not None:
            sigma = np.sqrt(time_step * n / freq_step)
        else:
            sigma = np.sqrt(n)
    if not sigma > 0:  # nan fails too
        raise ValueError("sigma must be positive")
    if sigma >= 4 * n:  # by Poisson summation flat to within exp(-16*pi) ~ 1.5e-22
        return Pulse(np.full(n, 1.0 / np.sqrt(n)))
    i = centered_index(np.arange(n), n).astype(float)
    wraps = max(1, int(np.ceil(6.0 * sigma / n)))
    g = np.zeros(n)
    with np.errstate(all="ignore"):  # sigma**2 may underflow to 0
        for r in range(-wraps, wraps + 1):
            g += np.exp(-np.pi * (i + r * n) ** 2 / sigma**2)
        g /= np.linalg.norm(g)
    if not np.isfinite(g).all():
        raise ValueError(f"sigma = {sigma!r} gives a non-finite sampled window")
    return Pulse(g)


def rect_pulse(n_dim: int, length: int, offset: int = 0) -> Pulse:
    """Unit-norm rectangular window on [offset, offset + length) mod N."""
    n = int(n_dim)
    if not 1 <= length <= n:
        raise ValueError(f"length must be in [1, {n}], got {length}")
    g = np.zeros(n, dtype=complex)
    g[(int(offset) % n + np.arange(length)) % n] = 1.0 / np.sqrt(length)
    return Pulse(g)


_CSV_BLOCK_ROWS = 8192


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length 1-D numpy arrays as the columns of a table.

    Numbers are written as their ``repr``, rows end in \\r\\n and go out in
    blocks of ``_CSV_BLOCK_ROWS``.  A non-finite value raises ArithmeticError
    before the file is opened.
    """
    if any(not np.isfinite(col).all() for col in columns):
        raise ArithmeticError(f"non-finite value in the CSV artifact {path.name}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [map(repr, col[start:start + _CSV_BLOCK_ROWS].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_pulse_csv(path, pulse) -> None:
    """Export window samples as rows (index, re, im) through the table writer ``_write_csv``."""
    g = as_samples(pulse)
    _write_csv(Path(path), ["index", "re", "im"], [np.arange(g.size), g.real, g.imag])


def read_pulse_csv(path) -> Pulse:
    """Read a window exported by :func:`write_pulse_csv`."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["index", "re", "im"]:  # as write_pulse_csv writes it
            raise ValueError(f"{Path(path).name}: expected header index,re,im")
        for row in reader:
            idx = int(row["index"])
            if idx in rows:
                raise ValueError(f"{Path(path).name}: index {idx} is repeated")
            rows[idx] = float(row["re"]) + 1j * float(row["im"])
    n = len(rows)
    if n == 0 or sorted(rows) != list(range(n)):
        raise ValueError(f"{Path(path).name}: indices must cover 0..N-1")
    return Pulse(np.array([rows[i] for i in range(n)]))
