"""Weyl-Heisenberg (Gabor) systems on the cyclic group of order N.

A system is generated by translating a window along a separable lattice:
g_{n,k} = M^(-k*b) D^(n*a) g, i.e. g_{n,k}[i] = g[(i - n*a) mod N] *
exp(2j*pi*k*b*i/N) with a | N and b | N, built by ``tf_core.tf_shift``.
Summing over the modulations leaves the frame operator nonzero only where
i = j mod N/b (Walnut's representation), so it splits into N/b Hermitian
b x b blocks, one per residue class of samples.  Frame bounds, canonical
dual and tight windows, and the rank-tolerant pseudo-root all come from
one batched eigensolve of those blocks (``frame_power``).  The dense
``frame_operator`` is kept as a reference.  The Wexler-Raz duality test
compares reconstruction on the lattice with biorthogonality on the
adjoint lattice (time step N/b, frequency step N/a).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tf_core import DiscreteChannel, centered_index, tf_shift

__all__ = [
    "NotAFrameError",
    "WHGrid",
    "Pulse",
    "FrameReport",
    "as_samples",
    "lattice_matrix",
    "frame_operator",
    "frame_power",
    "frame_bounds",
    "dual_window",
    "tight_window",
    "check_wexler_raz",
    "localization_metrics",
    "gaussian_pulse",
    "rect_pulse",
    "write_pulse_csv",
    "read_pulse_csv",
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
        if self.n_dim % self.time_step:
            raise ValueError(f"time_step {self.time_step} does not divide N = {self.n_dim}")
        if self.n_dim % self.freq_step:
            raise ValueError(f"freq_step {self.freq_step} does not divide N = {self.n_dim}")

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


@dataclass(frozen=True)
class Pulse:
    """A length-N window with cached l2 norm."""

    samples: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size == 0:
            raise ValueError(f"pulse samples must be a nonempty vector, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("pulse samples contain non-finite entries")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "norm", float(np.linalg.norm(s)))

    @property
    def n_dim(self) -> int:
        return self.samples.size

    def __len__(self) -> int:
        return self.samples.size

    def normalized(self) -> "Pulse":
        if self.norm == 0.0:
            raise ValueError("cannot normalize a zero pulse")
        return Pulse(self.samples / self.norm)


@dataclass(frozen=True)
class FrameReport:
    """Extreme frame bounds and derived flags."""

    lower_bound: float
    upper_bound: float
    is_frame: bool
    is_tight: bool
    condition: float


def as_samples(pulse) -> np.ndarray:
    if isinstance(pulse, Pulse):
        return pulse.samples
    return Pulse(np.asarray(pulse)).samples


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


def _walnut_blocks(pulse, grid: WHGrid):
    """Eigensystem of the N/b Walnut blocks of the frame operator.

    With M = N/b, S[i, j] = (N/b) sum_n g[i - n*a] conj(g[j - n*a]) when
    i = j mod M and zero otherwise.  Block r holds samples r + p*M for
    p = 0..b-1.  Returns (evals, evecs, g_blocks) of shapes (M, b),
    (M, b, b) and (M, b); eigenvalues are clipped at zero.
    """
    g = as_samples(pulse)
    if g.size != grid.n_dim:
        raise ValueError(f"pulse length {g.size} does not match grid N = {grid.n_dim}")
    n, a, b = grid.n_dim, grid.time_step, grid.freq_step
    m = grid.n_freq
    idx = (np.arange(m)[:, None, None] + m * np.arange(b)[None, :, None]
           - a * np.arange(grid.n_time)[None, None, :]) % n
    stack = g[idx]
    evals, evecs = np.linalg.eigh(m * (stack @ stack.conj().transpose(0, 2, 1)))
    return np.maximum(evals, 0.0), evecs, g.reshape(b, m).T


FRAME_RANK_RTOL = 1e-10


def frame_power(pulse, grid: WHGrid, power: float, rank_rtol: float | None = None) -> Pulse:
    """S^power g, with S the frame operator of g on the lattice.

    With ``rank_rtol`` None the window must generate a frame, else
    NotAFrameError.  With ``rank_rtol`` set, eigenvalues at or below
    rank_rtol times the largest eigenvalue of S are dropped, which gives the
    pseudo-power on the range of S (the critically dense case a*b = N).
    """
    evals, evecs, g_blocks = _walnut_blocks(pulse, grid)
    top = evals.max()
    keep = evals > (FRAME_RANK_RTOL if rank_rtol is None else rank_rtol) * top
    if rank_rtol is None and not keep.all():
        raise NotAFrameError(
            f"window does not generate a frame on {grid}: "
            f"extreme eigenvalues ({evals.min():.3e}, {top:.3e})")
    scale = np.power(evals, power, out=np.zeros_like(evals), where=keep)
    coef = np.einsum("rpq,rp->rq", evecs.conj(), g_blocks) * scale
    return Pulse(np.einsum("rpq,rq->rp", evecs, coef).T.ravel())


def frame_bounds(pulse, grid: WHGrid, tight_rtol: float = 1e-9) -> FrameReport:
    """Extreme eigenvalues of the frame operator over all Walnut blocks."""
    evals, _, _ = _walnut_blocks(pulse, grid)
    lower = float(evals.min())
    upper = float(evals.max())
    is_frame = upper > 0.0 and lower > FRAME_RANK_RTOL * upper
    is_tight = is_frame and (upper / lower - 1.0) <= tight_rtol
    condition = upper / lower if is_frame else float("inf")
    return FrameReport(lower, upper, is_frame, is_tight, condition)


def dual_window(pulse, grid: WHGrid) -> Pulse:
    """Canonical dual window, the frame operator inverse applied to g."""
    return frame_power(pulse, grid, -1.0)


def tight_window(pulse, grid: WHGrid) -> Pulse:
    """Canonical tight window S^(-1/2) g, whose frame bounds are both 1."""
    return frame_power(pulse, grid, -0.5)


def check_wexler_raz(pulse, dual, grid: WHGrid, tol: float = 1e-10) -> tuple[bool, float]:
    """Duality on the lattice against biorthogonality on the adjoint lattice.

    Returns (dual_frames, biorthogonality_defect).  The first entry tests
    sum_{n,k} <x, gamma_{n,k}> g_{n,k} == x directly as a matrix identity.
    The second is the largest deviation of the adjoint-lattice cross Gram
    from (a*b/N) times the identity; the two criteria agree (Wexler-Raz).
    """
    mat_g = lattice_matrix(pulse, grid)
    mat_d = lattice_matrix(dual, grid)
    recon = mat_g @ mat_d.conj().T
    is_dual = bool(np.abs(recon - np.eye(grid.n_dim)).max() <= tol)
    adj = grid.adjoint()
    adj_g = lattice_matrix(pulse, adj)
    adj_d = lattice_matrix(dual, adj)
    gram = adj_d.conj().T @ adj_g
    constant = grid.time_step * grid.freq_step / grid.n_dim
    defect = float(np.abs(gram - constant * np.eye(adj.size)).max())
    return is_dual, defect


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
    n = int(n_dim)
    if n < 1:
        raise ValueError("dimension must be positive")
    if sigma is None:
        if time_step is not None and freq_step is not None:
            sigma = np.sqrt(time_step * n / freq_step)
        else:
            sigma = np.sqrt(n)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    i = centered_index(np.arange(n), n).astype(float)
    wraps = max(1, int(np.ceil(6.0 * sigma / n)))
    g = np.zeros(n)
    for r in range(-wraps, wraps + 1):
        g += np.exp(-np.pi * (i + r * n) ** 2 / sigma**2)
    return Pulse(g / np.linalg.norm(g))


def rect_pulse(n_dim: int, length: int, offset: int = 0) -> Pulse:
    """Unit-norm rectangular window on [offset, offset + length) mod N."""
    n = int(n_dim)
    if not 1 <= length <= n:
        raise ValueError(f"length must be in [1, {n}], got {length}")
    g = np.zeros(n, dtype=complex)
    g[(int(offset) + np.arange(length)) % n] = 1.0 / np.sqrt(length)
    return Pulse(g)


def write_pulse_csv(path, pulse) -> None:
    """Export window samples as rows (index, re, im)."""
    g = as_samples(pulse)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for idx, val in enumerate(g):
            writer.writerow([idx, repr(float(val.real)), repr(float(val.imag))])


def read_pulse_csv(path) -> Pulse:
    """Read a window exported by :func:`write_pulse_csv`."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["index", "re", "im"]:
            raise ValueError(f"{Path(path).name}: expected header index,re,im")
        for row in reader:
            rows[int(row["index"])] = float(row["re"]) + 1j * float(row["im"])
    n = len(rows)
    if n == 0 or sorted(rows) != list(range(n)):
        raise ValueError(f"{Path(path).name}: indices must cover 0..N-1")
    return Pulse(np.array([rows[i] for i in range(n)]))
