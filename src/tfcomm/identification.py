"""Channel identification from sounding signals on a declared delay-Doppler support.

A channel with spreading support S acts on a known probe x as y = X s,
where column (m, l) of X is the TF-shifted probe M^l D^m x and s collects
the unknown spreading coefficients.  Identification is a rank-revealing
least-squares solve; it succeeds exactly when X has full column rank,
which needs |S| <= N and a probe whose auto-ambiguity stays small on the
difference set of S.  Dirac trains are the standard probe: their
auto-ambiguity lives on a coarse lattice, so supports that dodge that
lattice give perfectly conditioned, mutually orthogonal columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tf_core import cross_ambiguity, tf_shift

__all__ = [
    "IdentifiabilityError",
    "SoundingProblem",
    "IdentificationResult",
    "RANK_RTOL",
    "dirac_train",
    "centered_rect_support",
    "build_sounding_matrix",
    "identify",
    "sounding_quality",
    "offgrid_ambiguity",
]

RANK_RTOL = 1e-10


class IdentifiabilityError(Exception):
    """The sounding matrix cannot separate the declared unknowns.

    Carries ``n_unknowns`` and ``numerical_rank`` so callers can tell an
    overspread support (|S| > N) from a bad probe.
    """

    def __init__(self, message: str, n_unknowns: int, numerical_rank: int):
        super().__init__(message)
        self.n_unknowns = n_unknowns
        self.numerical_rank = numerical_rank


def _canonical_support(support, n_dim: int) -> tuple[tuple[int, int], ...]:
    lo = -((n_dim - 1) // 2)
    hi = lo + n_dim - 1
    seen = []
    for cell in support:
        m, l = cell
        if int(m) != m or int(l) != l:
            raise ValueError(f"support cells must be integer pairs, got {cell!r}")
        if not (lo <= int(m) <= hi and lo <= int(l) <= hi):
            raise ValueError(f"support cell {cell!r} outside centered range [{lo}, {hi}]")
        seen.append((int(m), int(l)))
    if len(set(seen)) != len(seen):
        raise ValueError("support contains duplicate cells")
    if not seen:
        raise ValueError("support must be nonempty")
    return tuple(seen)


@dataclass(frozen=True)
class SoundingProblem:
    """Probe signal, declared support, and (optionally) an observation."""

    n_dim: int
    sounding: np.ndarray
    support: tuple
    observation: np.ndarray | None = None

    def __post_init__(self):
        n = int(self.n_dim)
        x = np.asarray(self.sounding, dtype=complex).ravel()
        if x.size != n:
            raise ValueError(f"sounding length {x.size} does not match N = {n}")
        object.__setattr__(self, "n_dim", n)
        object.__setattr__(self, "sounding", x)
        object.__setattr__(self, "support", _canonical_support(self.support, n))
        if self.observation is not None:
            y = np.asarray(self.observation, dtype=complex).ravel()
            if y.size != n:
                raise ValueError(f"observation length {y.size} does not match N = {n}")
            object.__setattr__(self, "observation", y)

    @property
    def n_unknowns(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class IdentificationResult:
    """Least-squares estimate on the declared support."""

    support: tuple
    estimate: np.ndarray
    residual: float
    condition_number: float


def dirac_train(n_dim: int, period: int, weights=None) -> np.ndarray:
    """Unit-energy impulse train with one impulse every ``period`` samples.

    ``weights``, when given, must be one unit-modulus value per impulse;
    non-flat weight phases are a hook for shaping the ambiguity pattern
    without hurting column orthogonality.
    """
    n = int(n_dim)
    p = int(period)
    if p < 1 or n % p:
        raise ValueError(f"period must divide N = {n}, got {period}")
    n_impulses = n // p
    if weights is None:
        w = np.ones(n_impulses, dtype=complex)
    else:
        w = np.asarray(weights, dtype=complex).ravel()
        if w.size != n_impulses:
            raise ValueError(f"need {n_impulses} weights, got {w.size}")
        if np.abs(np.abs(w) - 1.0).max() > 1e-9:
            raise ValueError("weights must be unit modulus")
    x = np.zeros(n, dtype=complex)
    x[::p] = w / np.sqrt(n_impulses)
    return x


def centered_rect_support(n_delay: int, n_doppler: int) -> tuple[tuple[int, int], ...]:
    """Rectangle of n_delay x n_doppler cells around the origin.

    Even counts extend one cell further on the negative side.
    """
    if n_delay < 1 or n_doppler < 1:
        raise ValueError("support counts must be positive")
    delays = range(-(n_delay // 2), n_delay - n_delay // 2)
    dopplers = range(-(n_doppler // 2), n_doppler - n_doppler // 2)
    return tuple((m, l) for m in delays for l in dopplers)


def build_sounding_matrix(sounding, support, n_dim: int) -> np.ndarray:
    """Stack M^l D^m x as columns, one per support cell, in support order."""
    x = np.asarray(sounding, dtype=complex).ravel()
    if x.size != n_dim:
        raise ValueError(f"sounding length {x.size} does not match N = {n_dim}")
    delays, dopplers = np.array(_canonical_support(support, n_dim)).T
    return tf_shift(x, delays, dopplers).T


def identify(observation, sounding, support) -> IdentificationResult:
    """Solve y = X s for the spreading coefficients on the declared support.

    Raises IdentifiabilityError when X is numerically rank deficient
    (singular values below RANK_RTOL times the largest), which covers both
    |S| > N and ill-chosen probes.
    """
    y = np.asarray(observation, dtype=complex).ravel()
    n = y.size
    x = np.asarray(sounding, dtype=complex).ravel()
    if x.size != n:
        raise ValueError(f"sounding length {x.size} does not match observation length {n}")
    cells = _canonical_support(support, n)
    mat = build_sounding_matrix(x, cells, n)
    u, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(sigma > RANK_RTOL * sigma[0])) if sigma[0] > 0 else 0
    if rank < len(cells):
        raise IdentifiabilityError(
            f"sounding matrix rank {rank} < {len(cells)} unknowns "
            f"(N = {n}; overspread supports with |S| > N are never identifiable)",
            n_unknowns=len(cells), numerical_rank=rank)
    estimate = vh.conj().T @ ((u.conj().T @ y) / sigma)
    residual = float(np.linalg.norm(y - mat @ estimate))
    condition = float(sigma[0] / sigma[-1])
    return IdentificationResult(cells, estimate, residual, condition)


def sounding_quality(sounding, support) -> tuple[float, float]:
    """(condition number of X, :func:`offgrid_ambiguity`); the two move together."""
    x = np.asarray(sounding, dtype=complex).ravel()
    sigma = np.linalg.svd(build_sounding_matrix(x, support, x.size), compute_uv=False)
    condition = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else float("inf")
    return condition, offgrid_ambiguity(x, support)


def offgrid_ambiguity(sounding, support) -> float:
    """Max |A_{x,x}| over the support's pairwise differences but the origin.

    Small values mean nearly orthogonal sounding columns.
    """
    x = np.asarray(sounding, dtype=complex).ravel()
    n = x.size
    cells = _canonical_support(support, n)
    amb = np.abs(cross_ambiguity(x, x))
    delays, dopplers = np.array(cells).T
    diffs = amb[(delays[:, None] - delays) % n, (dopplers[:, None] - dopplers) % n]
    off_diagonal = ~np.eye(len(cells), dtype=bool)
    return float(diffs[off_diagonal].max(initial=0.0))
