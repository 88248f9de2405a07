"""Channel identification from sounding signals on a declared delay-Doppler support.

A channel with spreading support S acts on a known probe x as y = X s,
where column (m, l) of X is the TF-shifted probe M^l D^m x and s collects
the unknown spreading coefficients.  Identification is a rank-revealing
least-squares solve; it succeeds exactly when X has full column rank,
which needs |S| <= N and a probe whose auto-ambiguity stays small on the
difference set of S.  Dirac trains are the standard probe: their
auto-ambiguity lives on a coarse lattice, so supports that dodge that
lattice give perfectly conditioned, mutually orthogonal columns.

The solve uses the probe's comb structure.  A probe whose nonzero samples
sit on i0 + P Z_N (P the gcd of N and their index differences) gives
column (m, l) nonzero only on the rows i = i0 + m (mod P).  Sorting rows
by (i - i0) mod P and cells by m mod P makes X block diagonal: P residue
classes, each an (N/P) x (cells in the class) block.  The blocks are
gathered straight from the probe, never through X, and solved with one
batched SVD per distinct block width; a generic probe (P = 1) is a single
block.  Rank, condition number and the smallest singular value are read
from the union of the block spectra, with the rank threshold relative to
its global maximum, so they match a dense SVD of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tf_core import _ambiguity_rows, _centered_range, as_samples, tf_shift

__all__ = [
    "IdentifiabilityError", "IdentificationResult", "RANK_RTOL", "dirac_train",
    "centered_rect_support", "build_sounding_matrix", "refuse_overspread", "identify",
    "offgrid_ambiguity",
]

RANK_RTOL = 1e-10
_OVERSPREAD = "overspread supports with |S| > N are never identifiable"


class IdentifiabilityError(Exception):
    """The sounding matrix cannot separate the declared unknowns.

    Carries ``n_unknowns`` and ``numerical_rank`` so callers can tell an
    overspread support (|S| > N) from a bad probe; ``numerical_rank`` is
    None when the count alone refused the support and no rank was computed.
    """

    def __init__(self, message: str, n_unknowns: int, numerical_rank: int | None):
        super().__init__(message)
        self.n_unknowns = n_unknowns
        self.numerical_rank = numerical_rank


def _canonical_support(support, n_dim: int) -> tuple[tuple[int, int], ...]:
    lo, hi = _centered_range(n_dim)
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


@dataclass(frozen=True, eq=False)
class IdentificationResult:
    """Least-squares estimate on the declared support."""

    support: tuple
    estimate: np.ndarray
    residual: float
    condition_number: float
    numerical_rank: int
    smallest_singular_value: float


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
        w = as_samples(np.ravel(weights), "weights")
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


def refuse_overspread(n_unknowns: int, n_dim: int) -> None:
    """Refuse |S| > N from the counts alone, before any cell or X is built: rank X <= N."""
    if n_unknowns > n_dim:
        raise IdentifiabilityError(f"{n_unknowns} unknowns > N = {n_dim}: {_OVERSPREAD}",
                                   n_unknowns=n_unknowns, numerical_rank=None)


def build_sounding_matrix(sounding, support, n_dim: int) -> np.ndarray:
    """Stack M^l D^m x as columns, one per support cell, in support order."""
    x = np.asarray(sounding, dtype=complex).ravel()
    if x.size != n_dim:
        raise ValueError(f"sounding length {x.size} does not match N = {n_dim}")
    delays, dopplers = np.array(_canonical_support(support, n_dim)).T
    return tf_shift(x, delays, dopplers).T


def _comb(x: np.ndarray) -> tuple[int, int]:
    """(P, i0): the nonzero samples of ``x`` lie on i0 + P Z_N, P as large as possible."""
    nonzero = np.flatnonzero(x)
    i0 = int(nonzero[0]) if nonzero.size else 0
    return int(np.gcd.reduce(np.append(nonzero - i0, x.size))), i0


def _block_svd(x: np.ndarray, cells) -> tuple[list, np.ndarray]:
    """SVD of the sounding matrix by probe residue classes, without forming it.

    Returns (groups, sigma).  Each group holds the classes of one block
    width c as a tuple (rows, cols, blocks, u, s, vh): rows (g, N/P) are
    their observation indices, cols (g, c) their support positions in
    support order, blocks (g, N/P, c) the entries X[rows, cols] and u, s,
    vh the batched thin SVD of the blocks.  ``sigma`` is the union of all
    block spectra; singular values of X missing from it are exact zeros.
    """
    n = x.size
    p, i0 = _comb(x)
    delays, dopplers = np.array(cells).T
    classes = delays % p
    counts = np.bincount(classes, minlength=p)
    starts = np.cumsum(counts) - counts
    by_class = np.argsort(classes, kind="stable")
    class_rows = (i0 + np.arange(p)[:, None] + p * np.arange(n // p)) % n
    tones = np.exp(-2j * np.pi * np.arange(n) / n)
    groups = []
    for width in np.unique(counts[counts > 0]):
        members = np.flatnonzero(counts == width)
        rows = class_rows[members]
        cols = by_class[starts[members][:, None] + np.arange(width)]
        i = rows[:, :, None]
        m = delays[cols][:, None, :]
        l = dopplers[cols][:, None, :]
        blocks = tones[(l * i) % n] * x[(i - m) % n]
        groups.append((rows, cols, blocks, *np.linalg.svd(blocks, full_matrices=False)))
    return groups, np.concatenate([group[4].ravel() for group in groups])


def identify(observation, sounding, support) -> IdentificationResult:
    """Solve y = X s for the spreading coefficients on the declared support.

    Raises IdentifiabilityError when X is numerically rank deficient
    (singular values below RANK_RTOL times the largest), which covers both
    |S| > N and ill-chosen probes.  X is never formed: each residue class
    of the probe comb is solved on its own block (see the module notes).
    """
    y = as_samples(observation, "observation")
    n = y.size
    x = as_samples(sounding, "sounding")
    if x.size != n:
        raise ValueError(f"sounding length {x.size} does not match observation length {n}")
    cells = _canonical_support(support, n)
    groups, sigma = _block_svd(x, cells)
    rank = int(np.count_nonzero(sigma > RANK_RTOL * sigma.max()))
    if rank < len(cells):
        raise IdentifiabilityError(
            f"sounding matrix rank {rank} < {len(cells)} unknowns "
            f"(N = {n}; {_OVERSPREAD})",
            n_unknowns=len(cells), numerical_rank=rank)
    estimate = np.empty(len(cells), dtype=complex)
    misfit = y.copy()
    for rows, cols, blocks, u, s, vh in groups:
        coeffs = u.conj().transpose(0, 2, 1) @ y[rows][:, :, None] / s[:, :, None]
        coeffs = vh.conj().transpose(0, 2, 1) @ coeffs
        estimate[cols] = coeffs[:, :, 0]
        misfit[rows] -= (blocks @ coeffs)[:, :, 0]
    return IdentificationResult(cells, estimate, float(np.linalg.norm(misfit)),
                                float(sigma.max() / sigma.min()), rank, float(sigma.min()))


def offgrid_ambiguity(sounding, support) -> float:
    """Max |A_{x,x}| over the support's pairwise differences but the origin.

    Small values mean nearly orthogonal sounding columns.  Only the rows of
    A at the support's delay differences are computed.
    """
    x = as_samples(sounding, "sounding")
    n = x.size
    cells = _canonical_support(support, n)
    delays, dopplers = np.array(cells).T
    taps = np.unique(delays)
    rows = np.unique((delays[:, None] - taps) % n)
    amb = np.abs(_ambiguity_rows(x, x, rows))
    worst = 0.0
    for tap in taps:  # one delay at a time: pair arrays of (cells at tap) x |S|, not |S|^2
        mine = np.flatnonzero(delays == tap)
        diffs = amb[np.searchsorted(rows, (tap - delays) % n),
                    (dopplers[mine, None] - dopplers) % n]
        diffs[np.arange(mine.size), mine] = 0.0  # a cell against itself is the origin
        worst = max(worst, float(diffs.max()))
    return worst
