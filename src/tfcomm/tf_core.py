"""Cyclic delay-Doppler operator algebra on length-N signals.

Signals are length-N complex vectors with periodic boundary conditions and
channels are N x N matrices acting on them.  The two canonical unitaries are
the cyclic delay D (ones on the subdiagonal and in the top-right corner) and
the modulation M (diagonal with entries exp(-2j*pi*i/N)).  The N^2 products
M^l D^m, scaled by 1/sqrt(N), are an orthonormal basis of the matrix space
under <A, B> = trace(B^H A); the basis coefficients of a channel are its
delay-Doppler spreading function, stored as its nonzero cells, and their 2-D
Fourier transform is the time-frequency transfer function, which
``_transfer_rows`` computes by row blocks from the support-delay rows alone.
``tf_shift`` builds every shifted copy M^l D^m x in the package: operator
matrices, lattice translates, sounding columns and the rows of the
cross-ambiguity function.  ``_cell_filter`` applies a channel given by its
support cells to signals, never forming H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DiscreteChannel", "SpreadingFunction", "TransferFunction", "SpreadMetrics", "as_matrix",
    "as_samples", "centered_index", "tf_shift", "tf_shift_op", "cross_ambiguity",
    "spreading_function", "synthesize_channel", "tf_transfer", "dd_to_tf_grid", "tf_to_dd_grid",
    "commutation_defect", "spreading_of_product", "approx_eigen_defect", "spread_metrics",
    "box_spread",
]

SUPPORT_RTOL = 1e-12


def _centered_range(n_dim: int) -> tuple[int, int]:
    """(lo, hi): the centered representatives of Z_N run from lo to hi = lo + N - 1."""
    lo = -((n_dim - 1) // 2)
    return lo, lo + n_dim - 1


def centered_index(index, n_dim: int):
    """Map indices mod N to centered representatives in (-N/2, N/2]."""
    lo, _ = _centered_range(_check_dim(n_dim))
    idx = np.asarray(index)
    out = (idx - lo) % n_dim + lo
    if np.isscalar(index) or idx.ndim == 0:
        return int(out)
    return out


def _check_dim(n_dim: int) -> int:
    n = int(n_dim)
    if n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n_dim}")
    return n


def as_samples(pulse, name: str = "samples") -> np.ndarray:
    """Samples of a pulse, validated when built, or a nonempty finite vector named ``name``."""
    if hasattr(pulse, "samples"):
        return pulse.samples
    x = np.asarray(pulse, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite entries in {name}")
    return x


def _square_grid(values, noun: str, finite: bool = True) -> np.ndarray:
    """``values`` as a nonempty square complex array, checked finite unless ``finite`` is False."""
    grid = np.asarray(values, dtype=complex)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.shape[0] == 0:
        raise ValueError(f"{noun} must be square, got shape {grid.shape}")
    if finite and not np.all(np.isfinite(grid)):
        raise ValueError(f"{noun} contains non-finite entries")
    return grid


@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """A linear channel on length-N cyclic signals, stored as a dense matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _square_grid(self.matrix, "channel matrix"))

    @property
    def n_dim(self) -> int:
        return self.matrix.shape[0]


def as_matrix(channel) -> np.ndarray:
    """Coerce a DiscreteChannel or array-like to a validated square matrix."""
    if isinstance(channel, DiscreteChannel):
        return channel.matrix
    return DiscreteChannel(np.asarray(channel)).matrix


def _frozen(*arrays: np.ndarray) -> tuple:
    """``arrays``, each made read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _cell_store(n_dim: int, delays, dopplers, values, dtype, name: str = "values") -> tuple:
    """(delays, Dopplers, values) of the nonzero cells at grid indices in [0, N), row-major
    and read-only, repeated cells added in input order; a ValueError names a bad input."""
    n, values = _check_dim(n_dim), np.asarray(values, dtype=dtype)
    for axis, index in (("delays", delays), ("dopplers", dopplers)):
        index = np.asarray(index, dtype=float)
        if values.ndim != 1 or index.shape != values.shape:
            raise ValueError(f"{axis} and {name} must be vectors of one length")
        if not np.all((index == np.floor(index)) & (index >= 0) & (index < n)):
            raise ValueError(f"{axis} must be integer grid indices in [0, {n})")
    keys, cell_of_entry = np.unique(np.asarray(delays, dtype=int) * n
                                    + np.asarray(dopplers, dtype=int), return_inverse=True)
    summed = np.zeros(keys.size, dtype=values.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum raises below
        np.add.at(summed, cell_of_entry, values)  # in entry order, as += into a grid adds
    if not np.all(np.isfinite(summed)):
        raise ValueError(f"non-finite entries in {name}")
    keys, summed = keys[summed != 0], summed[summed != 0]
    return _frozen(keys // n, keys % n, summed)


def _grid_rows(n_dim: int, cells: tuple, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the N x N grid holding row-major ``cells``, zero elsewhere."""
    delays, dopplers, values = cells
    lo, hi = np.searchsorted(delays, [start, stop])
    rows = np.zeros((stop - start, n_dim), dtype=values.dtype)
    rows[delays[lo:hi] - start, dopplers[lo:hi]] = values[lo:hi]
    return rows


@dataclass(frozen=True, eq=False, init=False)
class SpreadingFunction:
    """Delay-Doppler coefficients S[m, l] (of M^l D^m) of a channel, stored as its cells.

    ``cells`` is (delays, Dopplers, S) of every nonzero S, row-major and read-only; ``coeffs``,
    the N x N grid, is a read-only copy of the one given to the dense adapter
    ``SpreadingFunction(grid)``, else built on first read.  Monte Carlo frames, spread metrics
    and the spreading CSV read ``support_cells``, the cells with |S| > SUPPORT_RTOL * max |S|.
    """

    n_dim: int
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __init__(self, coeffs):  # the copy keeps cells and grid in step
        grid = _square_grid(np.array(coeffs, dtype=complex), "coefficient grid")
        rows, cols = np.nonzero(grid)
        self.__dict__.update(n_dim=grid.shape[0], cells=_frozen(rows, cols, grid[rows, cols]),
                             coeffs=_frozen(grid)[0])

    @classmethod
    def from_cells(cls, n_dim: int, delays, dopplers, values) -> "SpreadingFunction":
        """S with ``values`` at grid indices (delays, Dopplers) in [0, N), repeated cells added
        in input order; NaN or inf values (or sums), off-grid or out-of-range indices and
        length mismatches raise a ValueError that names the input."""
        spreading = object.__new__(cls)
        spreading.__dict__.update(n_dim=_check_dim(n_dim),
                                  cells=_cell_store(n_dim, delays, dopplers, values, complex))
        return spreading

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The dense N x N grid; read-only."""
        return _frozen(_grid_rows(self.n_dim, self.cells, 0, self.n_dim))[0]

    @property
    def support_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(delays, Dopplers, S) of the K support cells, row-major."""
        magnitude = np.abs(self.cells[2])
        keep = magnitude > SUPPORT_RTOL * float(magnitude.max(initial=0.0))
        return tuple(array[keep] for array in self.cells)

    @property
    def support_count(self) -> int:
        return int(self.support_cells[0].size)


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Time-frequency transfer values L[n, k] on the full N x N grid."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _square_grid(self.values, "transfer grid", False))

    @property
    def n_dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpreadMetrics:
    """Support statistics of a spreading function.

    ``normalized_spread`` is the support count divided by N (discrete
    underspread criterion: at most 1).  ``box_spread`` is four times the
    product of the maximal centered delay and Doppler, a unit-free quantity;
    the continuous-parameter underspread criterion is box_spread <= 1.
    ``tau_max`` is in seconds and ``nu_max`` in Hz once a sample rate is
    attached, otherwise in samples and cycles per sample.
    """

    support_count: int
    normalized_spread: float
    box_spread: float
    tau_max: float
    nu_max: float
    underspread: bool
    underspread_box: bool


def tf_shift(x, delay, doppler) -> np.ndarray:
    """Time-frequency shifted copies M^doppler D^delay x along the last axis.

    out[..., i] = exp(-2j*pi*((doppler*i) mod N)/N) * x[..., (i - delay) mod N].
    Integer ``delay`` and ``doppler`` broadcast against each other into new
    axes after the leading axes of ``x``, so the result has shape
    x.shape[:-1] + broadcast shape + (N,).  The phase is reduced mod N in
    integers before the exponential.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    m = np.asarray(delay) % n
    l = np.asarray(doppler) % n
    ndim = max(m.ndim, l.ndim)
    m = m.reshape((1,) * (ndim - m.ndim) + m.shape)
    l = l.reshape((1,) * (ndim - l.ndim) + l.shape)
    i = np.arange(n)
    # i - m lies in (-N, N); negative indices wrap to (i - m) mod N
    delayed = np.take(x, i - m[..., None], axis=-1)
    if l.size == 1 and not l.any():
        return delayed  # a pure delay, already of the broadcast shape
    tones = np.exp(-2j * np.pi * i / n)
    return delayed * tones[(l[..., None] * i) % n]


def _cell_filter(delays, dopplers, n_dim: int):
    """x, coeffs -> H x on the last axis for H = sum_c coeffs[..., c] M^dopplers[c] D^delays[c].

    ``coeffs`` carries the leading (frame) axes of ``x``.  The tone of each
    distinct Doppler is built once, here; a call weights the tones of delay
    m's cells and multiplies by D^m x in place, so no array exceeds N x N.
    """
    taps, tap_of_cell = np.unique(delays, return_inverse=True)
    shifts, tone_of_cell = np.unique(dopplers, return_inverse=True)
    tones = tf_shift(np.ones(n_dim), 0, shifts)
    cells = [np.flatnonzero(tap_of_cell == u) for u in range(taps.size)]

    def apply(x, coeffs) -> np.ndarray:
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], coeffs.shape[:-1]) + (n_dim,),
                       dtype=complex)
        for m, c in zip(taps, cells):
            term = coeffs[..., c] @ tones[tone_of_cell[c]]
            term *= np.roll(x, m, axis=-1)
            out += term
        return out

    return apply


def tf_shift_op(n_dim: int, delay: int, doppler: int) -> DiscreteChannel:
    """The combined shift M^doppler D^delay without forming the product.

    Delay 0 or Doppler 0 gives the pure modulation M^doppler or delay D^delay.
    """
    n = _check_dim(n_dim)
    return DiscreteChannel(tf_shift(np.eye(n), int(delay), int(doppler)).T)


def cross_ambiguity(tx_pulse, rx_pulse) -> np.ndarray:
    """A[m, l] = sum_i g[i] conj(gamma[(i - m) mod N]) exp(-2j*pi*l*i/N).

    Row m is the DFT of g times the conjugated, m-delayed gamma: this is
    ``_ambiguity_rows`` over all N delays.  For unit vectors the total
    energy is N (so each of the N^2 cells averages 1/N), and
    biorthogonality of a transmission pair reads off as delta-delta samples
    on the lattice.
    """
    g = as_samples(tx_pulse)
    gam = as_samples(rx_pulse)
    if g.size != gam.size:
        raise ValueError("pulse lengths differ")
    return _ambiguity_rows(g, gam, np.arange(g.size))


def _ambiguity_rows(g: np.ndarray, gamma: np.ndarray, delays) -> np.ndarray:
    """Rows ``delays`` of ``cross_ambiguity(g, gamma)``, one length-N FFT each.

    Consumers that read a few delays (lattice Grams, gain tables, sounding
    difference sets; the interference scorer inlines its gather) call this
    instead of building the N x N grid; a row does not depend on which
    other rows are computed with it.
    """
    return np.fft.fft(g * tf_shift(gamma.conj(), delays, 0), axis=-1)


def _delay_diagonals(mat: np.ndarray) -> np.ndarray:
    """Stack the cyclic delay diagonals: out[m, i] = H[i, (i - m) mod N]."""
    n = mat.shape[0]
    i = np.arange(n)
    return mat[i[None, :], (i[None, :] - i[:, None]) % n]


def spreading_function(channel, method: str = "fast") -> SpreadingFunction:
    """Expand a channel in the delay-Doppler basis.

    S[m, l] = <H, M^l D^m> / N.  The fast path reads one cyclic diagonal per
    delay and applies an inverse FFT along it; the naive path forms each
    basis matrix explicitly and takes the trace inner product, which costs
    O(N^4) and exists as an independent cross-check.
    """
    mat = as_matrix(channel)
    n = mat.shape[0]
    if method == "fast":
        coeffs = np.fft.ifft(_delay_diagonals(mat), axis=1)
    elif method == "naive":
        coeffs = np.empty((n, n), dtype=complex)
        for m in range(n):
            for l in range(n):
                basis = tf_shift_op(n, m, l).matrix
                coeffs[m, l] = np.vdot(basis, mat) / n
    else:
        raise ValueError(f"unknown method {method!r}, expected 'fast' or 'naive'")
    return SpreadingFunction(coeffs)


def synthesize_channel(spreading: SpreadingFunction) -> DiscreteChannel:
    """Rebuild the channel matrix H = sum_{m,l} S[m,l] M^l D^m.

    Delay m fills the m-th cyclic subdiagonal with the DFT of row m of S, so
    only the delays with a nonzero coefficient are transformed and scattered.
    """
    n, (delays, dopplers, values) = spreading.n_dim, spreading.cells
    taps, tap_of_cell = np.unique(delays, return_inverse=True)  # tap_of_cell is sorted
    rows = _grid_rows(n, (tap_of_cell, dopplers, values), 0, taps.size)
    i = np.arange(n)
    mat = np.zeros((n, n), dtype=complex)
    mat[i, (i - taps[:, None]) % n] = np.fft.fft(rows, axis=1)
    return DiscreteChannel(mat)


def dd_to_tf_grid(grid: np.ndarray) -> np.ndarray:
    """2-D transform pairing delay-Doppler with time-frequency.

    out[n, k] = sum_{m,l} grid[m, l] exp(-2j*pi*(k*m - n*l)/N).
    """
    g = np.asarray(grid, dtype=complex)
    n = g.shape[0]
    return np.fft.fft(np.fft.ifft(g, axis=1) * n, axis=0).T


def tf_to_dd_grid(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dd_to_tf_grid`."""
    g = np.asarray(grid, dtype=complex)
    n = g.shape[0]
    return np.fft.fft(np.fft.ifft(g.T, axis=0), axis=1) / n


def tf_transfer(spreading: SpreadingFunction) -> TransferFunction:
    """Time-frequency transfer function, the 2-D DFT of the spreading grid."""
    return TransferFunction(_transfer_rows(spreading)(0, spreading.n_dim))


def _transfer_rows(spreading: SpreadingFunction):
    """start, stop -> rows [start, stop) of ``tf_transfer(spreading).values``: the FFT over m
    of columns [start, stop) of N ifft_l(S), which is zero off the support delays."""
    n, (delays, dopplers, values) = spreading.n_dim, spreading.cells
    taps, tap_of_cell = np.unique(delays, return_inverse=True)
    dual = np.fft.ifft(_grid_rows(n, (tap_of_cell, dopplers, values), 0, taps.size), axis=1) * n

    def block(start: int, stop: int) -> np.ndarray:
        cols = np.zeros((n, stop - start), dtype=complex)
        cols[taps] = dual[:, start:stop]
        return np.fft.fft(cols, axis=0).T

    return block


def _root_gap(k: int, n: int) -> float:
    """|1 - omega^k| for omega = exp(-2j*pi/N), with k reduced mod N first."""
    return float(abs(1.0 - np.exp(-2j * np.pi * (k % n) / n)))


def commutation_defect(n_dim: int, delay: int, doppler: int,
                       norm: str = "frobenius") -> tuple[float, float]:
    """Norm of [D^m, M^l] together with its first-order bound.

    Returns (defect, bound) where defect = ||D^m M^l - M^l D^m|| and
    bound = 2*pi*|m*l|/N * ||D^m M^l|| with m, l reduced to centered
    representatives in (-N/2, N/2].  D^m M^l - M^l D^m = (omega^(-m*l) - 1) M^l D^m is
    monomial, so both are closed forms in ||D^m M^l||: sqrt(N) (Frobenius) or 1 (spectral).
    """
    n = _check_dim(n_dim)
    shift_norms = {"frobenius": float(np.sqrt(n)), "spectral": 1.0}
    if norm not in shift_norms:
        raise ValueError(f"unknown norm {norm!r}, expected 'frobenius' or 'spectral'")
    mc, lc = centered_index(delay, n), centered_index(doppler, n)
    defect = _root_gap(mc * lc, n) * shift_norms[norm]
    bound = 2.0 * np.pi * abs(mc * lc) / n * shift_norms[norm]
    if not defect <= bound + 1e-12:
        raise ArithmeticError(f"commutation defect {defect!r} exceeds its bound {bound!r}")
    return defect, bound


def spreading_of_product(channel_a, channel_b
                         ) -> tuple[SpreadingFunction, SpreadingFunction, float]:
    """Exact and convolution-approximated spreading of a channel product.

    The spreading function of H_a H_b equals the 2-D cyclic convolution of
    the factors' spreading functions up to per-term unit-modulus phases of
    size at most 2*pi*|m*l|/N; dropping those phases gives the plain cyclic
    convolution.  Returns (exact, approximate, relative Frobenius error).
    """
    sa = spreading_function(channel_a)
    sb = spreading_function(channel_b)
    if sa.n_dim != sb.n_dim:
        raise ValueError("channel dimensions do not match")
    exact = spreading_function(DiscreteChannel(as_matrix(channel_a) @ as_matrix(channel_b)))
    conv = np.fft.ifft2(np.fft.fft2(sa.coeffs) * np.fft.fft2(sb.coeffs))
    approx = SpreadingFunction(conv)
    denom = float(np.linalg.norm(exact.coeffs))
    diff = float(np.linalg.norm(exact.coeffs - conv))
    error = 0.0 if denom == 0.0 and diff == 0.0 else diff / denom
    return exact, approx, error


def approx_eigen_defect(channel, pulse, time_slot: int, freq_bin: int) -> float:
    """Residual of the shifted pulse as an approximate eigenvector.

    The pulse is moved to (time_slot, freq_bin) with the canonical operators,
    u = M^freq_bin D^time_slot g, and compared against lambda * u where
    lambda is the transfer-function sample attached to that position.  Under
    the sign conventions of this module that sample sits at grid index
    ((-time_slot) mod N, (-freq_bin) mod N).  The residual is normalized by
    ||H||_F / sqrt(N), the root mean square eigenvalue magnitude.
    """
    mat = as_matrix(channel)
    n = mat.shape[0]
    g = as_samples(pulse)
    if g.shape != (n,):
        raise ValueError(f"pulse must have shape ({n},), got {g.shape}")
    nrm = np.linalg.norm(g)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise ValueError("pulse must have nonzero finite norm")
    u = tf_shift(g / nrm, int(time_slot), int(freq_bin))
    transfer = tf_transfer(spreading_function(mat))
    lam = transfer.values[(-int(time_slot)) % n, (-int(freq_bin)) % n]
    scale = float(np.linalg.norm(mat)) / np.sqrt(n)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(mat @ u - lam * u)) / scale


def box_spread(tau_max: float, nu_max: float) -> float:
    """Dispersion product 4 * tau_max * nu_max of a circumscribing rectangle."""
    if tau_max < 0 or nu_max < 0:
        raise ValueError("maximal delay and Doppler must be nonnegative")
    return 4.0 * float(tau_max) * float(nu_max)


def spread_metrics(spreading: SpreadingFunction,
                   sample_rate: float | None = None) -> SpreadMetrics:
    """Support statistics and underspread classification.

    Delay and Doppler extents are measured on centered representatives.
    With ``sample_rate`` fs the delay unit is 1/fs seconds and the Doppler
    unit fs/N Hz; without it fs = 1 (samples and cycles per sample).  The
    box spread 4*tau_max*nu_max is invariant to this calibration.
    """
    if sample_rate is not None and not 0 < sample_rate < np.inf:
        raise ValueError("sample_rate must be positive and finite")
    fs = 1.0 if sample_rate is None else float(sample_rate)
    n = spreading.n_dim
    rows, cols, _ = spreading.support_cells
    count = rows.size
    tau_max = int(np.abs(centered_index(rows, n)).max(initial=0)) / fs
    nu_max = int(np.abs(centered_index(cols, n)).max(initial=0)) * fs / n
    return SpreadMetrics(
        support_count=count,
        normalized_spread=count / n,
        box_spread=box_spread(tau_max, nu_max),
        tau_max=tau_max,
        nu_max=nu_max,
        underspread=count <= n,
        underspread_box=box_spread(tau_max, nu_max) <= 1.0,
    )
