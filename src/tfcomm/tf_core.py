"""Cyclic delay-Doppler operator algebra on length-N signals.

Signals are length-N complex vectors with periodic boundary conditions and
channels are N x N matrices acting on them.  The two canonical unitaries are
the cyclic delay D (ones on the subdiagonal and in the top-right corner) and
the modulation M (diagonal with entries exp(-2j*pi*i/N)).  The N^2 products
M^l D^m, scaled by 1/sqrt(N), are an orthonormal basis of the matrix space
under <A, B> = trace(B^H A); the basis coefficients of a channel are its
delay-Doppler spreading function, and their 2-D Fourier transform is the
time-frequency transfer function.  ``tf_shift`` builds every shifted copy
M^l D^m x in the package: operator matrices, lattice translates, sounding
columns and the rows of the cross-ambiguity function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteChannel",
    "SpreadingFunction",
    "TransferFunction",
    "SpreadMetrics",
    "as_matrix",
    "centered_index",
    "tf_shift",
    "time_shift_op",
    "modulation_op",
    "tf_shift_op",
    "cross_ambiguity",
    "spreading_function",
    "synthesize_channel",
    "tf_transfer",
    "transfer_to_spreading",
    "dd_to_tf_grid",
    "tf_to_dd_grid",
    "commutation_defect",
    "spreading_of_product",
    "approx_eigen_defect",
    "spread_metrics",
    "box_spread",
]

SUPPORT_RTOL = 1e-12


def centered_index(index, n_dim: int):
    """Map indices mod N to centered representatives in (-N/2, N/2]."""
    if n_dim < 1:
        raise ValueError("dimension must be positive")
    half = (n_dim - 1) // 2
    idx = np.asarray(index)
    out = (idx + half) % n_dim - half
    if np.isscalar(index) or idx.ndim == 0:
        return int(out)
    return out


def _check_dim(n_dim: int) -> int:
    n = int(n_dim)
    if n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n_dim}")
    return n


def _signal(pulse) -> np.ndarray:
    """Samples of a pulse, validated when it was built, or a nonempty finite vector."""
    if hasattr(pulse, "samples"):
        return pulse.samples
    x = np.asarray(pulse, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"signal must be a nonempty vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite entries")
    return x


@dataclass(frozen=True)
class DiscreteChannel:
    """A linear channel on length-N cyclic signals, stored as a dense matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"channel matrix must be square, got shape {mat.shape}")
        if mat.shape[0] == 0:
            raise ValueError("channel dimension must be positive")
        if not np.all(np.isfinite(mat)):
            raise ValueError("channel matrix contains non-finite entries")
        object.__setattr__(self, "matrix", mat)

    @property
    def n_dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, signal) -> np.ndarray:
        """Propagate a length-N signal through the channel."""
        x = np.asarray(signal, dtype=complex)
        if x.shape != (self.n_dim,):
            raise ValueError(f"signal must have shape ({self.n_dim},), got {x.shape}")
        return self.matrix @ x

    def compose(self, other) -> "DiscreteChannel":
        """Concatenation self after other, i.e. the matrix product."""
        return DiscreteChannel(self.matrix @ as_matrix(other))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def as_matrix(channel) -> np.ndarray:
    """Coerce a DiscreteChannel or array-like to a validated square matrix."""
    if isinstance(channel, DiscreteChannel):
        return channel.matrix
    return DiscreteChannel(np.asarray(channel)).matrix


@dataclass(frozen=True)
class SpreadingFunction:
    """Delay-Doppler coefficients S[m, l] of a channel.

    coeffs[m, l] is the coefficient of M^l D^m; the support is the set of
    cells whose magnitude exceeds ``zero_threshold``.  When the threshold is
    not given it defaults to SUPPORT_RTOL times the largest magnitude.
    """

    coeffs: np.ndarray
    zero_threshold: float | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
            raise ValueError(f"coefficient grid must be square, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficient grid contains non-finite entries")
        thr = self.zero_threshold
        if thr is None:
            thr = SUPPORT_RTOL * float(np.abs(c).max(initial=0.0))
        if thr < 0:
            raise ValueError("zero_threshold must be nonnegative")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "zero_threshold", float(thr))

    @property
    def n_dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def support_mask(self) -> np.ndarray:
        return np.abs(self.coeffs) > self.zero_threshold

    @property
    def support_count(self) -> int:
        return int(self.support_mask.sum())

    def support_indices(self, centered: bool = False) -> np.ndarray:
        """(K, 2) array of (delay, Doppler) indices on the support."""
        idx = np.argwhere(self.support_mask)
        if centered and idx.size:
            idx = centered_index(idx, self.n_dim)
        return idx


@dataclass(frozen=True)
class TransferFunction:
    """Time-frequency transfer values L[n, k] on the full N x N grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
            raise ValueError(f"transfer grid must be square, got shape {v.shape}")
        object.__setattr__(self, "values", v)

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


def time_shift_op(n_dim: int, shift: int) -> DiscreteChannel:
    """Cyclic delay by ``shift`` samples, the matrix power D^shift."""
    return tf_shift_op(n_dim, shift, 0)


def modulation_op(n_dim: int, shift: int) -> DiscreteChannel:
    """Modulation M^shift, diagonal with entries exp(-2j*pi*i*shift/N)."""
    return tf_shift_op(n_dim, 0, shift)


def tf_shift_op(n_dim: int, delay: int, doppler: int) -> DiscreteChannel:
    """The combined shift M^doppler D^delay without forming the product."""
    n = _check_dim(n_dim)
    return DiscreteChannel(tf_shift(np.eye(n), int(delay), int(doppler)).T)


def cross_ambiguity(tx_pulse, rx_pulse) -> np.ndarray:
    """A[m, l] = sum_i g[i] conj(gamma[(i - m) mod N]) exp(-2j*pi*l*i/N).

    Row m is the DFT of g times the conjugated, m-delayed gamma.  For unit
    vectors the total energy is N (so each of the N^2 cells averages 1/N),
    and biorthogonality of a transmission pair reads off as delta-delta
    samples on the lattice.
    """
    g = _signal(tx_pulse)
    gam = _signal(rx_pulse)
    if g.size != gam.size:
        raise ValueError("pulse lengths differ")
    return np.fft.fft(g * tf_shift(gam.conj(), np.arange(g.size), 0), axis=1)


def _delay_diagonals(mat: np.ndarray) -> np.ndarray:
    """Stack the cyclic delay diagonals: out[m, i] = H[i, (i - m) mod N]."""
    n = mat.shape[0]
    i = np.arange(n)
    return mat[i[None, :], (i[None, :] - i[:, None]) % n]


def spreading_function(channel, zero_threshold: float | None = None,
                       method: str = "fast") -> SpreadingFunction:
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
    return SpreadingFunction(coeffs, zero_threshold)


def synthesize_channel(spreading: SpreadingFunction) -> DiscreteChannel:
    """Rebuild the channel matrix H = sum_{m,l} S[m,l] M^l D^m."""
    coeffs = spreading.coeffs
    n = coeffs.shape[0]
    diagonals = np.fft.fft(coeffs, axis=1)
    i = np.arange(n)
    mat = np.empty((n, n), dtype=complex)
    mat[i[None, :], (i[None, :] - i[:, None]) % n] = diagonals
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
    return TransferFunction(dd_to_tf_grid(spreading.coeffs))


def transfer_to_spreading(transfer: TransferFunction,
                          zero_threshold: float | None = None) -> SpreadingFunction:
    """Invert :func:`tf_transfer`."""
    return SpreadingFunction(tf_to_dd_grid(transfer.values), zero_threshold)


def _matrix_norm(mat: np.ndarray, norm: str) -> float:
    if norm == "frobenius":
        return float(np.linalg.norm(mat))
    if norm == "spectral":
        return float(np.linalg.norm(mat, 2))
    raise ValueError(f"unknown norm {norm!r}, expected 'frobenius' or 'spectral'")


def commutation_defect(n_dim: int, delay: int, doppler: int,
                       norm: str = "frobenius") -> tuple[float, float]:
    """Norm of [D^m, M^l] together with its first-order bound.

    Returns (defect, bound) where defect = ||D^m M^l - M^l D^m|| and
    bound = 2*pi*|m*l|/N * ||D^m M^l|| with m, l reduced to centered
    representatives in (-N/2, N/2].
    """
    n = _check_dim(n_dim)
    d = time_shift_op(n, delay).matrix
    m = modulation_op(n, doppler).matrix
    dm = d @ m
    defect = _matrix_norm(dm - m @ d, norm)
    mc = centered_index(delay, n)
    lc = centered_index(doppler, n)
    bound = 2.0 * np.pi * abs(mc * lc) / n * _matrix_norm(dm, norm)
    assert defect <= bound + 1e-12
    return defect, bound


def spreading_of_product(channel_a, channel_b, zero_threshold: float | None = None
                         ) -> tuple[SpreadingFunction, SpreadingFunction, float]:
    """Exact and convolution-approximated spreading of a channel product.

    The spreading function of H_a H_b equals the 2-D cyclic convolution of
    the factors' spreading functions up to per-term unit-modulus phases of
    size at most 2*pi*|m*l|/N; dropping those phases gives the plain cyclic
    convolution.  Returns (exact, approximate, relative Frobenius error).
    """
    sa = spreading_function(channel_a, zero_threshold)
    sb = spreading_function(channel_b, zero_threshold)
    if sa.n_dim != sb.n_dim:
        raise ValueError("channel dimensions do not match")
    exact = spreading_function(
        DiscreteChannel(as_matrix(channel_a) @ as_matrix(channel_b)), zero_threshold)
    conv = np.fft.ifft2(np.fft.fft2(sa.coeffs) * np.fft.fft2(sb.coeffs))
    approx = SpreadingFunction(conv, zero_threshold)
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
    g = np.asarray(getattr(pulse, "samples", pulse), dtype=complex)
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
    if sample_rate is not None and sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    fs = 1.0 if sample_rate is None else float(sample_rate)
    n = spreading.n_dim
    idx = spreading.support_indices(centered=True)
    count = idx.shape[0]
    if count:
        m_max = int(np.abs(idx[:, 0]).max())
        l_max = int(np.abs(idx[:, 1]).max())
    else:
        m_max = l_max = 0
    tau_max = m_max / fs
    nu_max = l_max * fs / n
    return SpreadMetrics(
        support_count=count,
        normalized_spread=count / n,
        box_spread=box_spread(tau_max, nu_max),
        tau_max=tau_max,
        nu_max=nu_max,
        underspread=count <= n,
        underspread_box=box_spread(tau_max, nu_max) <= 1.0,
    )
