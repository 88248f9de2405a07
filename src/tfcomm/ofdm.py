"""Pulse-shaping multicarrier modem on the length-N cyclic model.

A transmit window g and receive window gamma are translated along the
transmission lattice (a, b) with a*b >= N; data symbols ride on the
translates.  Demodulation is plain inner products, so the output splits
exactly into gain * symbol + interference + noise.  The cross-ambiguity A
of the pair gives its biorthogonality defect (lattice Gram entries are
samples of A up to unit phases, read off the N/a lattice rows, one
length-N FFT each) and its second-order interference power (the
scattering profile against the lattice-folded |A|^2, read off b rows of
the self-ambiguities on the adjoint lattice plus one row of A per support
delay).  Nothing here builds the N x N grid.  Pulses are built on the
adjoint lattice (N/b, N/a): dual or tight frames there are biorthogonal
or orthogonal transmission sets here.  ``interference_descent`` starts
from such a pair for a channel-matched Gaussian (``design_pulses`` stops
there); a trial of its local search perturbs one seed-window sample, which
enters one orbit of adjoint Walnut blocks, so it solves one block, and a
coordinate's trials are solved and scored as one stack.

The modulator is Gabor synthesis and the demodulator Gabor analysis on
the lattice.  With M = N/b both factor through the Walnut gather
g[r + p*M - n*a] that the frame blocks use: one length-M FFT per slot and
one (b x N/a) product per residue r, O(N^2/a) per signal where the N x size
lattice matrix costs O(N * size).  The config caches the two gathered
stacks; the lattice matrices serve only the dense references, which
build them per call.

Monte Carlo runs (``simulate_frames``) stay in the spreading domain: a
channel is its K support cells S[m, l], the symbol gains are a (frames x K)
@ (K x size) product with one table of phase-rotated ambiguity samples,
and ``tf_core._cell_filter`` filters the signal on tone rows built once per
run, O(K*size + K*N + N^2/a) per frame.  The channel output and the noise
are computed only on the receive support, the samples some receive window
reads (a CP-OFDM receiver drops the prefix).  The dense ``transmit_through``
is the reference it agrees with to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel_models import ScatteringProfile, _complex_normals, _support_draw
from .tf_core import SpreadingFunction, _ambiguity_rows, _cell_filter, _frozen, as_matrix, \
    as_samples, spreading_function, tf_transfer
from .wh_frames import Pulse, WHGrid, _block_power, _gram_defect, _walnut_blocks, \
    _walnut_gather, _walnut_orbits, gaussian_pulse, lattice_matrix, rect_pulse

__all__ = [
    "OFDMConfig", "SymbolFrame", "DemodResult", "cp_ofdm_config", "random_symbols", "modulate",
    "demodulate", "transmit_through", "simulate_frames", "interference_power",
    "gain_transfer_agreement", "design_pulses", "interference_descent", "matched_sigma",
]


# frames per block in simulate_frames: bounds its (block, N) work arrays
_FRAME_BLOCK = 64
# the symbol alphabets _draw_symbols knows, and the QPSK points by quadrant
_CONSTELLATIONS = ("qpsk", "gaussian")
_QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))


@dataclass(frozen=True, eq=False)
class OFDMConfig:
    """Transmission lattice plus transmit/receive window pair.

    The lattice must satisfy a*b >= N (at most one symbol per signal-space
    dimension).  ``biorthogonality_defect``, the largest deviation of the
    lattice cross Gram from the identity (zero: perfect recovery through an
    identity channel), is read off the N/a lattice rows of the
    cross-ambiguity at construction.  The Walnut stacks of the modem and the
    receive support read off them are built read-only on first use and are
    all the config caches; the dense references build the lattice matrices
    per call, and the gain table and the interference power compute only the
    ambiguity rows they read.
    """

    grid: WHGrid
    tx_pulse: Pulse
    rx_pulse: Pulse
    biorthogonality_defect: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.grid, WHGrid):
            raise TypeError("grid must be a WHGrid")
        if self.grid.time_step * self.grid.freq_step < self.grid.n_dim:
            raise ValueError(
                f"transmission needs a*b >= N, got {self.grid.time_step}*{self.grid.freq_step} "
                f"< {self.grid.n_dim}")
        tx = self.tx_pulse if isinstance(self.tx_pulse, Pulse) else Pulse(self.tx_pulse)
        rx = self.rx_pulse if isinstance(self.rx_pulse, Pulse) else Pulse(self.rx_pulse)
        if tx.n_dim != self.grid.n_dim or rx.n_dim != self.grid.n_dim:
            raise ValueError("pulse lengths must match the grid dimension")
        object.__setattr__(self, "tx_pulse", tx)
        object.__setattr__(self, "rx_pulse", rx)
        object.__setattr__(self, "biorthogonality_defect",
                           _gram_defect(tx.samples, rx.samples, self.grid))

    @cached_property
    def _walnut_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The modem's two Walnut stacks, each N^2/a entries, read-only.

        With M = N/b: the (M, b, N/a) stack g[r + p*M - n*a] of the transmit
        window, and the (M, N/a, b) stack conj(gamma[r + p*M - n*a]) of the
        receive window, so block r of each is one residue's matrix.
        """
        index = _walnut_gather(self.grid, np.arange(self.grid.n_freq))
        tx = self.tx_pulse.samples.take(index)
        rx = np.ascontiguousarray(self.rx_pulse.samples.take(index).conj().swapaxes(1, 2))
        return _frozen(tx, rx)

    @cached_property
    def _receive_support(self) -> np.ndarray:
        """Sorted indices r + p*M of the samples where some receive translate is nonzero."""
        return _frozen(np.flatnonzero(self._walnut_pair[1].any(axis=1).T))[0]

    @property
    def n_dim(self) -> int:
        return self.grid.n_dim

    @property
    def n_slots(self) -> int:
        return self.grid.n_time

    @property
    def n_subcarriers(self) -> int:
        return self.grid.n_freq

    @property
    def spectral_efficiency(self) -> float:
        """Symbols per signal-space dimension, N/(a*b) <= 1."""
        return 1.0 / self.grid.tf_product


@dataclass(frozen=True, eq=False)
class SymbolFrame:
    """Data symbols c[n, k] on the (slot, subcarrier) layout."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if d.ndim != 2 or d.size == 0:
            raise ValueError(f"symbol grid must be 2-D and nonempty, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("symbol grid contains non-finite entries")
        object.__setattr__(self, "data", d)


@dataclass(frozen=True, eq=False)
class DemodResult:
    """Exact split of the demodulator output: estimates = gains*symbols + interference + noise."""

    symbols: SymbolFrame
    estimates: np.ndarray
    gains: np.ndarray
    interference: np.ndarray
    noise: np.ndarray

    def decomposition_residual(self) -> float:
        recon = self.gains * self.symbols.data + self.interference + self.noise
        return float(np.abs(self.estimates - recon).max())

    def interference_energy(self) -> float:
        """Mean squared interference per symbol."""
        return float(np.mean(np.abs(self.interference) ** 2))


def cp_ofdm_config(n_dim: int, n_subcarriers: int, cp_len: int) -> OFDMConfig:
    """Classical rectangular system: symbol length n_subcarriers + cp_len.

    The receive window covers the tail n_subcarriers samples of each symbol
    and is scaled so the pair is exactly biorthogonal; through any circulant
    channel with impulse response inside the prefix, symbol gains equal the
    DFT response at the subcarrier frequency with no leakage.
    """
    n_sub = int(n_subcarriers)
    cp = int(cp_len)
    if n_sub < 1 or cp < 0:
        raise ValueError("need n_subcarriers >= 1 and cp_len >= 0")
    if n_dim % n_sub:
        raise ValueError(f"n_subcarriers {n_sub} must divide N = {n_dim}")
    a = n_sub + cp
    if n_dim % a:
        raise ValueError(f"symbol length {a} must divide N = {n_dim}")
    grid = WHGrid(n_dim, a, n_dim // n_sub)
    tx = rect_pulse(n_dim, a)
    rx = np.zeros(n_dim, dtype=complex)
    rx[cp:cp + n_sub] = np.sqrt(a) / n_sub
    return OFDMConfig(grid, tx, Pulse(rx))


def _draw_symbols(rng: np.random.Generator, shape: tuple, constellation: str) -> np.ndarray:
    """Unit-energy symbols (..., slots, subcarriers) in one draw, as per-grid draws would."""
    _check_constellation(constellation)
    if constellation == "qpsk":
        return _QPSK[rng.integers(0, 4, size=shape)]
    return _complex_normals(rng, shape[:-2], shape[-2:]) / np.sqrt(2.0)


def _check_constellation(constellation: str) -> None:
    if constellation not in _CONSTELLATIONS:
        raise ValueError(f"unknown constellation {constellation!r}")


def random_symbols(cfg: OFDMConfig, seed, constellation: str = "qpsk") -> SymbolFrame:
    """Unit-average-energy random symbols on the config layout."""
    shape = (cfg.n_slots, cfg.n_subcarriers)
    return SymbolFrame(_draw_symbols(np.random.default_rng(seed), shape, constellation))


def modulate(frame: SymbolFrame, cfg: OFDMConfig) -> np.ndarray:
    """Synthesize sum_{n,k} c[n,k] g_{n,k} on the Walnut gather (``_synthesize``)."""
    expected = (cfg.n_slots, cfg.n_subcarriers)
    if frame.data.shape != expected:
        raise ValueError(f"symbol grid shape {frame.data.shape} does not match layout {expected}")
    return _synthesize(cfg, frame.data)


def demodulate(signal, cfg: OFDMConfig) -> SymbolFrame:
    """Raw receive projections <y, gamma_{n,k}> on the config layout."""
    y = as_samples(np.ravel(signal), "signal")
    if y.size != cfg.n_dim:
        raise ValueError(f"signal length {y.size} does not match N = {cfg.n_dim}")
    return SymbolFrame(_project(cfg, y))


def _synthesize(cfg: OFDMConfig, symbols: np.ndarray) -> np.ndarray:
    """lattice_matrix(g) @ c for symbols (..., slots, subcarriers), without the matrix.

    With M = N/b, g_{n,k}[r + p*M] = g[r + p*M - n*a] * exp(2j*pi*k*r/M), so
    x[r + p*M] = sum_n g[r + p*M - n*a] * (M * IDFT_M c[n, .])[r]: one
    length-M inverse FFT per slot, then one (b x N/a) @ (N/a x frames)
    product per residue r.  Each leading index is one frame.
    """
    frames = symbols.reshape(-1, cfg.n_slots, cfg.n_subcarriers)
    tones = np.fft.ifft(frames, axis=-1, norm="forward").transpose(2, 1, 0)
    x = cfg._walnut_pair[0] @ np.ascontiguousarray(tones)
    return x.transpose(2, 1, 0).reshape(*symbols.shape[:-2], cfg.n_dim)


def _project(cfg: OFDMConfig, signal: np.ndarray, support=None) -> np.ndarray:
    """Receive projections rx^H signal on the (slot, subcarrier) layout.

    ``signal`` is (..., N), or (..., |support|), its samples at the distinct
    ``support`` of a signal that is zero elsewhere; each leading index is
    projected on its own.  The mirror of ``_synthesize``: c[n, k] = DFT_M
    over r of sum_p conj(gamma[r + p*M - n*a]) * y[r + p*M], one
    (N/a x b) @ (b x frames) product per residue r, then one length-M FFT
    per slot.
    """
    m, support = cfg.n_subcarriers, np.arange(cfg.n_dim) if support is None else support
    frames = np.zeros((m, cfg.grid.freq_step, signal[..., 0].size), dtype=complex)
    frames[support % m, support // m] = signal.reshape(-1, support.size).T
    z = cfg._walnut_pair[1] @ frames
    proj = np.fft.fft(z.transpose(2, 1, 0), axis=-1)
    return proj.reshape(*signal.shape[:-1], cfg.n_slots, cfg.n_subcarriers)


def _dense_gains(h: np.ndarray, cfg: OFDMConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact symbol gains <H g_{n,k}, gamma_{n,k}> and the two lattice matrices they come from."""
    tx, rx = lattice_matrix(cfg.tx_pulse, cfg.grid), lattice_matrix(cfg.rx_pulse, cfg.grid)
    gains = np.einsum("ij,ij->j", rx.conj(), h @ tx)
    return gains.reshape(cfg.n_slots, cfg.n_subcarriers), tx, rx


def _projected_noise(cfg: OFDMConfig, noise_psd: float, rng: np.random.Generator,
                     lead: tuple = ()) -> np.ndarray:
    """Projections of ``lead`` white CN(0, noise_psd) vectors, drawn (in one draw, none at
    psd 0) on the receive support only: no projection reads the other samples."""
    if not noise_psd > 0.0:
        return np.zeros((*lead, cfg.n_slots, cfg.n_subcarriers), dtype=complex)
    noise = _complex_normals(rng, lead, cfg._receive_support.shape)
    return _project(cfg, np.sqrt(noise_psd / 2.0) * noise, cfg._receive_support)


def _checked(estimates: np.ndarray, recon: np.ndarray) -> None:
    """Raise ArithmeticError unless ``recon`` reproduces finite estimates to rounding.

    Both are (..., slots, subcarriers); each leading index is one frame, held
    to 1e-12 of its own largest estimate (at least 1).
    """
    if not np.all(np.isfinite(estimates)):
        raise ArithmeticError("demodulator decomposition failed: non-finite output")
    scale = np.maximum(1.0, np.abs(estimates).max(axis=(-2, -1)))
    if not np.all(np.abs(estimates - recon).max(axis=(-2, -1)) <= 1e-12 * scale):
        raise ArithmeticError("demodulator decomposition failed to reproduce the output")


def transmit_through(frame: SymbolFrame, cfg: OFDMConfig, channel,
                     noise_psd: float = 0.0, seed=None) -> DemodResult:
    """Push symbols through a channel and split the output exactly.

    Gains are the true per-symbol couplings <H g_{n,k}, gamma_{n,k}>;
    interference collects every cross coupling; noise terms come from
    projecting one injected white Gaussian vector (variance noise_psd per
    sample, drawn on the receive support), never from a separate draw, so
    the split reproduces the demodulator output to rounding.  The dense
    reference of ``simulate_frames``: the signal is modulated and projected
    with the lattice matrices, not on the Walnut gather.
    """
    if not 0 <= noise_psd < np.inf:
        raise ValueError(f"noise_psd must be nonnegative and finite, got {noise_psd}")
    h = as_matrix(channel)
    if h.shape[0] != cfg.n_dim:
        raise ValueError(f"channel dimension {h.shape[0]} does not match N = {cfg.n_dim}")
    gains, tx, rx = _dense_gains(h, cfg)
    clean = ((h @ (tx @ frame.data.ravel())).conj() @ rx).conj().reshape(frame.data.shape)
    noise = _projected_noise(cfg, noise_psd, np.random.default_rng(seed))
    estimates, interference = clean + noise, clean - gains * frame.data
    _checked(estimates, gains * frame.data + interference + noise)
    return DemodResult(frame, estimates, gains, interference, noise)


def _gain_table(cfg: OFDMConfig, delays: np.ndarray, dopplers: np.ndarray) -> np.ndarray:
    """Gains of the unit cells M^l D^m, one row per cell, columns in lattice order.

    <M^l D^m g_{n,k}, gamma_{n,k}> = exp(-2j*pi*(k*b*m + l*n*a + l*m)/N) * A[-m, l]
    with A the cross-ambiguity of the pair, of which only the rows -m are
    computed; the phase is reduced mod N in integers before the exponential.
    """
    grid = cfg.grid
    n = grid.n_dim
    m = delays[:, None, None]
    l = dopplers[:, None, None]
    slots = np.arange(grid.n_time)[None, :, None] * grid.time_step
    bins = np.arange(grid.n_freq)[None, None, :] * grid.freq_step
    phase = (bins * m + l * slots + l * m) % n
    rows, row_of_cell = np.unique((-delays) % n, return_inverse=True)
    amb = _ambiguity_rows(cfg.tx_pulse.samples, cfg.rx_pulse.samples, rows)
    amb = amb[row_of_cell, dopplers]
    table = np.exp(-2j * np.pi * phase / n) * amb[:, None, None]
    return table.reshape(delays.size, grid.size)


def simulate_frames(cfg: OFDMConfig, channel, n_frames: int, seed, noise_psd: float = 0.0,
                    constellation: str = "qpsk") -> np.ndarray:
    """Per-frame energies of a Monte Carlo run, computed on the channel and receive supports.

    ``channel`` is a ScatteringProfile, drawn afresh for each frame exactly
    as ``wssus_sample`` draws it, or a SpreadingFunction used for every
    frame on its ``support_cells``.  Each variate kind has one generator per
    run, drawn frame after frame: channels from ``default_rng([seed, 0])``
    (2K normals per frame, profiles only), symbols from [seed, 1] as
    ``random_symbols`` draws them, noise from [seed, 2] on the receive
    support as ``transmit_through`` does (only when noise_psd > 0); the
    channel output is filtered there only.  Frames run in blocks of
    ``_FRAME_BLOCK``, one draw call per kind (consuming a stream as
    per-frame calls would, so a shorter run is a prefix of a longer one) and
    one matrix product per block; frame idx reproduces the dense
    ``transmit_through`` of the same draws to rounding and passes its
    decomposition check against its own largest estimate.  An unknown
    constellation raises ValueError before any table is built; non-finite
    outputs or energies raise ArithmeticError.  Returns an (n_frames, 4)
    array of mean energies per symbol: gain (|gain * symbol|^2),
    interference, noise and error vector (|estimate - symbol|^2).
    """
    n = cfg.n_dim
    if isinstance(channel, ScatteringProfile):
        delays, dopplers, masses = channel.support_cells
        amplitudes, fixed = np.sqrt(masses), None
    elif isinstance(channel, SpreadingFunction):
        delays, dopplers, fixed = channel.support_cells
    else:
        raise TypeError("channel must be a ScatteringProfile or a SpreadingFunction")
    if channel.n_dim != n:
        raise ValueError(f"channel dimension {channel.n_dim} does not match N = {n}")
    if not 0 <= noise_psd < np.inf:
        raise ValueError(f"noise_psd must be nonnegative and finite, got {noise_psd}")
    _check_constellation(constellation)
    table = _gain_table(cfg, delays, dopplers)
    cell_filter = _cell_filter(delays, dopplers, n, cfg._receive_support)
    channel_rng, symbol_rng, noise_rng = (np.random.default_rng([seed, k]) for k in range(3))
    layout = (cfg.n_slots, cfg.n_subcarriers)
    energies = np.empty((n_frames, 4))
    # overflow is reported by the ArithmeticErrors below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_frames, _FRAME_BLOCK):
            stop = min(start + _FRAME_BLOCK, n_frames)
            block = (stop - start,)
            s = np.broadcast_to(fixed, (*block, fixed.size)) if fixed is not None else \
                _support_draw(amplitudes, channel_rng, block)
            symbols = _draw_symbols(symbol_rng, (*block, *layout), constellation)
            x = _synthesize(cfg, symbols)
            gains = (s @ table).reshape(symbols.shape)
            clean = _project(cfg, cell_filter(x, s), cfg._receive_support)
            noise = _projected_noise(cfg, noise_psd, noise_rng, block)
            estimates, interference = clean + noise, clean - gains * symbols
            _checked(estimates, gains * symbols + interference + noise)
            energies[start:stop] = np.stack([np.mean(np.abs(v) ** 2, axis=(1, 2)) for v in (
                gains * symbols, interference, noise, estimates - symbols)], axis=1)
    if not np.all(np.isfinite(energies)):
        raise ArithmeticError("frame energies overflowed to non-finite values")
    return energies


def _interference_score(profile: ScatteringProfile, grid: WHGrid):
    """The scorer (g, gamma) -> interference power of the pair on ``grid``.

    A scatterer at (m, l) with intensity C couples symbol pairs through
    A[-m + j*a, l + k*b] for every lattice translate (j, k) but the origin,
    so it contributes C times the lattice-folded |A|^2 at (-m, l) less
    |A[-m, l]|^2.  The fold is read off the adjoint lattice (the fundamental
    identity of Gabor analysis): with M = N/b and F_x[t, r] = sum over
    i = r (mod a) of x[i] conj(x[i - t*M]) for t < b, the fold at delay r0
    and Doppler l is M Re sum_t exp(-2j*pi*t*l/b) sum_r F_g[t, r]
    conj(F_gamma[t, r - r0]), which is (M/a) Re fft2 of the a-point inverse
    DFTs of F_g times conj(F_gamma).  |A[-m, l]|^2 takes one length-N FFT
    per distinct support delay; a cell's difference (a sum of squares) is
    clipped at 0.  Stacks g, gamma (..., N) score each window as it scores
    alone; the gathers are built once per profile.
    """
    if profile.n_dim != grid.n_dim:
        raise ValueError("profile and grid dimensions differ")
    a, b, n = grid.time_step, grid.freq_step, grid.n_dim
    delays, dopplers, weights = profile.support_cells
    lags = (-delays) % n
    rows, row_of_cell = np.unique(lags, return_inverse=True)
    residues, residue_of_cell = np.unique(lags % a, return_inverse=True)
    samples = np.arange(a)[:, None] + a * np.arange(n // a)
    lagged = (samples[:, None, :] - (n // b) * np.arange(b)[:, None]) % n
    shifted = (np.arange(a) - residues[:, None]) % a
    tones = (n // b) * np.exp(-2j * np.pi * np.outer(np.arange(b), dopplers % b) / b)
    delayed, cell_entries = (np.arange(n) - rows[:, None]) % n, row_of_cell * n + dopplers

    def folds(x: np.ndarray) -> np.ndarray:  # F_x[..., t, r], one product per residue r
        f = x.conj().take(lagged, axis=-1) @ x.take(samples, axis=-1)[..., None]
        return f[..., 0].swapaxes(-1, -2)

    def score(g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        f_g = folds(g)
        f_gamma = f_g if gamma is g else folds(gamma)
        corr = (f_gamma.conj().take(shifted, axis=-1) @ f_g[..., None])[..., 0]
        folded = (corr.take(residue_of_cell, axis=-1) * tones).sum(axis=-2).real
        amb = np.fft.fft(g[..., None, :] * gamma.conj().take(delayed, axis=-1))
        direct = amb.reshape(*amb.shape[:-2], -1).take(cell_entries, axis=-1)
        return (weights * np.maximum(folded - np.abs(direct) ** 2, 0.0)).sum(axis=-1)

    return score


def interference_power(profile: ScatteringProfile, cfg: OFDMConfig) -> float:
    """Mean interference energy per symbol for unit-energy data over WSSUS draws.

    Contracts the scattering profile against the off-lattice ambiguity
    energy, read off the adjoint lattice by the scorer that
    ``interference_descent`` runs; a scatterer at delay m couples symbol
    pairs separated by -m along the ambiguity delay axis.
    """
    return float(_interference_score(profile, cfg.grid)(cfg.tx_pulse.samples, cfg.rx_pulse.samples))


def gain_transfer_agreement(channel, cfg: OFDMConfig) -> float:
    """How far exact symbol gains sit from transfer-grid samples at the lattice.

    Returns max |H_{n,k} - L[lattice point]| normalized by the largest
    sampled |L|.  Zero for the identity; grows with channel spread as the
    pointwise-multiplication picture degrades.
    """
    gains = _dense_gains(as_matrix(channel), cfg)[0]
    n = cfg.n_dim
    transfer = tf_transfer(spreading_function(channel)).values
    rows = (-np.arange(cfg.n_slots) * cfg.grid.time_step) % n
    cols = (np.arange(cfg.n_subcarriers) * cfg.grid.freq_step) % n
    sampled = transfer[np.ix_(rows, cols)]
    scale = np.abs(sampled).max()
    if scale == 0.0:
        return float(np.abs(gains).max())
    return float(np.abs(gains - sampled).max() / scale)


def matched_sigma(profile: ScatteringProfile, grid: WHGrid) -> float:
    """Gaussian width whose time/frequency spread ratio matches the channel.

    Uses sqrt(N * tau_max / nu_max) from the profile support extents; when
    either extent vanishes the grid aspect sqrt(a*N/b) is used instead.
    """
    tau, nu = profile.support_extents()
    if tau > 0 and nu > 0:
        return float(np.sqrt(grid.n_dim * tau / nu))
    return float(np.sqrt(grid.time_step * grid.n_dim / grid.freq_step))


def design_pulses(profile: ScatteringProfile, grid: WHGrid) -> tuple[Pulse, Pulse]:
    """Orthogonal pair from the channel-matched Gaussian tightened on the adjoint lattice.

    The start of ``interference_descent``, returned with no sweeps; a*b > N.
    """
    return interference_descent(profile, grid, 0)[:2]


def interference_descent(profile: ScatteringProfile, grid: WHGrid,
                         n_sweeps: int = 1, step: float = 0.02
                         ) -> tuple[Pulse, Pulse, list[float], int]:
    """Coordinate descent on predicted interference power.

    Starts from the channel-matched Gaussian (``matched_sigma``) tightened
    on the adjoint lattice and scaled by sqrt(a*b/N), an orthogonal pair by
    Wexler-Raz duality (the result with no sweeps); needs a*b > N, as the
    adjoint frame operator degenerates at a*b = N.  A sweep perturbs one
    seed-window sample at a time by step, -step, i*step and -i*step and
    re-tightens: sample i enters only the orbit of adjoint Walnut blocks
    r = i mod gcd(a, N/b), so a trial solves one block of it, runs the
    frame test against the kept spectrum of the others and rewrites the
    orbit's samples of the tight pair, the window ``tight_window`` gives.  A
    coordinate's trials are solved (one batched eigensolve) and scored (the
    scorer of ``interference_power``) as one stack; the first in order that
    is a frame and strictly improves is kept, and only the trials after it
    are stacked again from the new window, so each trial sees the window it
    would see one at a time.  The recorded powers are nonincreasing and end
    at the returned pair's.  Returns (tx, rx, powers, accepted), ``accepted``
    counting the kept trials.
    """
    if n_sweeps < 0 or not 0 < step < np.inf:
        raise ValueError(f"need n_sweeps >= 0 and a finite step > 0, got step={step}")
    if grid.time_step * grid.freq_step <= grid.n_dim:
        raise ValueError(
            f"pulse design needs a*b > N, got {grid.time_step}*{grid.freq_step} "
            f"with N = {grid.n_dim}")
    score = _interference_score(profile, grid)  # checks the profile's dimension
    adjoint = grid.adjoint()
    n_blocks, period = adjoint.n_freq, math.gcd(adjoint.n_freq, adjoint.time_step)
    scale = np.sqrt(grid.time_step * grid.freq_step / grid.n_dim)
    deltas = step * np.array([1, -1, 1j, -1j])
    window = gaussian_pulse(grid.n_dim, sigma=matched_sigma(profile, grid)).samples.copy()
    solved = _walnut_blocks(window, adjoint, _walnut_orbits(adjoint))
    spectrum = solved[0]
    pulse = scale * _block_power(adjoint, solved, spectrum, -0.5).T.ravel()
    best = float(score(pulse, pulse))
    powers, accepted = [best], 0
    orbits = [_walnut_orbits(adjoint, np.arange(r, n_blocks, period)) for r in range(period)]
    for _ in range(n_sweeps):
        for idx in range(grid.n_dim):
            orbit, todo = orbits[idx % period], deltas
            while todo.size:
                trials = window[None].repeat(todo.size, axis=0)
                trials[:, idx] += todo
                solved = _walnut_blocks(trials, adjoint, orbit)
                cand_evals = spectrum[None].repeat(todo.size, axis=0)
                cand_evals[:, orbit.samples[:, 0]] = solved[0]
                values, is_frame = _block_power(adjoint, solved, cand_evals, -0.5)
                cands = pulse[None].repeat(todo.size, axis=0)
                cands[:, orbit.samples] = scale * values
                trial_powers = score(cands, cands)
                better = np.flatnonzero(is_frame & (trial_powers < best))
                if not better.size:
                    break
                j = better[0]
                window, spectrum, pulse = trials[j], cand_evals[j], cands[j]
                best, accepted, todo = float(trial_powers[j]), accepted + 1, todo[j + 1:]
            powers.append(best)
        if powers[-1] == powers[-1 - grid.n_dim]:  # no trial kept in this sweep
            break
    tx = Pulse(pulse)
    return tx, tx, powers, accepted
