"""Pulse-shaping multicarrier modem on the length-N cyclic model.

A transmit window g and receive window gamma are translated along the
transmission lattice (a, b) with a*b >= N; data symbols ride on the
translates.  Demodulation is plain inner products, so the output splits
exactly into gain * symbol + interference + noise with no approximation.
The second-order interference predictor contracts the channel scattering
profile against the lattice-folded cross-ambiguity energy of the pulse
pair.  Pulse construction runs through the adjoint lattice (N/b, N/a):
dual or tight frames there are biorthogonal or orthogonal transmission
sets here, which is what makes a Gaussian-shaped orthogonal pair with
a prescribed time/frequency aspect cheap to compute.

Monte Carlo runs (``simulate_frames``) stay in the spreading domain: a
channel is its K support cells S[m, l], never an N x N matrix.  The gain of
symbol (n, k) is linear in S with weights that are phase-rotated samples of
the cross-ambiguity, so one K x size table per run turns every frame's
gains into a vector-matrix product, and the filtered signal is the sum over
delays m of a Doppler-weighted diagonal times the m-delayed transmit
signal.  Per frame this costs O(K*size + U*N + N*size) for U distinct
delays.  The dense ``transmit_through`` is the reference it agrees with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel_models import ScatteringProfile, _support_draw
from .tf_core import SpreadingFunction, as_matrix, cross_ambiguity, spreading_function, \
    tf_shift, tf_transfer
from .wh_frames import NotAFrameError, Pulse, WHGrid, gaussian_pulse, \
    lattice_matrix, rect_pulse, tight_window

__all__ = [
    "OFDMConfig",
    "SymbolFrame",
    "DemodResult",
    "cp_ofdm_config",
    "random_symbols",
    "modulate",
    "demodulate",
    "transmit_through",
    "simulate_frames",
    "interference_power",
    "gain_transfer_agreement",
    "design_pulses",
    "interference_descent",
    "matched_sigma",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class OFDMConfig:
    """Transmission lattice plus transmit/receive window pair.

    The lattice must satisfy a*b >= N (at most one symbol per signal-space
    dimension).  ``biorthogonality_defect`` is the largest deviation of the
    lattice cross Gram from the identity; zero means perfect symbol
    recovery through an identity channel.  The lattice matrices and the
    cross-ambiguity of the pair are computed once per config and read-only.
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
        gram = self.rx_matrix.conj().T @ self.tx_matrix
        defect = np.abs(gram - np.eye(self.grid.size)).max()
        object.__setattr__(self, "biorthogonality_defect", float(defect))

    @cached_property
    def tx_matrix(self) -> np.ndarray:
        """Transmit translates g_{n,k} as columns, in ``lattice_matrix`` order."""
        return _read_only(lattice_matrix(self.tx_pulse, self.grid))

    @cached_property
    def rx_matrix(self) -> np.ndarray:
        """Receive translates gamma_{n,k} as columns, in ``lattice_matrix`` order."""
        return _read_only(lattice_matrix(self.rx_pulse, self.grid))

    @cached_property
    def ambiguity(self) -> np.ndarray:
        """Cross-ambiguity grid of the pair, ``cross_ambiguity(tx, rx)``."""
        return _read_only(cross_ambiguity(self.tx_pulse, self.rx_pulse))

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


@dataclass(frozen=True)
class SymbolFrame:
    """Data symbols c[n, k] on the (slot, subcarrier) layout."""

    data: np.ndarray
    symbol_energy: float = 1.0

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if d.ndim != 2 or d.size == 0:
            raise ValueError(f"symbol grid must be 2-D and nonempty, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("symbol grid contains non-finite entries")
        if self.symbol_energy <= 0:
            raise ValueError("declared symbol energy must be positive")
        object.__setattr__(self, "data", d)

    @property
    def average_energy(self) -> float:
        return float(np.mean(np.abs(self.data) ** 2))


@dataclass(frozen=True)
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


def random_symbols(cfg: OFDMConfig, seed, constellation: str = "qpsk") -> SymbolFrame:
    """Unit-average-energy random symbols on the config layout."""
    rng = np.random.default_rng(seed)
    shape = (cfg.n_slots, cfg.n_subcarriers)
    if constellation == "qpsk":
        data = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, size=shape)))
    elif constellation == "gaussian":
        data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown constellation {constellation!r}")
    return SymbolFrame(data)


def modulate(frame: SymbolFrame, cfg: OFDMConfig) -> np.ndarray:
    """Synthesize sum_{n,k} c[n,k] g_{n,k} as one matrix-vector product."""
    expected = (cfg.n_slots, cfg.n_subcarriers)
    if frame.data.shape != expected:
        raise ValueError(f"symbol grid shape {frame.data.shape} does not match layout {expected}")
    return cfg.tx_matrix @ frame.data.ravel()


def demodulate(signal, cfg: OFDMConfig) -> SymbolFrame:
    """Raw receive projections <y, gamma_{n,k}> on the config layout."""
    y = np.asarray(signal, dtype=complex).ravel()
    if y.size != cfg.n_dim:
        raise ValueError(f"signal length {y.size} does not match N = {cfg.n_dim}")
    return SymbolFrame(_project(cfg, y))


def _project(cfg: OFDMConfig, signal: np.ndarray) -> np.ndarray:
    """Receive projections rx^H signal on the (slot, subcarrier) layout."""
    proj = (cfg.rx_matrix.T @ signal.conj()).conj()
    return proj.reshape(cfg.n_slots, cfg.n_subcarriers)


def _dense_gains(h: np.ndarray, cfg: OFDMConfig) -> np.ndarray:
    """Exact symbol gains <H g_{n,k}, gamma_{n,k}> of a dense channel matrix."""
    gains = np.einsum("ij,ij->j", cfg.rx_matrix.conj(), h @ cfg.tx_matrix)
    return gains.reshape(cfg.n_slots, cfg.n_subcarriers)


def _projected_noise(cfg: OFDMConfig, noise_psd: float, seed) -> np.ndarray:
    """Receive projections of one white CN(0, noise_psd) vector drawn from ``seed``."""
    if not noise_psd > 0.0:
        return np.zeros((cfg.n_slots, cfg.n_subcarriers), dtype=complex)
    rng = np.random.default_rng(seed)
    w = np.sqrt(noise_psd / 2.0) * (rng.standard_normal(cfg.n_dim)
                                    + 1j * rng.standard_normal(cfg.n_dim))
    return _project(cfg, w)


def _checked(result: DemodResult) -> DemodResult:
    """Raise ArithmeticError unless the split reproduces finite estimates to rounding."""
    if not np.all(np.isfinite(result.estimates)):
        raise ArithmeticError("demodulator decomposition failed: non-finite output")
    scale = max(1.0, float(np.abs(result.estimates).max()))
    if not result.decomposition_residual() <= 1e-12 * scale:
        raise ArithmeticError("demodulator decomposition failed to reproduce the output")
    return result


def transmit_through(frame: SymbolFrame, cfg: OFDMConfig, channel,
                     noise_psd: float = 0.0, seed=None) -> DemodResult:
    """Push symbols through a channel and split the output exactly.

    Gains are the true per-symbol couplings <H g_{n,k}, gamma_{n,k}>;
    interference collects every cross coupling; noise terms come from
    projecting one injected white Gaussian vector (variance noise_psd per
    sample), never from a separate draw, so the split reproduces the
    demodulator output to rounding.
    """
    if noise_psd < 0:
        raise ValueError("noise_psd must be nonnegative")
    h = as_matrix(channel)
    if h.shape[0] != cfg.n_dim:
        raise ValueError(f"channel dimension {h.shape[0]} does not match N = {cfg.n_dim}")
    gains = _dense_gains(h, cfg)
    clean = _project(cfg, h @ (cfg.tx_matrix @ frame.data.ravel()))
    noise = _projected_noise(cfg, noise_psd, seed)
    return _checked(DemodResult(frame, clean + noise, gains, clean - gains * frame.data, noise))


def _gain_table(cfg: OFDMConfig, delays: np.ndarray, dopplers: np.ndarray) -> np.ndarray:
    """Gains of the unit cells M^l D^m, one row per cell, columns in lattice order.

    <M^l D^m g_{n,k}, gamma_{n,k}> = exp(-2j*pi*(k*b*m + l*n*a + l*m)/N) * A[-m, l]
    with A the cross-ambiguity of the pair; the phase is reduced mod N in
    integers before the exponential.
    """
    grid = cfg.grid
    n = grid.n_dim
    m = delays[:, None, None]
    l = dopplers[:, None, None]
    slots = np.arange(grid.n_time)[None, :, None] * grid.time_step
    bins = np.arange(grid.n_freq)[None, None, :] * grid.freq_step
    phase = (bins * m + l * slots + l * m) % n
    amb = cfg.ambiguity[(-delays) % n, dopplers]
    table = np.exp(-2j * np.pi * phase / n) * amb[:, None, None]
    return table.reshape(delays.size, grid.size)


def simulate_frames(cfg: OFDMConfig, channel, n_frames: int, seed, noise_psd: float = 0.0,
                    constellation: str = "qpsk") -> np.ndarray:
    """Per-frame energies of a Monte Carlo run, computed on the channel support.

    ``channel`` is a ScatteringProfile, drawn afresh for frame idx from
    substream [seed, idx, 0] exactly as ``wssus_sample`` draws it, or a
    SpreadingFunction used for every frame on its nonzero cells.  Symbols
    come from ``random_symbols(cfg, [seed, idx, 1], constellation)`` and
    noise from substream [seed, idx, 2], so frame idx reproduces the dense
    ``transmit_through`` of the same draws to rounding and passes the same
    decomposition check; non-finite outputs or energies raise
    ArithmeticError.  Returns an (n_frames, 4) array of mean energies per
    symbol: gain (|gain * symbol|^2), interference, noise and error vector
    (|estimate - symbol|^2).
    """
    n = cfg.n_dim
    if isinstance(channel, ScatteringProfile):
        delays, dopplers, _ = channel.support_cells
        fixed = None
    elif isinstance(channel, SpreadingFunction):
        delays, dopplers = np.nonzero(channel.coeffs)
        fixed = channel.coeffs[delays, dopplers]
    else:
        raise TypeError("channel must be a ScatteringProfile or a SpreadingFunction")
    if channel.n_dim != n:
        raise ValueError(f"channel dimension {channel.n_dim} does not match N = {n}")
    if noise_psd < 0:
        raise ValueError("noise_psd must be nonnegative")
    table = _gain_table(cfg, delays, dopplers)
    # H x = sum over distinct delays m of d_m * x[(i - m) mod N], where
    # d_m[i] = sum_l S[m, l] exp(-2j*pi*l*i/N) collects that delay's cells
    taps, tap_of_cell = np.unique(delays, return_inverse=True)
    members = tap_of_cell[None, :] == np.arange(taps.size)[:, None]
    tones = tf_shift(np.ones(n), 0, dopplers)
    # per-frame delays gather x through a precomputed index: a tf_shift call
    # per frame costs several times the gather itself
    delayed = (np.arange(n)[None, :] - taps[:, None]) % n

    energies = np.empty((n_frames, 4))
    # overflow is reported by the ArithmeticErrors below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in range(n_frames):
            s = fixed if fixed is not None else \
                _support_draw(channel, np.random.default_rng([seed, idx, 0]))
            frame = random_symbols(cfg, [seed, idx, 1], constellation)
            x = cfg.tx_matrix @ frame.data.ravel()
            filtered = np.einsum("ui,ui->i", (members * s) @ tones, x[delayed])
            gains = (s @ table).reshape(frame.data.shape)
            clean = _project(cfg, filtered)
            noise = _projected_noise(cfg, noise_psd, [seed, idx, 2])
            result = _checked(DemodResult(frame, clean + noise, gains,
                                          clean - gains * frame.data, noise))
            energies[idx] = (np.mean(np.abs(gains * frame.data) ** 2),
                             result.interference_energy(),
                             np.mean(np.abs(noise) ** 2),
                             np.mean(np.abs(result.estimates - frame.data) ** 2))
    if not np.all(np.isfinite(energies)):
        raise ArithmeticError("frame energies overflowed to non-finite values")
    return energies


def _predicted_interference(profile: ScatteringProfile, grid: WHGrid,
                            ambiguity: np.ndarray) -> float:
    """Interference power of a pair with cross-ambiguity ``ambiguity`` on ``grid``."""
    if profile.n_dim != grid.n_dim:
        raise ValueError("profile and grid dimensions differ")
    a, b = grid.time_step, grid.freq_step
    n = grid.n_dim
    energy = np.abs(ambiguity) ** 2
    # sum of |A|^2 over all nonzero lattice translates, on the full grid
    block = energy.reshape(n // a, a, n // b, b).sum(axis=(0, 2))
    folded = np.tile(block, (n // a, n // b)) - energy
    reflected = np.roll(folded[::-1], 1, axis=0)
    return float(np.sum(profile.intensities * reflected))


def interference_power(profile: ScatteringProfile, cfg: OFDMConfig) -> float:
    """Mean interference energy per symbol for unit-energy data over WSSUS draws.

    Contracts the scattering grid against the off-lattice ambiguity energy;
    the delay axis enters reflected because a scatterer at delay m couples
    symbol pairs separated by -m along the ambiguity delay axis.
    """
    return _predicted_interference(profile, cfg.grid, cfg.ambiguity)


def gain_transfer_agreement(channel, cfg: OFDMConfig) -> float:
    """How far exact symbol gains sit from transfer-grid samples at the lattice.

    Returns max |H_{n,k} - L[lattice point]| normalized by the largest
    sampled |L|.  Zero for the identity; grows with channel spread as the
    pointwise-multiplication picture degrades.
    """
    h = as_matrix(channel)
    gains = _dense_gains(h, cfg)

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


def _tight_pair(window, grid: WHGrid) -> tuple[Pulse, Pulse]:
    """Orthogonal transmission pair from a seed window via the adjoint lattice."""
    tight = tight_window(window, grid.adjoint())
    scale = np.sqrt(grid.time_step * grid.freq_step / grid.n_dim)
    pulse = Pulse(scale * tight.samples)
    return pulse, pulse


def design_pulses(profile: ScatteringProfile, grid: WHGrid,
                  method: str = "matched_gaussian_tight", n_sweeps: int = 1,
                  step: float = 0.02) -> tuple[Pulse, Pulse]:
    """Biorthogonal transmission pair shaped for a scattering profile.

    ``matched_gaussian_tight`` tightens a channel-matched Gaussian on the
    adjoint lattice; ``local_search`` then runs coordinate descent on the
    predicted interference power.  Requires a*b > N strictly: well
    localized biorthogonal pairs only exist with room to spare, and the
    adjoint-lattice frame operator degenerates at a*b = N.
    """
    if grid.time_step * grid.freq_step <= grid.n_dim:
        raise ValueError(
            f"pulse design needs a*b > N, got {grid.time_step}*{grid.freq_step} "
            f"with N = {grid.n_dim}")
    if profile.n_dim != grid.n_dim:
        raise ValueError("profile and grid dimensions differ")
    if method == "matched_gaussian_tight":
        return _tight_pair(gaussian_pulse(grid.n_dim, sigma=matched_sigma(profile, grid)), grid)
    if method == "local_search":
        tx, rx, _ = interference_descent(profile, grid, n_sweeps=n_sweeps, step=step)
        return tx, rx
    raise ValueError(f"unknown method {method!r}")


def interference_descent(profile: ScatteringProfile, grid: WHGrid,
                         n_sweeps: int = 1, step: float = 0.02
                         ) -> tuple[Pulse, Pulse, list[float]]:
    """Coordinate descent on predicted interference power.

    Starts from the matched Gaussian pair and perturbs one seed-window
    coordinate at a time (both quadratures, both signs), re-tightening on
    the adjoint lattice after every trial so biorthogonality stays exact
    and trials are scored without forming the lattice Gram.  Only strict
    improvements are kept, so the recorded power sequence is nonincreasing.
    Returns (tx, rx, powers).
    """
    if n_sweeps < 0 or step <= 0:
        raise ValueError("need n_sweeps >= 0 and step > 0")
    window = gaussian_pulse(grid.n_dim, sigma=matched_sigma(profile, grid)).samples.copy()
    tx, rx = _tight_pair(window, grid)
    best = _predicted_interference(profile, grid, cross_ambiguity(tx, rx))
    powers = [best]
    for _ in range(n_sweeps):
        improved = False
        for idx in range(grid.n_dim):
            for delta in (step, -step, 1j * step, -1j * step):
                trial = window.copy()
                trial[idx] += delta
                try:
                    cand_tx, cand_rx = _tight_pair(trial, grid)
                except NotAFrameError:
                    continue
                power = _predicted_interference(profile, grid,
                                                cross_ambiguity(cand_tx, cand_rx))
                if power < best:
                    window, best = trial, power
                    tx, rx = cand_tx, cand_rx
                    improved = True
            powers.append(best)
        if not improved:
            break
    return tx, rx, powers
