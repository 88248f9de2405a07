"""Low-SNR noncoherent rate estimates for WSSUS channels.

When neither end knows the channel realization, the achievable rate at SNR
rho falls below the coherent AWGN value log(1 + rho) by a penalty that
integrates log(1 + rho * C(tau, nu)) over the scattering density.  The
profile grid stores cell masses, so the density is mass per cell area and
the integral is a Riemann sum over the support cells (log 1 = 0 off the
support).  Everything is in nats per degree of freedom; bandwidth enters
only through rho = power / bandwidth in the sweep, which is where the
characteristic interior rate maximum appears; a point query is the sweep
at unit bandwidth.  The approximation is a low-SNR expansion and carries
no asserted error bar at moderate SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_models import ScatteringProfile

__all__ = [
    "CapacityQuery", "BandwidthSweepResult", "capacity_low_snr", "bandwidth_sweep",
]

_SWEEP_BLOCK_CELLS = 1 << 20  # bounds the (bandwidths x support cells) temporaries


@dataclass(frozen=True)
class CapacityQuery:
    """Scattering statistics plus SNR and physical grid cell sizes.

    ``delay_cell`` (seconds) and ``doppler_cell`` (Hz) give each grid cell
    its area; the defaults (1, 1/N) make the full grid cover unit-area-N,
    so a profile supported on K cells has support area K/N.
    """

    profile: ScatteringProfile
    snr: float
    delay_cell: float = 1.0
    doppler_cell: float | None = None

    def __post_init__(self):
        if not isinstance(self.profile, ScatteringProfile):
            raise TypeError("profile must be a ScatteringProfile")
        if not 0 < self.snr < np.inf:
            raise ValueError(f"snr must be positive and finite, got {self.snr}")
        if self.doppler_cell is None:
            object.__setattr__(self, "doppler_cell", 1.0 / self.profile.n_dim)
        if not (0 < self.delay_cell < np.inf and 0 < self.doppler_cell < np.inf):
            raise ValueError("grid cell sizes must be positive and finite")
        if not 0 < self.cell_area < np.inf:  # the product can overflow or underflow
            raise ValueError(f"grid cell area delay_cell * doppler_cell must be positive and "
                             f"finite, got {self.cell_area}")

    @property
    def cell_area(self) -> float:
        return self.delay_cell * self.doppler_cell

    @property
    def support_area(self) -> float:
        return self.profile.support_count * self.cell_area

    @property
    def awgn_reference(self) -> float:
        """Coherent AWGN rate log(1 + rho), nats per degree of freedom."""
        return float(np.log1p(self.snr))


def capacity_low_snr(query: CapacityQuery) -> tuple[float, float]:
    """(capacity, penalty) in nats per degree of freedom.

    penalty = sum over support cells of log(1 + rho * mass / cell_area) *
    cell_area; capacity = log(1 + rho) - penalty.  The penalty vanishes with
    the profile and grows with both rho and the support area, so capacity
    never exceeds the AWGN reference.  This is ``bandwidth_sweep`` at the
    one bandwidth 1, where rho / 1 = rho exactly.
    """
    sweep = bandwidth_sweep(query.profile, query.snr, [1.0], query.delay_cell,
                            query.doppler_cell)
    return float(sweep.capacities[0]), float(sweep.penalties[0])


@dataclass(frozen=True, eq=False)
class BandwidthSweepResult:
    """Rate-versus-bandwidth curve at a fixed receive power budget."""

    bandwidths: np.ndarray
    snrs: np.ndarray
    capacities: np.ndarray
    penalties: np.ndarray
    rates: np.ndarray

    @property
    def best_index(self) -> int:
        return int(np.argmax(self.rates))

    @property
    def best_bandwidth(self) -> float:
        return float(self.bandwidths[self.best_index])

    @property
    def has_interior_maximum(self) -> bool:
        return 0 < self.best_index < self.bandwidths.size - 1


def bandwidth_sweep(profile: ScatteringProfile, power_budget: float, bandwidths,
                    delay_cell: float = 1.0,
                    doppler_cell: float | None = None) -> BandwidthSweepResult:
    """Total rate W * capacity(power_budget / W) over a bandwidth grid.

    Spreading the fixed power over more bandwidth lowers the per-dof SNR;
    the AWGN term saturates while the unknown-channel penalty keeps
    charging per dof, so on a wide enough grid the rate curve peaks at a
    finite interior bandwidth.
    """
    if not 0 < power_budget < np.inf:
        raise ValueError(f"power_budget must be positive and finite, got {power_budget}")
    w = np.asarray(bandwidths, dtype=float).ravel()
    if w.size == 0 or not np.all((0 < w) & (w < np.inf)):
        raise ValueError("bandwidth grid must be nonempty, positive and finite")
    if np.any(np.diff(w) <= 0):
        raise ValueError("bandwidth grid must be strictly increasing")
    with np.errstate(over="ignore"):  # the queries at both extreme SNRs reject inf and 0
        snrs = power_budget / w
    CapacityQuery(profile, snrs[0], delay_cell, doppler_cell)
    area = CapacityQuery(profile, snrs[-1], delay_cell, doppler_cell).cell_area
    masses = profile.support_cells[2]
    step = max(1, _SWEEP_BLOCK_CELLS // max(masses.size, 1))
    pens = np.concatenate([np.log1p(snrs[j:j + step, None] * masses / area).sum(axis=1)
                           for j in range(0, w.size, step)]) * area
    caps = np.log1p(snrs) - pens
    return BandwidthSweepResult(w, snrs, caps, pens, w * caps)
