#!/usr/bin/env python3
"""Predicted interference power of matched pulse pairs across lattice densities.

Part one sweeps the time-frequency product a*b/N at fixed N: denser
lattices carry more symbols per dimension but leave less room for pulse
localization, so the off-cell energy picked up from a doubly dispersive
channel grows as a*b/N drops toward one.  Part two compares a designed
pair against a same-density CP-OFDM baseline on a larger grid.
"""

import argparse

import numpy as np

from tfcomm import channel_models as cm
from tfcomm import ofdm as om
from tfcomm import wh_frames as wh


def density_sweep(n_dim: int = 48, time_step: int = 8,
                  freq_steps: tuple[int, ...] = (6, 8, 12)) -> None:
    profile = cm.flat_rect_profile(n_dim, 1, 1)
    print(f"density sweep: N = {n_dim}, a = {time_step}, flat 3x3-cell scattering")
    print(f"{'a*b/N':>8} {'P_I':>12} {'biorth defect':>15}")
    for freq_step in freq_steps:
        grid = wh.WHGrid(n_dim, time_step, freq_step)
        if grid.time_step * grid.freq_step > n_dim:
            tx, rx = om.design_pulses(profile, grid)
        else:
            # a*b = N: the adjoint frame operator is singular, so take the
            # pseudo-root on its range at the cost of a small biorthogonality defect.
            window = wh.gaussian_pulse(n_dim, sigma=om.matched_sigma(profile, grid))
            root = wh.frame_power(window, grid.adjoint(), -0.5, rank_rtol=1e-10)
            tx = rx = wh.Pulse(np.sqrt(grid.tf_product) * root.samples)
        cfg = om.OFDMConfig(grid, tx, rx)
        power = om.interference_power(profile, cfg)
        print(f"{grid.tf_product:8.3f} {power:12.6f} {cfg.biorthogonality_defect:15.2e}")


def baseline_comparison(n_dim: int = 360) -> None:
    grid = wh.WHGrid(n_dim, 20, 24)
    profile = cm.flat_rect_profile(n_dim, 2, 1)
    tx, rx = om.design_pulses(profile, grid)
    designed = om.interference_power(profile, om.OFDMConfig(grid, tx, rx))
    baseline = om.interference_power(profile, om.cp_ofdm_config(n_dim, 15, 5))
    print(f"\nbaseline comparison: N = {n_dim}, a*b/N = {grid.tf_product:.3f}")
    print(f"  designed pair  P_I = {designed:.6f}")
    print(f"  CP-OFDM        P_I = {baseline:.6f}")
    print(f"  ratio          {baseline / designed:.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-baseline", action="store_true",
                        help="only run the density sweep")
    args = parser.parse_args()
    density_sweep()
    if not args.skip_baseline:
        baseline_comparison()


if __name__ == "__main__":
    main()
