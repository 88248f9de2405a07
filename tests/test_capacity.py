"""Noncoherent low-SNR rate estimates and the bandwidth sweep."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tfcomm.capacity as cap
import tfcomm.channel_models as cm
import tfcomm.ofdm as ofdm


def penalty_oracle(profile, snr, delay_cell, doppler_cell):
    """Cell-by-cell Riemann sum, written independently of the library."""
    area = delay_cell * doppler_cell
    total = 0.0
    for m in range(profile.n_dim):
        for l in range(profile.n_dim):
            total += np.log1p(snr * profile.intensities[m, l] / area) * area
    return total


# ---------------------------------------------------------------------------
# query container


def test_query_defaults_and_areas():
    p = cm.flat_rect_profile(64, 1, 1)  # 9 support cells
    q = cap.CapacityQuery(p, snr=0.5)
    assert q.doppler_cell == pytest.approx(1 / 64)
    assert q.cell_area == pytest.approx(1 / 64)
    assert q.support_area == pytest.approx(9 / 64)
    assert q.awgn_reference == pytest.approx(np.log1p(0.5), abs=1e-15)


def test_query_validation():
    p = cm.flat_rect_profile(16, 1, 1)
    with pytest.raises(ValueError):
        cap.CapacityQuery(p, snr=0.0)
    with pytest.raises(ValueError):
        cap.CapacityQuery(p, snr=1.0, delay_cell=-1.0)
    with pytest.raises(TypeError):
        cap.CapacityQuery(np.ones((4, 4)), snr=1.0)
    for cell in (1e200, 1e-200):  # in range one by one, but not their product
        with pytest.raises(ValueError, match="cell area"):
            cap.CapacityQuery(p, snr=1.0, delay_cell=cell, doppler_cell=cell)
        with pytest.raises(ValueError, match="cell area"):
            cap.bandwidth_sweep(p, 1.0, [1.0, 2.0], cell, cell)


# ---------------------------------------------------------------------------
# closed forms and oracles


def test_uniform_profile_closed_form():
    """Unit-gain uniform support of area d: penalty is exactly d*log(1+rho/d)."""
    n = 64
    p = cm.flat_rect_profile(n, 2, 1)  # 15 cells
    d = 15 / n
    for rho in (0.01, 0.3, 2.0):
        capacity, penalty = cap.capacity_low_snr(cap.CapacityQuery(p, rho))
        assert penalty == pytest.approx(d * np.log1p(rho / d), rel=1e-12)
        assert capacity == pytest.approx(np.log1p(rho) - d * np.log1p(rho / d), rel=1e-12)


def test_penalty_matches_cell_sum_oracle():
    n = 16
    p = cm.exponential_jakes_profile(n, 1.5, 2, total_gain=3.0)
    q = cap.CapacityQuery(p, snr=0.7, delay_cell=2.0, doppler_cell=0.25)
    capacity, penalty = cap.capacity_low_snr(q)
    ref = penalty_oracle(p, 0.7, 2.0, 0.25)
    assert penalty == pytest.approx(ref, rel=1e-12)
    assert capacity == pytest.approx(np.log1p(0.7) - ref, rel=1e-12)


def test_penalty_monotone_in_support_area():
    """Same total gain smeared over more cells costs more rate."""
    n = 64
    rho = 1.0
    penalties = []
    for extent in (1, 2, 4, 8):
        p = cm.flat_rect_profile(n, extent, extent)
        penalties.append(cap.capacity_low_snr(cap.CapacityQuery(p, rho))[1])
    assert all(a < b for a, b in zip(penalties, penalties[1:]))


def test_penalty_monotone_in_snr():
    p = cm.flat_rect_profile(32, 2, 2)
    values = [cap.capacity_low_snr(cap.CapacityQuery(p, rho))[1]
              for rho in (0.1, 0.5, 2.0, 10.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_capacity_below_awgn_reference():
    p = cm.drm_like_profile(32)
    q = cap.CapacityQuery(p, snr=0.8)
    capacity, penalty = cap.capacity_low_snr(q)
    assert penalty > 0
    assert capacity < q.awgn_reference


def test_concentrated_profile_near_awgn():
    """All mass in one cell: the penalty shrinks like (1/N) log(1 + rho N)."""
    n = 256
    grid = np.zeros((n, n))
    grid[0, 0] = 1.0
    p = cm.ScatteringProfile(n, grid)
    rho = 0.5
    capacity, penalty = cap.capacity_low_snr(cap.CapacityQuery(p, rho))
    assert penalty == pytest.approx(np.log1p(rho * n) / n, rel=1e-12)
    assert capacity > 0.9 * np.log1p(rho)


# ---------------------------------------------------------------------------
# bandwidth sweep


def test_sweep_rates_and_interior_maximum():
    n = 64
    p = cm.flat_rect_profile(n, 1, 1)  # support area 9/64 < 1
    w = np.geomspace(0.05, 50.0, 60)
    res = cap.bandwidth_sweep(p, power_budget=1.0, bandwidths=w)
    assert res.has_interior_maximum
    assert 0.05 < res.best_bandwidth < 50.0
    j = 17
    q = cap.CapacityQuery(p, 1.0 / w[j])
    c, pen = cap.capacity_low_snr(q)
    assert res.snrs[j] == pytest.approx(1.0 / w[j], rel=1e-15)
    assert res.capacities[j] == pytest.approx(c, rel=1e-12)
    assert res.penalties[j] == pytest.approx(pen, rel=1e-12)
    assert res.rates[j] == pytest.approx(w[j] * c, rel=1e-12)


def test_sweep_rate_vanishes_at_extremes():
    """Narrowband burns the budget on one dof; wideband drowns in penalty."""
    n = 64
    p = cm.flat_rect_profile(n, 1, 1)
    w = np.geomspace(1e-3, 1e3, 100)
    res = cap.bandwidth_sweep(p, power_budget=1.0, bandwidths=w)
    peak = res.rates.max()
    assert res.rates[0] < 0.2 * peak
    assert res.rates[-1] < 0.2 * peak


def test_sweep_validation():
    p = cm.flat_rect_profile(16, 1, 1)
    with pytest.raises(ValueError):
        cap.bandwidth_sweep(p, power_budget=0.0, bandwidths=[1.0, 2.0])
    with pytest.raises(ValueError):
        cap.bandwidth_sweep(p, power_budget=1.0, bandwidths=[2.0, 1.0])
    with pytest.raises(ValueError):
        cap.bandwidth_sweep(p, power_budget=1.0, bandwidths=[-1.0, 1.0])
    with pytest.raises(ValueError):
        cap.bandwidth_sweep(p, power_budget=1.0, bandwidths=[])
    with pytest.raises(ValueError, match="snr must be positive and finite, got inf"):
        cap.bandwidth_sweep(p, power_budget=1e10, bandwidths=[1e-300, 1.0])


# ---------------------------------------------------------------------------
# property: penalty positivity and AWGN dominance for arbitrary profiles


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=1e-3, max_value=20.0))
def test_penalty_bounds_property(seed, rho):
    n = 12
    rng = np.random.default_rng(seed)
    grid = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    if grid.sum() == 0:
        grid[0, 0] = 1.0
    p = cm.ScatteringProfile(n, grid)
    q = cap.CapacityQuery(p, rho)
    capacity, penalty = cap.capacity_low_snr(q)
    assert penalty > 0
    assert capacity < q.awgn_reference
    # more power never shrinks the penalty
    _, penalty_hi = cap.capacity_low_snr(cap.CapacityQuery(p, rho * 2))
    assert penalty_hi > penalty


# ---------------------------------------------------------------------------
# property: the broadcast sweep equals the cell-by-cell oracle at every bandwidth


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweep_matches_pointwise_queries_property(data):
    n = data.draw(st.integers(1, 24), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    density = data.draw(st.sampled_from([0.05, 0.3, 1.0]), label="density")
    grid = rng.random((n, n)) * 10.0 ** rng.uniform(-3, 3) * (rng.random((n, n)) < density)
    grid.flat[rng.integers(n * n)] = rng.uniform(0.1, 2.0)  # at least one cell with mass
    p = cm.ScatteringProfile(n, grid)
    power = 10.0 ** data.draw(st.floats(-3, 3), label="log10 power")
    w = np.unique(10.0 ** rng.uniform(-4, 4, data.draw(st.integers(1, 30), label="count")))
    delay_cell = data.draw(st.sampled_from([1.0, 0.25, 3.0]), label="delay cell")
    doppler_cell = data.draw(st.sampled_from([None, 0.5, 2.0]), label="doppler cell")
    block = data.draw(st.sampled_from([1, 5, 1 << 20]), label="block cells")
    with mock.patch.object(cap, "_SWEEP_BLOCK_CELLS", block):
        res = cap.bandwidth_sweep(p, power, w, delay_cell, doppler_cell)
    doppler = 1.0 / n if doppler_cell is None else doppler_cell
    for j, bw in enumerate(w):
        pen = penalty_oracle(p, power / bw, delay_cell, doppler)
        c = np.log1p(power / bw) - pen
        assert res.snrs[j] == power / bw
        assert res.penalties[j] == pytest.approx(pen, rel=1e-14, abs=0.0)
        assert abs(res.capacities[j] - c) <= 1e-14 * (np.log1p(power / bw) + pen)
        assert res.rates[j] == bw * res.capacities[j]


# ---------------------------------------------------------------------------
# property: a point query is the sweep at unit bandwidth, to the bit


@st.composite
def profiles(draw):
    """Random grids with at least one mass, sparse to full, over six decades."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    grid = rng.random((n, n)) * 10.0 ** rng.uniform(-3, 3) * (rng.random((n, n)) < density)
    grid.flat[rng.integers(n * n)] = rng.uniform(0.1, 2.0)
    return cm.ScatteringProfile(n, grid)


@settings(max_examples=40, deadline=None)
@given(profiles(), st.floats(1e-3, 1e3), st.sampled_from([1.0, 0.25, 3.0]),
       st.sampled_from([None, 0.5, 2.0]))
@example(cm.flat_rect_profile(64, 1, 1), 0.5, 1.0, None)  # the shipped capacity config
def test_point_capacity_is_unit_bandwidth_sweep_property(profile, snr, delay_cell,
                                                         doppler_cell):
    point = cap.capacity_low_snr(cap.CapacityQuery(profile, snr, delay_cell, doppler_cell))
    sweep = cap.bandwidth_sweep(profile, snr, [1.0], delay_cell, doppler_cell)
    assert point == (sweep.capacities[0], sweep.penalties[0])


# ---------------------------------------------------------------------------
# non-finite scalars are refused where they enter the library


FLAT = cm.flat_rect_profile(16, 1, 1)
CP_OFDM = ofdm.cp_ofdm_config(16, 4, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda bad: cap.CapacityQuery(FLAT, bad),
    lambda bad: cap.CapacityQuery(FLAT, 1.0, delay_cell=bad),
    lambda bad: cap.CapacityQuery(FLAT, 1.0, doppler_cell=bad),
    lambda bad: cap.bandwidth_sweep(FLAT, bad, [1.0, 2.0]),
    lambda bad: cap.bandwidth_sweep(FLAT, 1.0, [1.0, bad]),
    lambda bad: ofdm.simulate_frames(CP_OFDM, FLAT, 2, 0, noise_psd=bad),
    lambda bad: ofdm.transmit_through(ofdm.random_symbols(CP_OFDM, 0), CP_OFDM, np.eye(16),
                                      noise_psd=bad),
], ids=["snr", "delay_cell", "doppler_cell", "power_budget", "bandwidth", "simulate_frames",
        "transmit_through"])
def test_non_finite_scalars_raise_value_error(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)
