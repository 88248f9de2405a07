"""Multicarrier modem: exact decomposition, ambiguity identities, pulse design."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tfcomm.channel_models as cm
import tfcomm.ofdm as ofdm
import tfcomm.wh_frames as wh
from tfcomm.tf_core import SpreadingFunction, synthesize_channel


def modulate_oracle(data, cfg):
    """Direct double sum over all lattice translates."""
    n = cfg.n_dim
    a, b = cfg.grid.time_step, cfg.grid.freq_step
    g = cfg.tx_pulse.samples
    out = np.zeros(n, dtype=complex)
    for t in range(cfg.n_slots):
        for f in range(cfg.n_subcarriers):
            out += data[t, f] * np.roll(g, t * a) * np.exp(
                2j * np.pi * f * b * np.arange(n) / n)
    return out


def ambiguity_oracle(g, gam):
    n = g.size
    out = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for l in range(n):
            out[m, l] = np.sum(g * np.conj(np.roll(gam, m))
                               * np.exp(-2j * np.pi * l * np.arange(n) / n))
    return out


def pinv_tight_pair(window, grid):
    """Rank-tolerant tightening for grids where the frame operator degenerates."""
    s = wh.frame_operator(window, grid.adjoint()).matrix
    evals, evecs = np.linalg.eigh(s)
    keep = evals > 1e-10 * evals.max()
    coef = evecs.conj().T @ wh.as_samples(window)
    h = evecs[:, keep] @ (coef[keep] / np.sqrt(evals[keep]))
    p = wh.Pulse(np.sqrt(grid.time_step * grid.freq_step / grid.n_dim) * h)
    return p, p


def descent_oracle(profile, grid, n_sweeps, step):
    """The descent loop with dense tightening and every trial scored through a
    full OFDMConfig; returns the kept pair and, per step, its interference power."""
    window = wh.gaussian_pulse(grid.n_dim, sigma=ofdm.matched_sigma(profile, grid)).samples
    pair = pinv_tight_pair(window, grid)
    best = ofdm.interference_power(profile, ofdm.OFDMConfig(grid, *pair))
    powers = [best]
    for _ in range(n_sweeps):
        improved = False
        for idx in range(grid.n_dim):
            for delta in (step, -step, 1j * step, -1j * step):
                trial = window.copy()
                trial[idx] += delta
                cand = pinv_tight_pair(trial, grid)
                power = ofdm.interference_power(profile, ofdm.OFDMConfig(grid, *cand))
                if power < best:
                    window, best, pair, improved = trial, power, cand, True
            powers.append(ofdm.interference_power(profile, ofdm.OFDMConfig(grid, *pair)))
        if not improved:
            break
    return pair, powers


# ---------------------------------------------------------------------------
# configs


def test_config_validation():
    with pytest.raises(ValueError):
        ofdm.OFDMConfig(wh.WHGrid(16, 2, 4), wh.rect_pulse(16, 2), wh.rect_pulse(16, 2))
    cfg = ofdm.cp_ofdm_config(64, 16, 16)
    assert (cfg.n_slots, cfg.n_subcarriers) == (2, 16)
    assert cfg.spectral_efficiency == pytest.approx(0.5)
    assert cfg.biorthogonality_defect <= 1e-12


def test_cp_config_divisibility():
    with pytest.raises(ValueError):
        ofdm.cp_ofdm_config(64, 16, 4)  # 20 does not divide 64
    with pytest.raises(ValueError):
        ofdm.cp_ofdm_config(64, 12, 4)  # 12 does not divide 64
    zero_cp = ofdm.cp_ofdm_config(64, 16, 0)
    assert zero_cp.spectral_efficiency == pytest.approx(1.0)
    assert zero_cp.biorthogonality_defect <= 1e-12


def test_cp_pulse_shapes():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    tx, rx = cfg.tx_pulse.samples, cfg.rx_pulse.samples
    assert np.all(tx[:16] == 1 / 4.0) and np.all(tx[16:] == 0)
    assert np.all(rx[4:16] == 4 / 12.0) and rx[0] == 0 and np.all(rx[16:] == 0)


def test_random_symbols():
    cfg = ofdm.cp_ofdm_config(64, 16, 16)
    q = ofdm.random_symbols(cfg, 3)
    assert q.data.shape == (2, 16)
    assert np.abs(np.abs(q.data) - 1.0).max() <= 1e-12
    assert np.array_equal(q.data, ofdm.random_symbols(cfg, 3).data)
    g = ofdm.random_symbols(cfg, 3, constellation="gaussian")
    assert g.data.shape == (2, 16)
    with pytest.raises(ValueError):
        ofdm.random_symbols(cfg, 3, constellation="qam1024")


# ---------------------------------------------------------------------------
# modulate / demodulate


def test_modulate_single_symbol_is_pulse():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    data = np.zeros((cfg.n_slots, cfg.n_subcarriers))
    data[0, 0] = 1.0
    x = ofdm.modulate(ofdm.SymbolFrame(data), cfg)
    assert np.abs(x - cfg.tx_pulse.samples).max() <= 1e-14
    zero = ofdm.modulate(ofdm.SymbolFrame(np.zeros_like(data) + 0j), cfg)
    assert np.abs(zero).max() == 0.0


def test_modulate_matches_double_sum_oracle():
    cfg = ofdm.cp_ofdm_config(64, 16, 16)
    frame = ofdm.random_symbols(cfg, 11)
    x = ofdm.modulate(frame, cfg)
    assert np.abs(x - modulate_oracle(frame.data, cfg)).max() <= 1e-12


def test_modulate_shape_check():
    cfg = ofdm.cp_ofdm_config(64, 16, 16)
    with pytest.raises(ValueError):
        ofdm.modulate(ofdm.SymbolFrame(np.ones((3, 3), dtype=complex)), cfg)


def test_demodulate_orthonormal_unit_projection():
    cfg = ofdm.cp_ofdm_config(16, 4, 0)
    gamma00 = cfg.rx_pulse.samples
    out = ofdm.demodulate(gamma00, cfg).data
    ref = np.zeros_like(out)
    ref[0, 0] = 1.0
    assert np.abs(out - ref).max() <= 1e-12


def test_demodulate_matches_inner_product_oracle():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    out = ofdm.demodulate(y, cfg).data
    a, b = 16, 4
    for t in range(cfg.n_slots):
        for f in range(cfg.n_subcarriers):
            gam = np.roll(cfg.rx_pulse.samples, t * a) * np.exp(
                2j * np.pi * f * b * np.arange(48) / 48)
            assert abs(out[t, f] - np.vdot(gam, y)) <= 1e-12


def test_round_trip_through_identity():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    frame = ofdm.random_symbols(cfg, 2)
    back = ofdm.demodulate(ofdm.modulate(frame, cfg), cfg)
    assert np.abs(back.data - frame.data).max() <= 1e-10


# ---------------------------------------------------------------------------
# transmit_through decomposition


def test_identity_channel_decomposition():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    frame = ofdm.random_symbols(cfg, 7)
    res = ofdm.transmit_through(frame, cfg, np.eye(48, dtype=complex))
    assert np.abs(res.gains - 1.0).max() <= 1e-12
    assert np.abs(res.interference).max() <= 1e-12
    assert res.decomposition_residual() <= 1e-12


def test_circulant_channel_exact_dft_gains():
    n = 64
    cfg = ofdm.cp_ofdm_config(n, 16, 16)
    rng = np.random.default_rng(1)
    for _ in range(10):
        taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)  # delay < cp = 16
        ch = synthesize_channel(cm.time_invariant(taps, n))
        frame = ofdm.random_symbols(cfg, 9)
        res = ofdm.transmit_through(frame, cfg, ch)
        signal_energy = np.mean(np.abs(res.gains * frame.data) ** 2)
        assert res.interference_energy() / signal_energy <= 1e-20
        h_pad = np.zeros(n, dtype=complex)
        h_pad[:8] = taps
        dft_gain = np.fft.fft(h_pad)[::n // 16]
        assert np.abs(res.gains - dft_gain[None, :]).max() <= 1e-10


def test_echo_beyond_prefix_leaks():
    n = 64
    cfg = ofdm.cp_ofdm_config(n, 16, 16)
    frame = ofdm.random_symbols(cfg, 0)
    inside = synthesize_channel(cm.time_invariant([1.0, 0.5], n, delays=[0, 10]))
    outside = synthesize_channel(cm.time_invariant([1.0, 0.5], n, delays=[0, 20]))
    assert ofdm.transmit_through(frame, cfg, inside).interference_energy() <= 1e-25
    assert ofdm.transmit_through(frame, cfg, outside).interference_energy() > 1e-3


def test_noisy_decomposition_stays_exact():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    frame = ofdm.random_symbols(cfg, 3)
    ch = synthesize_channel(cm.wssus_sample(cm.flat_rect_profile(48, 2, 1), 17))
    res = ofdm.transmit_through(frame, cfg, ch, noise_psd=0.1, seed=4)
    assert res.decomposition_residual() <= 1e-12 * max(1.0, np.abs(res.estimates).max())
    assert np.abs(res.noise).max() > 0.0
    rerun = ofdm.transmit_through(frame, cfg, ch, noise_psd=0.1, seed=4)
    assert np.array_equal(res.noise, rerun.noise)
    assert np.array_equal(res.estimates, rerun.estimates)


def test_transmit_validates():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    frame = ofdm.random_symbols(cfg, 0)
    with pytest.raises(ValueError):
        ofdm.transmit_through(frame, cfg, np.eye(32, dtype=complex))
    with pytest.raises(ValueError):
        ofdm.transmit_through(frame, cfg, np.eye(48, dtype=complex), noise_psd=-1.0)


def test_config_caches_lattice_matrices_and_ambiguity():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    assert cfg.tx_matrix is cfg.tx_matrix
    assert np.array_equal(cfg.tx_matrix, wh.lattice_matrix(cfg.tx_pulse, cfg.grid))
    assert np.array_equal(cfg.rx_matrix, wh.lattice_matrix(cfg.rx_pulse, cfg.grid))
    assert np.array_equal(cfg.ambiguity, ofdm.cross_ambiguity(cfg.tx_pulse, cfg.rx_pulse))
    with pytest.raises(ValueError):
        cfg.tx_matrix[0, 0] = 0.0


# ---------------------------------------------------------------------------
# spreading-domain Monte Carlo


def dense_frames(cfg, channel, n_frames, seed, noise_psd, constellation):
    """simulate_frames oracle: dense channel matrix and transmit_through per frame."""
    out = np.empty((n_frames, 4))
    for idx in range(n_frames):
        spreading = channel
        if isinstance(channel, cm.ScatteringProfile):
            spreading = cm.wssus_sample(channel, [seed, idx, 0])
        frame = ofdm.random_symbols(cfg, [seed, idx, 1], constellation)
        res = ofdm.transmit_through(frame, cfg, synthesize_channel(spreading),
                                    noise_psd, [seed, idx, 2])
        out[idx] = (np.mean(np.abs(res.gains * frame.data) ** 2), res.interference_energy(),
                    np.mean(np.abs(res.noise) ** 2),
                    np.mean(np.abs(res.estimates - frame.data) ** 2))
    return out


@st.composite
def monte_carlo_systems(draw):
    n = draw(st.sampled_from([8, 12, 16, 18, 24, 32, 36, 48, 64]))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    kind = draw(st.sampled_from(["cp_ofdm", "gaussian", "designed"]))
    if kind == "cp_ofdm":
        n_sub = draw(st.sampled_from(divisors))
        cp = draw(st.sampled_from([c for c in range(n - n_sub + 1) if n % (n_sub + c) == 0]))
        return ofdm.cp_ofdm_config(n, n_sub, cp)
    strict = kind == "designed"
    a, b = draw(st.sampled_from([(a, b) for a in divisors for b in divisors
                                 if a * b > n or (a * b == n and not strict)]))
    grid = wh.WHGrid(n, a, b)
    if kind == "gaussian":
        widths = st.floats(min_value=0.5, max_value=n / 2.0)
        return ofdm.OFDMConfig(grid, wh.gaussian_pulse(n, sigma=draw(widths)),
                               wh.gaussian_pulse(n, sigma=draw(widths)))
    try:
        tx, rx = ofdm.design_pulses(cm.flat_rect_profile(n, 1, 1), grid)
    except wh.NotAFrameError:
        assume(False)
    return ofdm.OFDMConfig(grid, tx, rx)


@st.composite
def support_channels(draw, n):
    """A ScatteringProfile or SpreadingFunction on a drawn support, centered cells."""
    lo, hi = -((n - 1) // 2), n // 2
    axis = st.integers(min_value=lo, max_value=hi)
    shape = draw(st.sampled_from(["empty", "delay_only", "doppler_only", "any"]))
    if shape == "empty":
        cells = []
    else:
        cell = st.tuples(axis if shape != "doppler_only" else st.just(0),
                         axis if shape != "delay_only" else st.just(0))
        cells = draw(st.lists(cell, min_size=1, max_size=8, unique=True))
    values = st.floats(min_value=0.05, max_value=2.0)
    if draw(st.booleans()):
        grid = np.zeros((n, n))
        for m, l in cells:
            grid[m % n, l % n] = draw(values)
        return cm.ScatteringProfile(n, grid)
    coeffs = np.zeros((n, n), dtype=complex)
    for m, l in cells:
        coeffs[m % n, l % n] = complex(draw(values), draw(st.floats(-2.0, 2.0)))
    return SpreadingFunction(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data(), monte_carlo_systems(), st.integers(min_value=0, max_value=2**31),
       st.sampled_from([0.0, 0.05]), st.sampled_from(["qpsk", "gaussian"]))
def test_simulate_frames_matches_dense_loop_property(data, cfg, seed, noise_psd,
                                                     constellation):
    """Support-only frames equal the dense per-frame loop on the same substreams."""
    channel = data.draw(support_channels(cfg.n_dim))
    fast = ofdm.simulate_frames(cfg, channel, 3, seed, noise_psd, constellation)
    ref = dense_frames(cfg, channel, 3, seed, noise_psd, constellation)
    assert fast.shape == (3, 4)
    # relative to the frame's largest energy: interference may cancel to rounding
    assert np.all(np.abs(fast - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))


def test_wssus_sample_draws_two_normals_per_support_cell():
    prof = cm.exponential_jakes_profile(32, 1.0, 2)
    rows, cols = np.nonzero(prof.intensities)
    k = rows.size
    assert k == 35
    rng = np.random.default_rng(123)
    spreading = cm.wssus_sample(prof, rng)
    ref = np.random.default_rng(123)
    re, im = ref.standard_normal(k), ref.standard_normal(k)
    assert rng.bit_generator.state == ref.bit_generator.state
    amplitudes = np.sqrt(prof.intensities[rows, cols])
    assert np.array_equal(spreading.coeffs[rows, cols], amplitudes * (re + 1j * im) / np.sqrt(2.0))
    assert np.count_nonzero(spreading.coeffs) == k
    cells = prof.support_cells
    assert cells is prof.support_cells
    assert all(np.array_equal(x, y) for x, y in zip(cells, (rows, cols, amplitudes)))


def test_simulate_frames_validates():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    with pytest.raises(TypeError):
        ofdm.simulate_frames(cfg, np.eye(48, dtype=complex), 1, 0)
    with pytest.raises(ValueError):
        ofdm.simulate_frames(cfg, cm.flat_rect_profile(32, 1, 1), 1, 0)
    with pytest.raises(ValueError):
        ofdm.simulate_frames(cfg, cm.flat_rect_profile(48, 1, 1), 1, 0, noise_psd=-1.0)
    with pytest.raises(ArithmeticError):
        ofdm.simulate_frames(cfg, cm.time_invariant([1e308, 1e308], 48), 1, 0)


# ---------------------------------------------------------------------------
# cross ambiguity


def test_ambiguity_against_oracle_and_moyal():
    rng = np.random.default_rng(8)
    for n in (16, 15, 12):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        amb = ofdm.cross_ambiguity(g, gam)
        assert np.abs(amb - ambiguity_oracle(g, gam)).max() <= 1e-11
        assert amb[0, 0] == pytest.approx(np.vdot(gam, g), abs=1e-12)
        energy = np.sum(np.abs(amb) ** 2)
        assert energy == pytest.approx(n * np.sum(np.abs(g) ** 2) * np.sum(np.abs(gam) ** 2),
                                       rel=1e-12)


def test_auto_ambiguity_peak():
    g = wh.gaussian_pulse(32, 4, 8)
    amb = ofdm.cross_ambiguity(g, g)
    assert amb[0, 0] == pytest.approx(1.0, abs=1e-12)
    mags = np.abs(amb)
    assert mags[0, 0] == pytest.approx(mags.max(), abs=1e-12)


def test_rect_auto_ambiguity_triangle():
    n, length = 32, 8
    amb = ofdm.cross_ambiguity(wh.rect_pulse(n, length), wh.rect_pulse(n, length))
    for m in range(length):
        assert amb[m, 0] == pytest.approx((length - m) / length, abs=1e-12)


def test_biorthogonality_iff_lattice_ambiguity():
    """Unit cross Gram on the lattice exactly when ambiguity samples are delta."""
    n = 48
    prof = cm.flat_rect_profile(n, 1, 1)
    cases = []
    cp = ofdm.cp_ofdm_config(n, 12, 4)
    cases.append((cp.tx_pulse, cp.rx_pulse, cp.grid))
    tx, rx = ofdm.design_pulses(prof, wh.WHGrid(n, 8, 8))
    cases.append((tx, rx, wh.WHGrid(n, 8, 8)))
    cases.append((wh.rect_pulse(n, 8), wh.rect_pulse(n, 8), wh.WHGrid(n, 8, 6)))
    g = wh.gaussian_pulse(n, 8, 8)
    cases.append((g, g, wh.WHGrid(n, 8, 8)))  # not biorthogonal
    bad = wh.Pulse(rx.samples + 0.02 * g.samples)
    cases.append((tx, bad, wh.WHGrid(n, 8, 8)))  # perturbed: not biorthogonal
    seen = set()
    for txp, rxp, grid in cases:
        cfg = ofdm.OFDMConfig(grid, txp, rxp)
        amb = ofdm.cross_ambiguity(txp, rxp)
        rows = (np.arange(grid.n_time) * grid.time_step) % n
        cols = (np.arange(grid.n_freq) * grid.freq_step) % n
        sampled = amb[np.ix_(rows, cols)]
        ref = np.zeros_like(sampled)
        ref[0, 0] = 1.0
        delta_like = np.abs(sampled - ref).max() <= 1e-10
        biorth = cfg.biorthogonality_defect <= 1e-10
        assert delta_like == biorth
        seen.add(biorth)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# interference power


def test_interference_power_zero_cases():
    n = 48
    cfg = ofdm.cp_ofdm_config(n, 12, 4)
    delta = np.zeros((n, n))
    delta[0, 0] = 1.0
    assert ofdm.interference_power(cm.ScatteringProfile(n, delta), cfg) == pytest.approx(0.0, abs=1e-13)
    within_cp = cm.flat_rect_profile(n, 3, 0, min_delay=0)
    assert ofdm.interference_power(within_cp, cfg) == pytest.approx(0.0, abs=1e-13)
    beyond_cp = cm.flat_rect_profile(n, 6, 0, min_delay=0)
    assert ofdm.interference_power(beyond_cp, cfg) > 1e-3


def test_interference_power_matches_monte_carlo():
    """Second-order prediction vs. simulated interference energy, 250 draws."""
    n, k = 32, 250
    prof = cm.flat_rect_profile(n, 1, 1)
    grid = wh.WHGrid(n, 8, 8)
    tx, rx = ofdm.design_pulses(prof, grid)
    cfg = ofdm.OFDMConfig(grid, tx, rx)
    predicted = ofdm.interference_power(prof, cfg)
    vals = np.empty(k)
    for i in range(k):
        ch = synthesize_channel(cm.wssus_sample(prof, [5, i]))
        res = ofdm.transmit_through(ofdm.random_symbols(cfg, [6, i]), cfg, ch)
        vals[i] = res.interference_energy()
    stderr = vals.std(ddof=1) / np.sqrt(k)
    assert abs(vals.mean() - predicted) <= 3.0 * stderr


def test_interference_power_dimension_check():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    with pytest.raises(ValueError):
        ofdm.interference_power(cm.flat_rect_profile(32, 1, 1), cfg)


# ---------------------------------------------------------------------------
# gain / transfer agreement


def test_agreement_zero_for_identity():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    assert ofdm.gain_transfer_agreement(np.eye(48, dtype=complex), cfg) <= 1e-12


def test_agreement_exact_for_circulant_cp():
    n = 64
    cfg = ofdm.cp_ofdm_config(n, 16, 16)
    rng = np.random.default_rng(3)
    taps = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    ch = synthesize_channel(cm.time_invariant(taps, n))
    assert ofdm.gain_transfer_agreement(ch, cfg) <= 1e-10


def test_agreement_decreases_with_spread():
    n = 48
    grid = wh.WHGrid(n, 8, 8)
    means = []
    for extent in [(4, 3), (2, 2), (1, 1)]:
        prof = cm.flat_rect_profile(n, *extent)
        tx, rx = ofdm.design_pulses(prof, grid)
        cfg = ofdm.OFDMConfig(grid, tx, rx)
        devs = [ofdm.gain_transfer_agreement(
            synthesize_channel(cm.wssus_sample(prof, [9, i])), cfg) for i in range(6)]
        means.append(np.mean(devs))
    assert means[0] > means[1] > means[2]


# ---------------------------------------------------------------------------
# pulse design


def test_matched_sigma_values():
    assert ofdm.matched_sigma(cm.flat_rect_profile(360, 2, 1), wh.WHGrid(360, 20, 24)) \
        == pytest.approx(np.sqrt(720.0), abs=1e-12)
    assert ofdm.matched_sigma(cm.flat_rect_profile(48, 0, 0), wh.WHGrid(48, 8, 12)) \
        == pytest.approx(np.sqrt(32.0), abs=1e-12)


def test_design_returns_orthogonal_pair():
    n = 48
    prof = cm.flat_rect_profile(n, 1, 1)
    tx, rx = ofdm.design_pulses(prof, wh.WHGrid(n, 8, 8))
    assert np.array_equal(tx.samples, rx.samples)
    assert tx.norm == pytest.approx(1.0, abs=1e-10)
    cfg = ofdm.OFDMConfig(wh.WHGrid(n, 8, 8), tx, rx)
    assert cfg.biorthogonality_defect <= 1e-10


def test_design_rejects_critical_grid():
    prof = cm.flat_rect_profile(48, 1, 1)
    with pytest.raises(ValueError):
        ofdm.design_pulses(prof, wh.WHGrid(48, 8, 6))
    with pytest.raises(ValueError):
        ofdm.design_pulses(prof, wh.WHGrid(48, 8, 8), method="global_search")


def test_designed_pair_beats_rectangular_cp():
    """Shaped pair vs. rectangular pair at the same spectral efficiency."""
    n = 48
    prof = cm.flat_rect_profile(n, 1, 1)
    grid = wh.WHGrid(n, 8, 8)  # TF = 4/3
    tx, rx = ofdm.design_pulses(prof, grid)
    shaped = ofdm.interference_power(prof, ofdm.OFDMConfig(grid, tx, rx))
    cp = ofdm.cp_ofdm_config(n, 6, 2)  # a = 8, b = 8: equal TF
    rect = ofdm.interference_power(prof, cp)
    assert shaped < rect


def test_interference_nonincreasing_in_tf():
    """More lattice room, less predicted interference, at fixed dispersion."""
    n = 48
    prof = cm.flat_rect_profile(n, 1, 1)
    powers = []
    for b in (6, 8, 12):  # TF = 1, 4/3, 2
        grid = wh.WHGrid(n, 8, b)
        if 8 * b > n:
            tx, rx = ofdm.design_pulses(prof, grid)
        else:
            seed = wh.gaussian_pulse(n, sigma=ofdm.matched_sigma(prof, grid))
            tx, rx = pinv_tight_pair(seed, grid)
        powers.append(ofdm.interference_power(prof, ofdm.OFDMConfig(grid, tx, rx)))
    assert powers[0] >= powers[1] >= powers[2]
    assert powers[0] > 2 * powers[2]


def test_local_search_monotone_and_no_worse():
    n = 32
    prof = cm.flat_rect_profile(n, 1, 1)
    grid = wh.WHGrid(n, 8, 8)
    tx, rx, powers = ofdm.interference_descent(prof, grid, n_sweeps=1, step=0.05)
    assert all(powers[i] >= powers[i + 1] for i in range(len(powers) - 1))
    base_tx, base_rx = ofdm.design_pulses(prof, grid)
    base = ofdm.interference_power(prof, ofdm.OFDMConfig(grid, base_tx, base_rx))
    assert powers[-1] <= base + 1e-15
    cfg = ofdm.OFDMConfig(grid, tx, rx)
    assert cfg.biorthogonality_defect <= 1e-10


def test_descent_powers_match_config_oracle():
    """Each recorded power is the full-config interference power of the pair
    kept at that step, with the trajectory of a dense-tightening oracle."""
    n = 32
    prof = cm.flat_rect_profile(n, 1, 1)
    grid = wh.WHGrid(n, 8, 8)
    tx, rx, powers = ofdm.interference_descent(prof, grid, n_sweeps=2, step=0.05)
    (ref_tx, _), ref_powers = descent_oracle(prof, grid, n_sweeps=2, step=0.05)
    assert len(powers) == len(ref_powers) > 1
    assert powers == pytest.approx(ref_powers, rel=1e-11)
    assert powers[-1] == ofdm.interference_power(prof, ofdm.OFDMConfig(grid, tx, rx))
    assert np.abs(tx.samples - ref_tx.samples).max() <= 1e-12


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_moyal_energy_property(seed):
    n = 16
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amb = ofdm.cross_ambiguity(g, gam)
    ref = n * np.sum(np.abs(g) ** 2) * np.sum(np.abs(gam) ** 2)
    assert np.sum(np.abs(amb) ** 2) == pytest.approx(ref, rel=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.sampled_from([0.0, 0.05]))
def test_decomposition_identity_property(seed, noise_psd):
    n = 24
    cfg = ofdm.cp_ofdm_config(n, 6, 2)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    frame = ofdm.random_symbols(cfg, seed, constellation="gaussian")
    res = ofdm.transmit_through(frame, cfg, h, noise_psd=noise_psd, seed=seed)
    assert res.decomposition_residual() <= 1e-12 * max(1.0, np.abs(res.estimates).max())
