"""Multicarrier modem: exact decomposition, ambiguity identities, pulse design."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tfcomm.channel_models as cm
import tfcomm.cli as cli
import tfcomm.identification as ident
import tfcomm.ofdm as ofdm
import tfcomm.tf_core as tf_core
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


def rows_scorer(profile, grid):
    """The interference scorer on full ambiguity rows: the (delay residues mod a) *
    N/a rows at delays -m (mod a), one length-N FFT each through ``_ambiguity_rows``,
    folded over the lattice."""
    a, b, n = grid.time_step, grid.freq_step, grid.n_dim
    delays, dopplers, _ = profile.support_cells
    weights = profile.intensities[delays, dopplers]
    lags = (-delays) % n
    residues, residue_of_cell = np.unique(lags % a, return_inverse=True)
    rows = (residues[:, None] + a * np.arange(n // a)).ravel()
    row_of_cell = residue_of_cell * (n // a) + lags // a

    def score(g, gamma):
        energy = np.abs(tf_core._ambiguity_rows(g, gamma, rows)) ** 2
        folded = energy.reshape(residues.size, n * n // (a * b), b).sum(axis=1)
        return float(np.sum(weights * (folded[residue_of_cell, dopplers % b]
                                       - energy[row_of_cell, dopplers])))

    return score


def per_trial_descent(profile, grid, n_sweeps, step):
    """The block-local descent one trial at a time, the Walnut orbit maps built
    for every trial and every trial scored alone by the library scorer; returns
    (pulse, powers, accepted, skipped), ``skipped`` counting trials that fail the
    frame test."""
    adjoint = grid.adjoint()
    n_blocks, block_size = adjoint.n_freq, adjoint.freq_step
    period = math.gcd(n_blocks, adjoint.time_step)
    scale = np.sqrt(grid.time_step * grid.freq_step / grid.n_dim)
    window = wh.gaussian_pulse(grid.n_dim, sigma=ofdm.matched_sigma(profile, grid)).samples.copy()
    solved = wh._walnut_blocks(window, adjoint, wh._walnut_orbits(adjoint))
    spectrum = solved[0]
    pulse = scale * wh._block_power(adjoint, solved, spectrum, -0.5).T.ravel()
    score = ofdm._interference_score(profile, grid)
    best = float(score(pulse, pulse))
    powers, accepted, skipped = [best], 0, 0
    for _ in range(n_sweeps):
        improved = False
        for idx in range(grid.n_dim):
            blocks = np.arange(idx % period, n_blocks, period)
            samples = blocks[:, None] + n_blocks * np.arange(block_size)
            for delta in (step, -step, 1j * step, -1j * step):
                trial = window.copy()
                trial[idx] += delta
                solved = wh._walnut_blocks(trial, adjoint, wh._walnut_orbits(adjoint, blocks))
                cand_spectrum = spectrum.copy()
                cand_spectrum[blocks] = solved[0]
                try:
                    values = wh._block_power(adjoint, solved, cand_spectrum, -0.5)
                except wh.NotAFrameError:
                    skipped += 1
                    continue
                cand = pulse.copy()
                cand[samples] = scale * values
                power = float(score(cand, cand))
                if power < best:
                    window, spectrum, pulse, best = trial, cand_spectrum, cand, power
                    improved, accepted = True, accepted + 1
            powers.append(best)
        if not improved:
            break
    return pulse, powers, accepted, skipped


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


def former_random_symbols(cfg, seed, constellation):
    """``random_symbols`` as it was before it drew through ``_draw_symbols``."""
    rng = np.random.default_rng(seed)
    shape = (cfg.n_slots, cfg.n_subcarriers)
    if constellation == "qpsk":
        return np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, size=shape)))
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@pytest.mark.parametrize("constellation", ["qpsk", "gaussian"])
@pytest.mark.parametrize("seed", [3, [3, 7, 1], "generator"])
def test_random_symbols_bit_identical_to_former_body(seed, constellation):
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    seeds = [np.random.default_rng(5), np.random.default_rng(5)] if seed == "generator" \
        else [seed, seed]
    data = ofdm.random_symbols(cfg, seeds[0], constellation).data
    assert np.array_equal(data, former_random_symbols(cfg, seeds[1], constellation))
    if seed == "generator":  # both consumed the same draws
        assert seeds[0].bit_generator.state == seeds[1].bit_generator.state


def test_projected_noise_bit_identical_to_former_body():
    """Five noise vectors in one draw equal five one-vector draws of the former body."""
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    rng, ref = np.random.default_rng([9, 2]), np.random.default_rng([9, 2])
    former = np.array([ref.standard_normal(48) + 1j * ref.standard_normal(48) for _ in range(5)])
    expected = ofdm._project(cfg, np.sqrt(0.3 / 2.0) * former)
    assert np.array_equal(ofdm._projected_noise(cfg, 0.3, rng, (5,)), expected)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(ofdm._projected_noise(cfg, 0.0, rng, (5,)), np.zeros_like(expected))
    assert rng.bit_generator.state == ref.bit_generator.state  # no noise, no draw


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


@st.composite
def walnut_modems(draw):
    """A config on random (N, a, b) with a*b >= N, compact or full-support windows."""
    n = draw(st.sampled_from([1, 2, 6, 8, 12, 16, 18, 24, 30, 32, 48, 64]))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    a, b = draw(st.sampled_from([(a, b) for a in divisors for b in divisors if a * b >= n]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def window():
        kind = draw(st.sampled_from(["rect", "gaussian", "random"]))
        if kind == "rect":
            return wh.rect_pulse(n, draw(st.integers(1, n)), draw(st.integers(0, n - 1)))
        if kind == "gaussian":
            return wh.gaussian_pulse(n, sigma=draw(st.floats(min_value=0.5, max_value=2.0 * n)))
        return wh.Pulse(rng.standard_normal(n) + 1j * rng.standard_normal(n))

    cfg = ofdm.OFDMConfig(wh.WHGrid(n, a, b), window(), window())
    return cfg, draw(st.sampled_from([(), (1,), (3,), (2, 2)])), rng


@settings(max_examples=200, deadline=None)
@given(walnut_modems())
def test_walnut_modem_matches_lattice_matrices_property(case):
    """Synthesis is lattice_matrix(g) @ c and analysis lattice_matrix(gamma)^H y, per frame."""
    cfg, frames, rng = case
    layout = frames + (cfg.n_slots, cfg.n_subcarriers)
    symbols = rng.standard_normal(layout) + 1j * rng.standard_normal(layout)
    signal = rng.standard_normal(frames + (cfg.n_dim,)) \
        + 1j * rng.standard_normal(frames + (cfg.n_dim,))
    tx = wh.lattice_matrix(cfg.tx_pulse, cfg.grid)
    rx = wh.lattice_matrix(cfg.rx_pulse, cfg.grid)
    synthesized = ofdm._synthesize(cfg, symbols)
    projected = ofdm._project(cfg, signal)
    assert synthesized.shape == frames + (cfg.n_dim,) and projected.shape == layout
    for frame in np.ndindex(frames):
        for fast, ref in ((synthesized[frame], tx @ symbols[frame].ravel()),
                          (projected[frame].ravel(), rx.conj().T @ signal[frame])):
            assert np.linalg.norm(fast - ref) <= 1e-12 * max(1.0, float(np.linalg.norm(ref)))


def test_simulate_frames_forms_no_lattice_sized_array():
    # each N x size lattice matrix alone would take 16 MiB here
    profile = cm.flat_rect_profile(1024, 1, 1)
    tracemalloc.start()
    try:
        ofdm.simulate_frames(ofdm.cp_ofdm_config(1024, 64, 0), profile, 4, 3, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024


def test_fixed_channel_support_is_the_spread_metrics_support(monkeypatch):
    """simulate_frames reads the cells spread_metrics counts: |S| > SUPPORT_RTOL * max |S|."""
    cfg = ofdm.cp_ofdm_config(48, 12, 4)
    paths = [(0, 0, 1.0), (2, 1, 0.5j)]
    channel = cm.from_specular(paths + [(-1, 3, 1e-14)], 48)
    read, gain_table = [], ofdm._gain_table
    monkeypatch.setattr(ofdm, "_gain_table", lambda cfg, delays, dopplers: (
        read.append(delays.size), gain_table(cfg, delays, dopplers))[1])
    energies = ofdm.simulate_frames(cfg, channel, 3, 5, 0.01)
    zeroed = cm.from_specular(paths, 48)
    assert np.array_equal(energies, ofdm.simulate_frames(cfg, zeroed, 3, 5, 0.01))
    assert read == [2, 2] == [tf_core.spread_metrics(channel).support_count] * 2


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


def test_config_caches_read_only_walnut_pair():
    cfg = ofdm.cp_ofdm_config(48, 12, 4)  # a = 16, b = 4, M = N/b = 12
    tx, rx = cfg._walnut_pair
    assert cfg._walnut_pair is cfg._walnut_pair
    r, p, n = np.ogrid[:12, :4, :3]
    index = (r + 12 * p - 16 * n) % 48
    assert np.array_equal(tx, cfg.tx_pulse.samples[index])
    assert np.array_equal(rx, cfg.rx_pulse.samples[index].conj().swapaxes(1, 2))
    for stack in (tx, rx):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0


def test_config_and_interference_power_build_no_lattice_matrix(monkeypatch):
    calls = []
    build = ofdm.lattice_matrix
    monkeypatch.setattr(ofdm, "lattice_matrix", lambda *args: calls.append(args) or build(*args))
    profile = cm.flat_rect_profile(48, 2, 1)
    grid = wh.WHGrid(48, 8, 8)
    for cfg in (ofdm.cp_ofdm_config(48, 12, 4),
                ofdm.OFDMConfig(grid, *ofdm.design_pulses(profile, grid))):
        assert cfg.biorthogonality_defect <= 1e-10
        ofdm.interference_power(profile, cfg)
    assert calls == []


def test_no_run_builds_the_full_ambiguity_grid(monkeypatch, tmp_path):
    calls = []
    full = tf_core.cross_ambiguity

    def counted(*args):
        calls.append(args)
        return full(*args)

    for module in (tf_core, wh, ofdm, ident, cli):
        monkeypatch.setattr(module, "cross_ambiguity", counted, raising=False)
    n = 48
    profile = cm.flat_rect_profile(n, 2, 1)
    grid = wh.WHGrid(n, 8, 8)
    tx, rx, _, _ = ofdm.interference_descent(profile, grid, n_sweeps=1, step=0.05)
    for cfg in (ofdm.cp_ofdm_config(n, 12, 4), ofdm.OFDMConfig(grid, tx, rx)):
        ofdm.interference_power(profile, cfg)
        ofdm.simulate_frames(cfg, profile, 3, 0)
    wh.check_wexler_raz(tx, rx, grid.adjoint())
    ident.offgrid_ambiguity(ident.dirac_train(n, 4), ident.centered_rect_support(3, 4))
    assert calls == []
    design = {"kind": "pulse-design", "n_dim": 24, "time_step": 4, "freq_step": 8,
              "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1},
              "method": "local_search", "baseline": {"n_subcarriers": 6, "cp_len": 2}}
    cli.run_experiment("pulse-design", design, tmp_path)
    assert calls == []  # the ambiguity heatmap computes its rows block by block


# ---------------------------------------------------------------------------
# spreading-domain Monte Carlo


def dense_frames(cfg, channel, n_frames, seed, noise_psd, constellation):
    """simulate_frames oracle: dense channel matrix and transmit_through per frame.

    The run's three generators, channel [seed, 0], symbols [seed, 1] and
    noise [seed, 2], are drawn one frame at a time.
    """
    channel_rng, symbol_rng, noise_rng = (np.random.default_rng([seed, k]) for k in range(3))
    out = np.empty((n_frames, 4))
    for idx in range(n_frames):
        spreading = channel
        if isinstance(channel, cm.ScatteringProfile):
            spreading = cm.wssus_sample(channel, channel_rng)
        frame = ofdm.random_symbols(cfg, symbol_rng, constellation)
        res = ofdm.transmit_through(frame, cfg, synthesize_channel(spreading), noise_psd,
                                    noise_rng)
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


@pytest.mark.parametrize("channel", [
    cm.exponential_jakes_profile(16, 1.0, 1, max_delay=2),
    cm.from_specular([(0, 0, 0.9), (-2, 1, 0.3 - 0.2j), (1, -1, 0.1j)], 16),
], ids=["profile", "fixed"])
def test_simulate_frames_across_block_boundaries(channel):
    """Every frame of a multi-block run matches the dense loop, and a frame's
    position inside a block does not change its result beyond rounding."""
    cfg = ofdm.OFDMConfig(wh.WHGrid(16, 4, 8), wh.gaussian_pulse(16, sigma=2.0),
                          wh.gaussian_pulse(16, sigma=3.0))
    n_frames = 2 * ofdm._FRAME_BLOCK + 3
    fast = ofdm.simulate_frames(cfg, channel, n_frames, 11, 0.05, "gaussian")
    ref = dense_frames(cfg, channel, n_frames, 11, 0.05, "gaussian")
    assert fast.shape == (n_frames, 4)
    assert np.all(np.abs(fast - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))
    short = ofdm.simulate_frames(cfg, channel, 3, 11, 0.05, "gaussian")
    assert np.all(np.abs(fast[:3] - short) <= 1e-12 * short.max(axis=1, keepdims=True))


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
    masses = prof.intensities[rows, cols]
    assert all(np.array_equal(x, y) for x, y in zip(cells, (rows, cols, masses)))


@pytest.mark.parametrize("noise_psd", [0.0, 0.05])
@pytest.mark.parametrize("channel", [
    cm.exponential_jakes_profile(16, 1.0, 1, max_delay=2),
    cm.from_specular([(0, 0, 0.9), (-2, 1, 0.3 - 0.2j)], 16),
], ids=["profile", "fixed"])
def test_simulate_frames_builds_one_generator_per_kind(monkeypatch, channel, noise_psd):
    """A run of several blocks builds three generators, channel, symbols and noise."""
    cfg = ofdm.OFDMConfig(wh.WHGrid(16, 4, 8), wh.gaussian_pulse(16, sigma=2.0),
                          wh.gaussian_pulse(16, sigma=3.0))
    seeds = []
    default_rng = np.random.default_rng

    def counting(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    ofdm.simulate_frames(cfg, channel, 2 * ofdm._FRAME_BLOCK + 5, 4, noise_psd)
    assert seeds == [[4, 0], [4, 1], [4, 2]]


@pytest.mark.parametrize("noise_psd", [0.0, 0.05])
@pytest.mark.parametrize("constellation", ["qpsk", "gaussian"])
@pytest.mark.parametrize("channel", [
    cm.exponential_jakes_profile(15, 1.0, 1, max_delay=2),
    cm.from_specular([(0, 0, 0.9), (-2, 1, 0.3 - 0.2j)], 15),
], ids=["profile", "fixed"])
def test_simulate_frames_draws_do_not_depend_on_block_size(monkeypatch, channel, constellation,
                                                           noise_psd):
    """Blocks of 1, 5 or 64 frames give the same energies and leave every
    generator in the same state, on an odd per-frame symbol count (3 x 5)."""
    cfg = ofdm.cp_ofdm_config(15, 5, 0)
    assert (cfg.n_slots, cfg.n_subcarriers) == (3, 5)
    default_rng = np.random.default_rng
    runs = []
    for block in (1, 5, 64):
        rngs = []

        def keeping(seed=None):
            rngs.append(default_rng(seed))
            return rngs[-1]

        monkeypatch.setattr(ofdm, "_FRAME_BLOCK", block)
        monkeypatch.setattr(np.random, "default_rng", keeping)
        energies = ofdm.simulate_frames(cfg, channel, 13, 6, noise_psd, constellation)
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        runs.append((energies, [rng.bit_generator.state for rng in rngs]))
    (ref, ref_states), *others = runs
    assert len(ref_states) == 3
    for energies, states in others:
        assert np.all(np.abs(energies - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))
        assert states == ref_states


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


def test_simulate_frames_rejects_constellation_before_building(monkeypatch):
    cfg = ofdm.cp_ofdm_config(48, 12, 4)

    def refuse(*args):
        raise AssertionError("an unknown constellation must be refused first")

    monkeypatch.setattr(ofdm, "_gain_table", refuse)
    monkeypatch.setattr(ofdm, "_walnut_orbits", refuse)
    monkeypatch.setattr(ofdm, "lattice_matrix", refuse)
    with pytest.raises(ValueError, match="unknown constellation 'qam1024'"):
        ofdm.simulate_frames(cfg, cm.flat_rect_profile(48, 1, 1), 2, 0, constellation="qam1024")


# ---------------------------------------------------------------------------
# cross ambiguity


def test_ambiguity_against_oracle_and_moyal():
    rng = np.random.default_rng(8)
    for n in (16, 15, 12):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        amb = tf_core.cross_ambiguity(g, gam)
        assert np.abs(amb - ambiguity_oracle(g, gam)).max() <= 1e-11
        assert amb[0, 0] == pytest.approx(np.vdot(gam, g), abs=1e-12)
        energy = np.sum(np.abs(amb) ** 2)
        assert energy == pytest.approx(n * np.sum(np.abs(g) ** 2) * np.sum(np.abs(gam) ** 2),
                                       rel=1e-12)


def test_auto_ambiguity_peak():
    g = wh.gaussian_pulse(32, 4, 8)
    amb = tf_core.cross_ambiguity(g, g)
    assert amb[0, 0] == pytest.approx(1.0, abs=1e-12)
    mags = np.abs(amb)
    assert mags[0, 0] == pytest.approx(mags.max(), abs=1e-12)


def test_rect_auto_ambiguity_triangle():
    n, length = 32, 8
    amb = tf_core.cross_ambiguity(wh.rect_pulse(n, length), wh.rect_pulse(n, length))
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
        amb = tf_core.cross_ambiguity(txp, rxp)
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


@pytest.mark.parametrize("n, n_sub, cp", [(48, 12, 4), (64, 16, 16), (96, 8, 4), (120, 10, 5)])
def test_interference_power_within_cp_is_nonnegative_zero(n, n_sub, cp):
    """Every delay spread the prefix covers gives zero interference to rounding and
    never a negative power: each cell's fold-minus-direct energy is a sum of squares."""
    cfg = ofdm.cp_ofdm_config(n, n_sub, cp)
    powers = [ofdm.interference_power(cm.flat_rect_profile(n, m, 0, min_delay=0), cfg)
              for m in range(cp + 1)]
    assert all(0.0 <= p <= 1e-13 for p in powers)


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
    tx, rx, powers, _ = ofdm.interference_descent(prof, grid, n_sweeps=1, step=0.05)
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
    tx, rx, powers, _ = ofdm.interference_descent(prof, grid, n_sweeps=2, step=0.05)
    (ref_tx, _), ref_powers = descent_oracle(prof, grid, n_sweeps=2, step=0.05)
    assert len(powers) == len(ref_powers) > 1
    assert powers == pytest.approx(ref_powers, rel=1e-11)
    assert powers[-1] == ofdm.interference_power(prof, ofdm.OFDMConfig(grid, tx, rx))
    assert np.abs(tx.samples - ref_tx.samples).max() <= 1e-12


def test_descent_trajectory_pinned_at_n96():
    """One sweep at N = 96 keeps the dense oracle's window and powers."""
    n = 96
    prof = cm.flat_rect_profile(n, 2, 2)
    grid = wh.WHGrid(n, 12, 12)
    tx, _, powers, _ = ofdm.interference_descent(prof, grid, n_sweeps=1, step=0.02)
    (ref_tx, _), ref_powers = descent_oracle(prof, grid, n_sweeps=1, step=0.02)
    assert len(powers) == len(ref_powers) == n + 1
    assert powers == pytest.approx(ref_powers, rel=1e-11)
    assert np.abs(tx.samples - ref_tx.samples).max() <= 1e-12


@pytest.mark.parametrize("n, a, b, max_delay, max_doppler", [
    (96, 12, 12, 1, 1), (96, 12, 12, 2, 1), (96, 12, 12, 1, 2), (96, 12, 12, 2, 2),
    (120, 12, 15, 2, 1), (256, 32, 16, 1, 1)])
def test_descent_equals_per_trial_loop(n, a, b, max_delay, max_doppler):
    """Scoring a coordinate's trials as one stack leaves every trial's arithmetic as
    it is alone: the same kept window, powers and accepted trials, exactly."""
    prof = cm.flat_rect_profile(n, max_delay, max_doppler)
    grid = wh.WHGrid(n, a, b)
    tx, rx, powers, accepted = ofdm.interference_descent(prof, grid, n_sweeps=1, step=0.02)
    ref_pulse, ref_powers, ref_accepted, _ = per_trial_descent(prof, grid, n_sweeps=1,
                                                                step=0.02)
    assert rx is tx and np.array_equal(tx.samples, ref_pulse)
    assert powers == ref_powers and len(powers) == n + 1
    assert accepted == ref_accepted > 0


def test_descent_skips_trials_that_are_not_frames():
    """At (48, 48, 4) each adjoint Walnut block is 1 x 1, the energy of one sample
    class mod 12, and in the narrow matched Gaussian (sigma 4) sample 1 carries all
    but under 1e-20 of its class's energy; the trial -step = -window[1] zeroes it, fails the
    frame test inside a stack and is skipped as the per-trial loop skips it (a
    RuntimeWarning would be an error)."""
    n = 48
    prof = cm.flat_rect_profile(n, 1, 3)
    grid = wh.WHGrid(n, n, 4)
    step = wh.gaussian_pulse(n, sigma=ofdm.matched_sigma(prof, grid)).samples[1].real
    tx, _, powers, accepted = ofdm.interference_descent(prof, grid, n_sweeps=1, step=step)
    ref_pulse, ref_powers, ref_accepted, skipped = per_trial_descent(prof, grid, 1, step)
    assert skipped > 0
    assert np.array_equal(tx.samples, ref_pulse) and powers == ref_powers
    assert accepted == ref_accepted > 0


def test_descent_solves_each_coordinate_once(monkeypatch):
    """One batched eigensolve per coordinate's trial stack, plus one per acceptance
    that leaves later trials to re-stack (one trial per eigensolve gives 4N + 1)."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    n = 96
    _, _, powers, accepted = ofdm.interference_descent(
        cm.flat_rect_profile(n, 2, 1), wh.WHGrid(n, 12, 12), n_sweeps=1, step=0.02)
    assert len(powers) == n + 1 and accepted > 0
    assert len(calls) <= 1 + n + accepted


def test_descent_solves_one_block_per_trial(monkeypatch):
    """At (96, 12, 12) a sample enters one orbit of three 8 x 8 adjoint Walnut blocks and
    a trial solves one of them: at most 4 (N + accepted) + 4 matrices per sweep, where a
    solve per block took 1,509."""
    counts, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: counts.append(math.prod(h.shape[:-2])) or eigh(h))
    n = 96
    _, _, powers, accepted = ofdm.interference_descent(
        cm.flat_rect_profile(n, 2, 1), wh.WHGrid(n, 12, 12), n_sweeps=1, step=0.02)
    assert len(powers) == n + 1 and accepted > 0
    assert sum(counts) <= 4 * (n + accepted) + 4


@pytest.mark.parametrize("step", [0.0, -0.02, np.nan, np.inf])
def test_descent_rejects_bad_step(step):
    with pytest.raises(ValueError, match="step"):
        ofdm.interference_descent(cm.flat_rect_profile(32, 1, 1), wh.WHGrid(32, 8, 8), 1, step)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_moyal_energy_property(seed):
    n = 16
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amb = tf_core.cross_ambiguity(g, gam)
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


def full_grid_interference(profile, grid, amb):
    """Interference power from the whole N x N ambiguity grid, folded over the lattice."""
    a, b, n = grid.time_step, grid.freq_step, grid.n_dim
    energy = np.abs(amb) ** 2
    block = energy.reshape(n // a, a, n // b, b).sum(axis=(0, 2))
    folded = np.tile(block, (n // a, n // b)) - energy
    return float(np.sum(profile.intensities * np.roll(folded[::-1], 1, axis=0)))


@st.composite
def wide_lattices(draw, critical=False):
    """(N, a, b) with a*b > N (a*b >= N if ``critical``), a support whose delays wrap
    around N and collide mod a and whose Dopplers repeat mod b in other cosets, and a
    random pair."""
    n = draw(st.integers(min_value=4, max_value=48))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    a, b = draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))
    assume(a * b >= n if critical else a * b > n)
    delays = draw(st.lists(st.integers(-n // 2, n // 2), min_size=1, max_size=6))
    dopplers = draw(st.lists(st.integers(-n // 2, n // 2), min_size=len(delays),
                             max_size=len(delays)))
    delays += [(m + a) % n for m in delays[:2]] + delays[:2]  # same residue mod a
    dopplers += dopplers[:2] + [l + b for l in dopplers[:2]]  # same residue mod b
    return n, a, b, np.array(delays) % n, np.array(dopplers) % n, draw(st.integers(0, 2**31))


@settings(max_examples=80, deadline=None)
@given(wide_lattices(critical=True), st.booleans())
@example((12, 3, 4, np.array([1, 4, 11, 2]), np.array([0, 4, 9, 8]), 7), False)
@example((12, 4, 3, np.array([0, 4, 8, 5]), np.array([1, 4, 11, 2]), 3), True)
def test_scorer_equals_rows_scorer_property(case, self_pair):
    """The adjoint-lattice scorer against the lattice-folded |A|^2 of the FFT rows, to
    1e-12 of the profile mass times the Moyal energy N |g|^2 |gamma|^2 (the score is a
    difference of folded energies), for general and self pairs; a stack of pairs
    scores each pair exactly as it scores alone."""
    n, a, b, delays, dopplers, seed = case
    rng = np.random.default_rng(seed)
    g, gam = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    if self_pair:
        gam = g
    intensities = np.zeros((n, n))
    intensities[delays, dopplers] = rng.random(delays.size) + 0.1
    profile = cm.ScatteringProfile(n, intensities)
    grid = wh.WHGrid(n, a, b)
    score = ofdm._interference_score(profile, grid)
    energy = profile.total_gain * n * np.vdot(g, g).real * np.vdot(gam, gam).real
    assert abs(score(g, gam) - rows_scorer(profile, grid)(g, gam)) <= 1e-12 * energy
    stack = np.stack([g, gam])
    assert list(score(stack, stack[::-1])) == [score(g, gam), score(gam, g)]


@settings(max_examples=60, deadline=None)
@given(wide_lattices())
@example((47, 47, 47, np.array([0, 0, 0]), np.array([45, 45, 45]), 3))  # only the origin folds
def test_ambiguity_rows_and_restricted_consumers_property(case):
    n, a, b, delays, dopplers, seed = case
    rng = np.random.default_rng(seed)
    g, gam = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    amb = tf_core.cross_ambiguity(g, gam)
    lags = rng.integers(-2 * n, 2 * n, size=7)
    assert np.array_equal(tf_core._ambiguity_rows(g, gam, lags), amb[lags % n])

    grid = wh.WHGrid(n, a, b)
    cfg = ofdm.OFDMConfig(grid, g, gam)
    for lattice, constant in ((grid, 1.0), (grid.adjoint(), 0.5)):
        samples = np.abs(amb[::lattice.time_step, ::lattice.freq_step])
        samples[0, 0] = abs(amb[0, 0] - constant)
        assert wh._gram_defect(g, gam, lattice, constant) == pytest.approx(
            float(samples.max()), rel=1e-12)

    intensities = np.zeros((n, n))
    intensities[delays, dopplers] = rng.random(delays.size) + 0.1
    profile = cm.ScatteringProfile(n, intensities)
    reference = full_grid_interference(profile, grid, amb)
    assert rows_scorer(profile, grid)(g, gam) == pytest.approx(reference, rel=1e-12)
    energy = profile.total_gain * n * np.vdot(g, g).real * np.vdot(gam, gam).real
    assert abs(ofdm.interference_power(profile, cfg) - reference) <= 1e-12 * energy

    cells_m, cells_l, _ = profile.support_cells
    m, l = cells_m[:, None, None], cells_l[:, None, None]
    slots = np.arange(grid.n_time)[None, :, None] * a
    bins = np.arange(grid.n_freq)[None, None, :] * b
    phase = np.exp(-2j * np.pi * ((bins * m + l * slots + l * m) % n) / n)
    full_table = (phase * amb[(-cells_m) % n, cells_l][:, None, None]).reshape(cells_m.size, -1)
    table = ofdm._gain_table(cfg, cells_m, cells_l)
    assert np.abs(table - full_table).max() <= 1e-12 * np.abs(full_table).max()
    assert ofdm.interference_power(cm.ScatteringProfile(n, np.zeros((n, n))), cfg) == 0.0


def matched_tight_oracle(profile, grid):
    """sqrt(ab/N) times the matched Gaussian tightened on the adjoint lattice, composed
    from the public frame calls."""
    window = wh.gaussian_pulse(grid.n_dim, sigma=ofdm.matched_sigma(profile, grid))
    tight = wh.tight_window(window, grid.adjoint())
    return np.sqrt(grid.time_step * grid.freq_step / grid.n_dim) * tight.samples


@st.composite
def flat_designs(draw):
    """(N, a, b) with a*b > N and the extents of a centered flat rectangular profile."""
    n = draw(st.integers(min_value=4, max_value=48))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    a, b = draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))
    assume(a * b > n)
    return n, a, b, draw(st.integers(0, n // 2 - 1)), draw(st.integers(0, n // 2 - 1))


@settings(max_examples=60, deadline=None)
@given(flat_designs())
@example((14, 2, 14, 6, 1))  # the matched Gaussian generates no frame on the adjoint lattice
def test_design_pulses_is_matched_tight_pair_property(case):
    """``design_pulses``, the descent with no sweeps, is exactly the matched Gaussian
    tightened on the adjoint lattice, and refuses the same non-frames."""
    n, a, b, max_delay, max_doppler = case
    profile, grid = cm.flat_rect_profile(n, max_delay, max_doppler), wh.WHGrid(n, a, b)
    try:
        expected = matched_tight_oracle(profile, grid)
    except wh.NotAFrameError:
        with pytest.raises(wh.NotAFrameError):
            ofdm.design_pulses(profile, grid)
        return
    tx, rx = ofdm.design_pulses(profile, grid)
    assert np.array_equal(tx.samples, expected) and np.array_equal(rx.samples, expected)
