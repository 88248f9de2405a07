"""Channel constructions: deterministic builders, WSSUS statistics, profiles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tfcomm.channel_models as cm
from tfcomm.capacity import CapacityQuery, capacity_low_snr
from tfcomm.ofdm import cp_ofdm_config, interference_power
from tfcomm.tf_core import dd_to_tf_grid, synthesize_channel, tf_shift_op, tf_transfer


# ---------------------------------------------------------------------------
# scattering profile container


def test_profile_properties():
    grid = np.zeros((8, 8))
    grid[0, 0] = 2.0
    grid[1, 7] = 1.0  # centered (1, -1)
    grid[6, 2] = 0.5  # centered (-2, 2)
    p = cm.ScatteringProfile(8, grid)
    assert p.total_gain == pytest.approx(3.5)
    assert p.support_count == 3
    assert p.support_count / p.n_dim == pytest.approx(3 / 8)
    assert p.support_extents() == (2, 2)
    assert p.scaled(7.0).total_gain == pytest.approx(7.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        cm.ScatteringProfile(4, -np.ones((4, 4)))
    with pytest.raises(ValueError):
        cm.ScatteringProfile(4, np.ones((4, 3)))
    with pytest.raises(ValueError):
        cm.ScatteringProfile(4, np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        cm.ScatteringProfile(4, np.zeros((4, 4))).scaled(1.0)


def test_profile_grid_is_a_read_only_copy():
    """The cached support cells cannot go stale under the profile."""
    grid = np.zeros((8, 8))
    grid[0, 0] = 1.0
    p = cm.ScatteringProfile(8, grid)
    assert p.support_count == 1
    grid[1, 1] = 1.0
    assert p.support_count == 1 and p.intensities[1, 1] == 0.0
    with pytest.raises(ValueError):
        p.intensities[2, 2] = 1.0


# ---------------------------------------------------------------------------
# deterministic builders


def test_specular_single_path_is_shift_operator():
    n = 8
    s = cm.from_specular([(2, 3, 1.5 - 0.5j)], n)
    ref = (1.5 - 0.5j) * tf_shift_op(n, 2, 3).matrix
    assert np.abs(synthesize_channel(s).matrix - ref).max() <= 1e-13


def test_specular_paths_add_coherently():
    n = 8
    s = cm.from_specular([(1, -2, 1.0), (1, -2, -1.0 + 0.5j), (0, 0, 2.0)], n)
    assert s.coeffs[1, -2 % n] == pytest.approx(0.5j)
    assert s.coeffs[0, 0] == pytest.approx(2.0)
    assert np.count_nonzero(s.coeffs) == 2


def test_specular_rejects_off_grid():
    with pytest.raises(ValueError):
        cm.from_specular([(1.5, 0, 1.0)], 8)
    with pytest.raises(ValueError):
        cm.from_specular([(0, 5, 1.0)], 8)  # centered range is [-3, 4]


def test_time_invariant_is_circulant():
    n, gains = 12, [1.0, 0.5j, -0.25]
    h = synthesize_channel(cm.time_invariant(gains, n)).matrix
    ref = sum(g * np.roll(np.eye(n), j, axis=0) for j, g in enumerate(gains))
    assert np.abs(h - ref).max() <= 1e-13
    custom = cm.time_invariant([1.0, 2.0], n, delays=[-1, 3])
    assert custom.coeffs[-1 % n, 0] == pytest.approx(1.0)
    assert custom.coeffs[3, 0] == pytest.approx(2.0)


def test_frequency_dispersive_is_diagonal():
    rng = np.random.default_rng(0)
    m = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    h = synthesize_channel(cm.frequency_dispersive(m)).matrix
    assert np.abs(h - np.diag(m)).max() <= 1e-13


def test_oscillator_point_spectrum_is_derotation():
    """A pure frequency offset must multiply by exp(-2j pi f i / N)."""
    n, f = 16, 3
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    h = synthesize_channel(cm.oscillator_impairment(f, 0, psi, n)).matrix
    ref = np.diag(np.exp(-2j * np.pi * f * np.arange(n) / n))
    assert np.abs(h - ref).max() <= 1e-13


def test_oscillator_matches_direct_superposition():
    """Delay by the timing offset, then multiply by the spectrum's sinusoid sum.

    Sinusoid nu (running as exp(+2j pi nu i / N)) carries the spectrum value
    at (nu + freq_offset) mod N, so the offset slides the whole spectrum.
    """
    n, f, t = 12, 2, 3
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = synthesize_channel(cm.oscillator_impairment(f, t, psi, n)).matrix
    i = np.arange(n)
    nu = np.arange(n)
    weights = psi[(nu + f) % n]
    process = np.exp(2j * np.pi * np.outer(i, nu) / n) @ weights
    ref = np.diag(process) @ np.roll(np.eye(n), t, axis=0)
    assert np.abs(h - ref).max() <= 1e-12


def test_oscillator_validates_spectrum_length():
    with pytest.raises(ValueError):
        cm.oscillator_impairment(0, 0, np.ones(4), 8)


# ---------------------------------------------------------------------------
# WSSUS draws and second-order statistics


def flat_profile(n, md, mv, gain=1.0):
    return cm.flat_rect_profile(n, md, mv, total_gain=gain)


def test_wssus_support_and_determinism():
    p = flat_profile(16, 2, 1, gain=3.0)
    s1 = cm.wssus_sample(p, 42)
    s2 = cm.wssus_sample(p, 42)
    s3 = cm.wssus_sample(p, 43)
    assert np.array_equal(s1.coeffs, s2.coeffs)
    assert not np.array_equal(s1.coeffs, s3.coeffs)
    assert np.abs(s1.coeffs[p.intensities == 0]).max(initial=0.0) == 0.0


def test_wssus_substreams_are_independent_addresses():
    p = flat_profile(8, 1, 1)
    a = cm.wssus_sample(p, [7, 3])
    b = cm.wssus_sample(p, [7, 3])
    c = cm.wssus_sample(p, [7, 4])
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_wssus_cell_variances_match_profile():
    """Sample second moments converge to the prescribed intensities."""
    n, k = 8, 4000
    p = cm.exponential_jakes_profile(n, 1.0, 1, max_delay=2, total_gain=2.0)
    acc = np.zeros((n, n))
    mean = np.zeros((n, n), dtype=complex)
    for i in range(k):
        s = cm.wssus_sample(p, [11, i]).coeffs
        acc += np.abs(s) ** 2
        mean += s
    acc /= k
    mean /= k
    # |S|^2 is exponential with std C, so the k-draw mean has std C/sqrt(k)
    tol = 6.0 * p.intensities / np.sqrt(k) + 1e-12
    assert np.all(np.abs(acc - p.intensities) <= tol)
    assert np.abs(mean).max() <= 6.0 * np.sqrt(p.intensities.max() / (2 * k)) * 2


def test_tf_correlation_values():
    p = flat_profile(8, 1, 1, gain=5.0)
    r = cm.tf_correlation(p)
    assert r.total_gain == pytest.approx(5.0)
    ref = dd_to_tf_grid(p.intensities.astype(complex))
    assert np.abs(r.values - ref).max() <= 1e-12


def test_transfer_correlation_of_draws_matches_dual():
    """Empirical E{L[n+dn,k+dk] L*[n,k]} across draws approaches the dual grid."""
    n, k = 8, 3000
    p = flat_profile(n, 1, 1, gain=2.0)
    acc = np.zeros((n, n), dtype=complex)
    for i in range(k):
        lgrid = tf_transfer(cm.wssus_sample(p, [3, i])).values
        acc += np.fft.ifft2(np.abs(np.fft.fft2(lgrid)) ** 2) / n**2
    acc /= k
    ref = cm.tf_correlation(p).values
    sigma = np.sqrt(np.sum(p.intensities**2) / k)
    assert np.abs(acc - ref).max() <= 6.0 * sigma


def test_correlation_round_trip():
    p = cm.drm_like_profile(16)
    back = cm.scattering_from_correlation(cm.tf_correlation(p))
    assert np.abs(back.intensities - p.intensities).max() <= 1e-12


def test_correlation_inverse_rejects_invalid():
    n = 8
    bogus = cm.TFCorrelation(n, -dd_to_tf_grid(flat_profile(n, 1, 1).intensities.astype(complex)))
    with pytest.raises(ValueError):
        cm.scattering_from_correlation(bogus)


# ---------------------------------------------------------------------------
# Doppler law and presets


def test_jakes_masses_frozen_values():
    m = cm.jakes_doppler_masses(3)
    assert m.sum() == pytest.approx(1.0, abs=1e-14)
    assert m[0] == pytest.approx(0.246751714429, abs=1e-12)
    assert m[3] == pytest.approx(0.091257896686, abs=1e-12)
    assert np.abs(m - m[::-1]).max() <= 1e-15


def test_jakes_masses_are_u_shaped():
    for md in [1, 2, 5, 9]:
        m = cm.jakes_doppler_masses(md)
        assert m.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(m[: md + 1]) <= 1e-15)  # decreasing toward center
        assert m[0] > m[md]
    assert cm.jakes_doppler_masses(0) == pytest.approx([1.0])


def test_flat_rect_profile_shapes():
    p = flat_profile(16, 2, 1, gain=4.0)
    assert p.support_count == 5 * 3
    assert p.support_extents() == (2, 1)
    assert p.total_gain == pytest.approx(4.0)
    vals = p.intensities[p.intensities > 0]
    assert np.ptp(vals) <= 1e-15  # uniform
    causal = cm.flat_rect_profile(16, 3, 0, min_delay=0)
    assert causal.support_extents() == (3, 0)
    assert causal.intensities[-1, :].sum() == 0.0
    with pytest.raises(ValueError):
        cm.flat_rect_profile(16, 1, 1, min_delay=2)


def test_exponential_jakes_profile_marginals():
    p = cm.exponential_jakes_profile(32, 2.0, 2)
    assert p.total_gain == pytest.approx(1.0)
    delay_marginal = p.intensities.sum(axis=1)
    support = np.nonzero(delay_marginal)[0]
    assert support[0] == 0 and support[-1] == 12  # ceil(6 * decay)
    ratios = delay_marginal[support][1:] / delay_marginal[support][:-1]
    assert np.abs(ratios - np.exp(-0.5)).max() <= 1e-12
    doppler_marginal = p.intensities.sum(axis=0)
    ref = cm.jakes_doppler_masses(2)  # centered order, bin -2 first
    assert doppler_marginal[[-2 % 32, -1 % 32, 0, 1, 2]] == pytest.approx(ref, abs=1e-12)


def test_drm_like_profile_structure():
    p = cm.drm_like_profile(24)
    delay_marginal = p.intensities.sum(axis=1)
    assert np.nonzero(delay_marginal)[0].tolist() == [0, 1, 2, 3]
    # relative tap energies follow the requested gains
    assert delay_marginal[:4] / delay_marginal[0] == pytest.approx(
        np.array(cm.DRM_TAP_GAINS), abs=1e-12)
    assert p.total_gain == pytest.approx(1.0)
    # later taps spread over more Doppler bins
    assert np.count_nonzero(p.intensities[3]) > np.count_nonzero(p.intensities[0])


@pytest.mark.parametrize("build, name, value", [
    (lambda: cm.flat_rect_profile(32, 10**12, 1), "max_delay", 10**12),
    (lambda: cm.flat_rect_profile(32, 1, 10**12), "max_doppler", 10**12),
    (lambda: cm.flat_rect_profile(32, 1, 1, min_delay=-10**12), "min_delay", -10**12),
    (lambda: cm.flat_rect_profile(32, 1, 1, min_doppler=-10**12), "min_doppler", -10**12),
    (lambda: cm.exponential_jakes_profile(32, 1.0, 10**12), "max_doppler", 10**12),
    (lambda: cm.exponential_jakes_profile(32, 1.0, 1, max_delay=10**12), "max_delay", 10**12),
    (lambda: cm.drm_like_profile(32, doppler_halfwidths=(0, 1, 1, 10**12)),
     "doppler_halfwidths", 10**12),
], ids=["flat-max_delay", "flat-max_doppler", "flat-min_delay", "flat-min_doppler",
        "jakes-max_doppler", "jakes-max_delay", "drm-doppler_halfwidths"])
def test_profile_builders_check_extents_before_allocating(build, name, value):
    # these used to build range and weight arrays of 10**12 entries (MemoryError)
    with pytest.raises(ValueError,
                       match=rf"^{name} {value} outside centered range \[-15, 16\] for N = 32$"):
        build()


def test_profile_extents_must_be_on_grid():
    with pytest.raises(ValueError, match="max_delay must be an on-grid integer, got 1.5"):
        cm.flat_rect_profile(16, 1.5, 1)
    assert cm.flat_rect_profile(16, 2.0, 1.0).support_count == 15


def test_exponential_jakes_negative_max_delay_is_a_value_error():
    # no delay taps: the empty index array used to be float and raised IndexError
    with pytest.raises(ValueError, match="all-zero profile"):
        cm.exponential_jakes_profile(32, 1.0, 1, max_delay=-1)


def test_exponential_jakes_huge_decay_fills_the_centered_half():
    # 6 * 1e308 overflows to inf; the default max_delay used to raise OverflowError
    p = cm.exponential_jakes_profile(32, 1e308, 1)
    assert p.support_extents() == (15, 1)


def test_preset_dispatch():
    p = cm.preset_profile("flat_rect", 16, max_delay=1, max_doppler=1)
    assert p.support_count == 9
    with pytest.raises(ValueError):
        cm.preset_profile("rayleigh", 16)
    with pytest.raises(TypeError):
        cm.preset_profile("flat_rect", 16, max_delay=1, max_doppler=1, bogus=2)


# ---------------------------------------------------------------------------
# a profile is its support cells


def test_flat_profile_allocates_only_its_cells():
    # the dense 1024 x 1024 grid alone would take 8 MiB
    tracemalloc.start()
    try:
        cm.flat_rect_profile(1024, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_profile_adds_repeated_cells_and_drops_zeros():
    p = cm.drm_like_profile(16, tap_delays=(-1, 0, -1), tap_gains=(1.0, 0.0, 3.0),
                            doppler_halfwidths=(0, 2, 0), total_gain=2.0)
    rows, cols, masses = p.support_cells
    assert rows.tolist() == [15] and cols.tolist() == [0] and masses.tolist() == [2.0]
    assert not any(array.flags.writeable for array in p.support_cells)


@st.composite
def preset_profiles(draw):
    """Presets on small grids; drm-like taps repeat delays and wrap negative ones."""
    n = draw(st.sampled_from([8, 12, 16, 24]))
    lo, hi = -((n - 1) // 2), n // 2
    gain = draw(st.floats(min_value=0.1, max_value=10.0))
    kind = draw(st.sampled_from(["flat_rect", "exponential_jakes", "drm_like"]))
    if kind == "flat_rect":
        min_delay, min_doppler = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
        return cm.flat_rect_profile(n, draw(st.integers(min_delay, hi)),
                                    draw(st.integers(min_doppler, hi)),
                                    min_delay, min_doppler, total_gain=gain)
    if kind == "exponential_jakes":
        return cm.exponential_jakes_profile(n, draw(st.floats(0.2, 5.0)), draw(st.integers(0, -lo)),
                                            max_delay=draw(st.integers(0, hi)), total_gain=gain)
    taps = draw(st.lists(st.tuples(st.one_of(st.sampled_from([-1, 0]), st.integers(lo, hi)),
                                   st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
                                   st.integers(0, -lo)), min_size=1, max_size=6))
    assume(any(tap_gain > 0 for _, tap_gain, _ in taps))
    return cm.drm_like_profile(n, *zip(*taps), total_gain=gain)


@settings(max_examples=80, deadline=None)
@given(preset_profiles(), st.floats(min_value=0.01, max_value=100.0))
def test_cell_built_profile_equals_its_dense_grid_property(p, gain):
    dense = cm.ScatteringProfile(p.n_dim, p.intensities)
    for built, read in zip(p.support_cells, dense.support_cells):
        assert np.array_equal(built, read)
    assert dense.total_gain == pytest.approx(p.total_gain, rel=1e-12)
    assert np.allclose(dense.scaled(gain).support_cells[2], p.scaled(gain).support_cells[2],
                       rtol=1e-12, atol=0.0)
    assert capacity_low_snr(CapacityQuery(dense, 3.0)) == pytest.approx(
        capacity_low_snr(CapacityQuery(p, 3.0)), rel=1e-12)
    cfg = cp_ofdm_config(p.n_dim, 4, 0)
    assert interference_power(dense, cfg) == pytest.approx(interference_power(p, cfg), rel=1e-12)


# ---------------------------------------------------------------------------
# property: dual pair of transforms is lossless for any profile


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_correlation_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    grid = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    p = cm.ScatteringProfile(n, grid)
    back = cm.scattering_from_correlation(cm.tf_correlation(p))
    assert np.abs(back.intensities - p.intensities).max() <= 1e-10
