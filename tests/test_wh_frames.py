"""Weyl-Heisenberg frames: lattice systems, bounds, duals, adjoint duality."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tfcomm.wh_frames as wh


def lattice_oracle(g, n, a, b):
    """Column-by-column loop construction of the lattice system."""
    cols = []
    for t in range(n // a):
        for f in range(n // b):
            shifted = np.roll(g, t * a)
            cols.append(shifted * np.exp(2j * np.pi * f * b * np.arange(n) / n))
    return np.column_stack(cols)


def dense_frame_power(g, grid, power, rank_rtol=None):
    """(eigenvalues, S^power g) from a dense eigensolve of the frame operator."""
    evals, evecs = np.linalg.eigh(wh.frame_operator(g, grid).matrix)
    evals = np.maximum(evals, 0.0)
    if rank_rtol is None:
        if evals[-1] <= 0.0 or evals[0] <= wh.FRAME_RANK_RTOL * evals[-1]:
            raise wh.NotAFrameError("dense oracle: not a frame")
        keep = np.ones(evals.size, dtype=bool)
    else:
        keep = evals > rank_rtol * evals[-1]
    coef = evecs.conj().T @ g
    return evals, evecs[:, keep] @ (coef[keep] * evals[keep] ** power)


def random_window(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return g / np.linalg.norm(g)


# ---------------------------------------------------------------------------
# grid and pulse types


def test_grid_properties_and_adjoint():
    grid = wh.WHGrid(24, 4, 6)
    assert grid.n_time == 6 and grid.n_freq == 4 and grid.size == 24
    assert grid.redundancy == pytest.approx(1.0)
    assert grid.tf_product == pytest.approx(1.0)
    adj = grid.adjoint()
    assert (adj.time_step, adj.freq_step) == (4, 6)
    dense = wh.WHGrid(24, 2, 4)
    assert dense.adjoint().time_step == 6 and dense.adjoint().freq_step == 12
    assert dense.adjoint().adjoint() == dense
    assert dense.redundancy * dense.tf_product == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        wh.WHGrid(24, 5, 4)
    with pytest.raises(ValueError):
        wh.WHGrid(24, 4, 0)


def test_pulse_norm_and_validation():
    p = wh.Pulse(np.array([3.0, 4.0]))
    assert p.norm == pytest.approx(5.0)
    assert p.normalized().norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wh.Pulse(np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        wh.Pulse(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# lattice systems and frame bounds


def test_lattice_matrix_matches_loop_oracle():
    n, a, b = 12, 3, 4
    g = random_window(n, 0)
    mat = wh.lattice_matrix(g, wh.WHGrid(n, a, b))
    assert np.abs(mat - lattice_oracle(g, n, a, b)).max() <= 1e-14


def test_orthonormal_rectangular_system():
    """Disjoint rectangles at critical density: a tight orthonormal basis."""
    n, a = 16, 4
    report = wh.frame_bounds(wh.rect_pulse(n, a), wh.WHGrid(n, a, a))
    assert report.is_frame and report.is_tight
    assert report.lower_bound == pytest.approx(1.0, abs=1e-12)
    assert report.upper_bound == pytest.approx(1.0, abs=1e-12)
    assert report.condition == pytest.approx(1.0, abs=1e-12)


def test_frame_operator_equals_rank_one_sum():
    n, a, b = 12, 3, 3
    g = random_window(n, 2)
    grid = wh.WHGrid(n, a, b)
    mat = lattice_oracle(g, n, a, b)
    s_ref = sum(np.outer(mat[:, j], mat[:, j].conj()) for j in range(mat.shape[1]))
    assert np.abs(wh.frame_operator(g, grid).matrix - s_ref).max() <= 1e-12


def test_frame_bounds_are_rayleigh_extremes():
    n = 18
    grid = wh.WHGrid(n, 3, 3)
    g = random_window(n, 3)
    report = wh.frame_bounds(g, grid)
    s = wh.frame_operator(g, grid).matrix
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        quad = np.vdot(x, s @ x).real / np.vdot(x, x).real
        assert report.lower_bound - 1e-9 <= quad <= report.upper_bound + 1e-9


# ---------------------------------------------------------------------------
# dual and tight windows


def test_dual_window_reconstructs():
    n = 24
    grid = wh.WHGrid(n, 4, 4)  # redundancy 1.5
    g = wh.gaussian_pulse(n, 4, 4)
    dual = wh.dual_window(g, grid)
    mat_g = wh.lattice_matrix(g, grid)
    mat_d = wh.lattice_matrix(dual, grid)
    assert np.abs(mat_g @ mat_d.conj().T - np.eye(n)).max() <= 1e-10


def test_tight_window_gives_identity_frame_operator():
    n = 24
    for a, b in [(4, 4), (2, 6), (4, 2)]:
        grid = wh.WHGrid(n, a, b)
        tight = wh.tight_window(wh.gaussian_pulse(n, a, b), grid)
        s = wh.frame_operator(tight, grid).matrix
        assert np.abs(s - np.eye(n)).max() <= 1e-10


def test_dual_of_tight_frame_is_itself_scaled():
    n = 24
    grid = wh.WHGrid(n, 4, 4)
    tight = wh.tight_window(wh.gaussian_pulse(n, 4, 4), grid)
    dual = wh.dual_window(tight, grid)
    assert np.abs(dual.samples - tight.samples).max() <= 1e-10


def test_not_a_frame_raises():
    n = 24
    sparse = wh.WHGrid(n, 6, 6)  # 4 * 4 = 16 < 24 vectors: cannot span
    with pytest.raises(wh.NotAFrameError):
        wh.dual_window(wh.gaussian_pulse(n), sparse)
    with pytest.raises(wh.NotAFrameError):
        wh.tight_window(wh.gaussian_pulse(n), sparse)
    report = wh.frame_bounds(wh.gaussian_pulse(n), sparse)
    assert not report.is_frame and report.condition == np.inf


# ---------------------------------------------------------------------------
# adjoint-lattice duality


def test_wexler_raz_accepts_canonical_dual():
    n = 24
    grid = wh.WHGrid(n, 4, 4)
    g = wh.gaussian_pulse(n, 4, 4)
    dual = wh.dual_window(g, grid)
    is_dual, defect = wh.check_wexler_raz(g, dual, grid)
    assert is_dual
    assert defect <= 1e-10


def test_wexler_raz_rejects_perturbed_dual():
    n = 24
    grid = wh.WHGrid(n, 4, 4)
    g = wh.gaussian_pulse(n, 4, 4)
    dual = wh.dual_window(g, grid)
    bad = wh.Pulse(dual.samples + 0.05 * random_window(n, 5))
    is_dual, defect = wh.check_wexler_raz(g, bad, grid)
    assert not is_dual
    assert defect > 1e-10


@pytest.mark.parametrize("n,a,b,seed", [(24, 4, 4, 0), (24, 2, 6, 1), (16, 4, 2, 2),
                                        (36, 6, 3, 3), (30, 5, 3, 4)])
def test_wexler_raz_both_directions(n, a, b, seed):
    """Reconstruction on the lattice holds iff the adjoint-lattice cross Gram
    is (a b / N) times the identity, checked on duals and on broken pairs."""
    grid = wh.WHGrid(n, a, b)
    g = wh.Pulse(0.7 * wh.gaussian_pulse(n, a, b).samples
                 + 0.3 * random_window(n, seed))
    dual = wh.dual_window(g, grid)
    for candidate in (dual, wh.Pulse(dual.samples + 0.03 * random_window(n, seed + 50))):
        is_dual, defect = wh.check_wexler_raz(g, candidate, grid)
        assert is_dual == (defect <= 1e-10)
        mat_g = wh.lattice_matrix(g, grid)
        mat_c = wh.lattice_matrix(candidate, grid)
        recon_ok = np.abs(mat_g @ mat_c.conj().T - np.eye(n)).max() <= 1e-10
        assert is_dual == recon_ok


# ---------------------------------------------------------------------------
# windows and localization


def test_gaussian_pulse_basic():
    g = wh.gaussian_pulse(32, 4, 8)
    assert g.norm == pytest.approx(1.0)
    assert np.abs(g.samples.imag).max() == 0.0
    # symmetric around sample 0 on the circle
    assert np.abs(g.samples[1:] - g.samples[1:][::-1]).max() <= 1e-12
    with pytest.raises(ValueError):
        wh.gaussian_pulse(16, sigma=-1.0)


def test_gaussian_aspect_matches_grid():
    """sigma^2 = a N / b makes time and frequency spreads sit in ratio a : b."""
    n, a, b = 64, 8, 4
    t_spread, f_spread = wh.localization_metrics(wh.gaussian_pulse(n, a, b))
    assert t_spread / f_spread == pytest.approx(a / b, rel=0.05)


def test_rect_localization_closed_form():
    """Uniform energy over L samples: circular std sqrt((L^2 - 1) / 12)."""
    n, length = 32, 5
    t_spread, _ = wh.localization_metrics(wh.rect_pulse(n, length))
    assert t_spread == pytest.approx(np.sqrt((length**2 - 1) / 12), rel=1e-6)


def test_localization_rejects_zero():
    with pytest.raises(ValueError):
        wh.localization_metrics(np.zeros(8))


def test_pulse_csv_round_trip(tmp_path):
    g = wh.gaussian_pulse(16, 4, 4)
    path = tmp_path / "pulse.csv"
    wh.write_pulse_csv(path, g)
    back = wh.read_pulse_csv(path)
    assert np.array_equal(back.samples, g.samples)
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.startswith(b"index,re,im\r\n")


def test_pulse_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\r\n1,2\r\n")
    with pytest.raises(ValueError):
        wh.read_pulse_csv(path)


# ---------------------------------------------------------------------------
# property: dual reconstructs whenever the window makes a frame


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.sampled_from([(2, 4), (4, 2), (4, 4)]))
def test_dual_dichotomy_property(seed, steps):
    n = 16
    a, b = steps
    grid = wh.WHGrid(n, a, b)
    rng = np.random.default_rng(seed)
    # occasionally sparse windows, to exercise the non-frame branch
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g[rng.random(n) < 0.3] = 0.0
    if np.linalg.norm(g) == 0.0:
        return
    try:
        dual = wh.dual_window(g, grid)
    except wh.NotAFrameError:
        assert not wh.frame_bounds(g, grid).is_frame
        return
    mat_g = wh.lattice_matrix(g, grid)
    mat_d = wh.lattice_matrix(dual, grid)
    assert np.abs(mat_g @ mat_d.conj().T - np.eye(n)).max() <= 1e-8


# ---------------------------------------------------------------------------
# property: the Walnut-blocked engine against the dense eigensolve


@st.composite
def lattices(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return n, draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(min_value=0, max_value=2 ** 31), st.booleans())
@example((24, 4, 6), 0, False)  # a*b = N
@example((16, 8, 4), 1, False)  # a*b > N: rank deficient
@example((24, 2, 3), 2, True)
def test_blocked_engine_matches_dense_property(lattice, seed, sparse):
    n, a, b = lattice
    grid = wh.WHGrid(n, a, b)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if sparse:
        g[rng.random(n) < 0.3] = 0.0
    evals, root = dense_frame_power(g, grid, -0.5, rank_rtol=1e-10)
    top = evals[-1]
    blocked = np.sort(wh._walnut_blocks(g, grid)[0].ravel())
    assert np.abs(blocked - evals).max() <= 1e-12 * top
    report = wh.frame_bounds(g, grid)
    assert abs(report.lower_bound - evals[0]) <= 1e-12 * top
    assert abs(report.upper_bound - top) <= 1e-12 * top

    def assert_close(fast, dense, smallest, power):
        # rounding of S (relative 1e-16 of its top eigenvalue) moves S^p g by at
        # most |p| * smallest^(p - 1) times that, times |g|
        scale = top * smallest ** (power - 1.0) * np.linalg.norm(g)
        assert np.abs(fast.samples - dense).max() <= 1e-12 * scale

    kept = evals[evals > 1e-10 * top]
    if kept.size:
        assert_close(wh.frame_power(g, grid, -0.5, rank_rtol=1e-10), root, kept.min(), -0.5)
    try:
        _, dual = dense_frame_power(g, grid, -1.0)
    except wh.NotAFrameError:
        assert not report.is_frame
        for window in (wh.dual_window, wh.tight_window):
            with pytest.raises(wh.NotAFrameError):
                window(g, grid)
        return
    assert report.is_frame
    assert_close(wh.dual_window(g, grid), dual, evals[0], -1.0)
    assert_close(wh.tight_window(g, grid), dense_frame_power(g, grid, -0.5)[1], evals[0], -0.5)
