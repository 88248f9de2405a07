"""Weyl-Heisenberg frames: lattice systems, bounds, duals, adjoint duality."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tfcomm.ofdm as ofdm
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


def dense_wexler_raz(g, gam, grid, tol=1e-10):
    """(is_dual, defect) from the N x N reconstruction sum g_{n,k} gamma_{n,k}^H on
    the lattice and the size x size cross Gram on the adjoint lattice."""
    recon = wh.lattice_matrix(g, grid) @ wh.lattice_matrix(gam, grid).conj().T
    adj = grid.adjoint()
    gram = wh.lattice_matrix(gam, adj).conj().T @ wh.lattice_matrix(g, adj)
    return (bool(np.abs(recon - np.eye(grid.n_dim)).max() <= tol),
            float(np.abs(gram - grid.tf_product * np.eye(adj.size)).max()))


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


def test_gaussian_pulse_underflowing_sigma_is_named():
    # sigma**2 underflows to 0, so the sampled window would hold 0/0
    with pytest.raises(ValueError, match="sigma"):
        wh.gaussian_pulse(16, sigma=1e-300)
    assert wh.gaussian_pulse(16, sigma=1e-160).samples[0] == 1.0


def test_gaussian_pulse_wide_sigma_is_flat():
    # the periodization loop would sum 2*ceil(6*sigma/N)+1 copies
    for sigma in (1e10, np.inf):  # inf is the documented flat window
        assert np.array_equal(wh.gaussian_pulse(16, sigma=sigma).samples, np.full(16, 0.25))
    for n in (2, 7, 16, 96, 512):
        below = wh.gaussian_pulse(n, sigma=np.nextafter(4.0 * n, 0.0)).samples
        at = wh.gaussian_pulse(n, sigma=4.0 * n).samples
        assert np.abs(below - at).max() <= 1e-15


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


def test_rect_offset_wraps_any_integer():
    # an offset of 2**63 used to overflow numpy's int64 (OverflowError, exit 3 from the CLI)
    wrapped = wh.rect_pulse(8, 3, 2**63 % 8).samples
    assert np.array_equal(wh.rect_pulse(8, 3, 2**63).samples, wrapped)
    assert np.array_equal(wh.rect_pulse(8, 3, -2**63).samples, wh.rect_pulse(8, 3, 0).samples)


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


def test_pulse_csv_rejects_repeated_index(tmp_path):
    # five rows over indices 0..3 used to read as a length-4 pulse, the later row 3 winning
    path = tmp_path / "repeat.csv"
    path.write_text("index,re,im\r\n0,1,0\r\n1,0,0\r\n2,0,0\r\n3,0.5,0\r\n3,2,0\r\n")
    with pytest.raises(ValueError, match="repeat.csv: index 3 is repeated"):
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


@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(min_value=0, max_value=2 ** 31))
@example((96, 8, 8), 0)  # the adjoint of pulse-design-n96: 4 classes of 3 blocks
@example((64, 64, 1), 1)
def test_walnut_index_property(lattice, seed):
    """The shared gather, of all blocks or of one residue class r mod gcd(N/b, a) of them,
    picks g[r + p*N/b - n*a] as the per-call gather expression did and holds each block's
    samples in slot 0; ``_walnut_orbits`` gives that slot and the gather of its orbits' r."""
    n, a, b = lattice
    grid = wh.WHGrid(n, a, b)
    g = random_window(n, seed)
    m = n // b
    period = math.gcd(m, a)
    for blocks in [np.arange(m)] + [np.arange(r, m, period) for r in range(period)]:
        index = wh._walnut_gather(grid, blocks)
        stack = g[(blocks[:, None, None] + m * np.arange(b)[None, :, None]
                   - a * np.arange(n // a)[None, None, :]) % n]
        assert np.array_equal(g[index], stack)
        assert np.array_equal(index[:, :, 0], blocks[:, None] + m * np.arange(b))
        orbits = wh._walnut_orbits(grid, blocks)
        assert np.array_equal(orbits.samples, index[:, :, 0])
        assert np.array_equal(orbits.solved, wh._walnut_gather(grid, np.unique(blocks % period)))
    whole = wh._walnut_orbits(grid)
    assert np.array_equal(whole.samples, wh._walnut_orbits(grid, np.arange(m)).samples)
    assert np.array_equal(whole.solved, wh._walnut_gather(grid, np.arange(period)))


@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["dual", "perturbed", "other"]))
@example((96, 8, 8), 0, "dual")  # 4 orbits of 3 blocks
@example((96, 8, 8), 1, "perturbed")  # one orbit off the identity
@example((24, 4, 6), 2, "dual")  # a*b = N
@example((64, 4, 1), 3, "other")  # one block
def test_mixed_blocks_are_rolled_representatives_property(lattice, seed, partner):
    """Every Walnut block of sum g_{n,k} gamma_{n,k}^H, from the full gather, is its orbit
    representative's with rows and columns rolled alike, to rounding, so the Wexler-Raz
    test on the representatives decides as the test on every block.  A dual perturbed in
    one sample i moves only the orbit of i mod gcd(N/b, a)."""
    n, a, b = lattice
    grid = wh.WHGrid(n, a, b)
    g = random_window(n, seed)
    gam = random_window(n, seed + 1)
    if partner != "other":
        gam = wh.frame_power(g, grid, -1.0, rank_rtol=1e-10).samples.copy()
    if partner == "perturbed":
        gam[seed % n] += 1e-3
    index = wh._walnut_gather(grid, np.arange(n // b))
    full = (n // b) * (g[index] @ gam[index].conj().swapaxes(1, 2))
    orbits = wh._walnut_orbits(grid)
    reps = (n // b) * (g[orbits.solved] @ gam[orbits.solved].conj().swapaxes(1, 2))
    roll = orbits.rows - b * orbits.rep[:, None]  # block k's row p is its rep's row roll[k, p]
    rolled = reps[orbits.rep[:, None, None], roll[:, :, None], roll[:, None, :]]
    assert np.abs(full - rolled).max() <= 1e-12 * max(1.0, np.abs(full).max())
    worst = np.abs(full - np.eye(b)).max()
    is_dual, _ = wh.check_wexler_raz(g, gam, grid)
    assume(abs(worst - 1e-10) > 1e-12 * max(1.0, np.abs(full).max()))  # off the threshold
    assert is_dual == (worst <= 1e-10)


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
    blocked = np.sort(wh._walnut_blocks(g, grid, wh._walnut_orbits(grid))[0].ravel())
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
        messages = set()
        for window in (wh.dual_window, wh.tight_window, wh._frame_analysis):
            with pytest.raises(wh.NotAFrameError) as raised:
                window(g, grid)
            messages.add(str(raised.value))
        assert len(messages) == 1
        return
    assert report.is_frame
    assert_close(wh.dual_window(g, grid), dual, evals[0], -1.0)
    assert_close(wh.tight_window(g, grid), dense_frame_power(g, grid, -0.5)[1], evals[0], -0.5)
    # the one-eigensolve entry of frame-analyze returns exactly the public results
    bounds, one_dual, one_tight = wh._frame_analysis(g, grid)
    assert bounds == report
    assert np.array_equal(one_dual.samples, wh.dual_window(g, grid).samples)
    assert np.array_equal(one_tight.samples, wh.tight_window(g, grid).samples)


# ---------------------------------------------------------------------------
# property: Wexler-Raz from Walnut blocks and the cross-ambiguity against the
# dense lattice matrices


@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["dual", "perturbed", "other"]), st.booleans())
@example((24, 4, 4), 0, "dual", False)
@example((24, 4, 6), 1, "dual", False)  # a*b = N: a Riesz basis
@example((16, 8, 4), 2, "dual", False)  # a*b > N: never a frame
@example((24, 2, 3), 3, "perturbed", True)
def test_wexler_raz_matches_dense_property(lattice, seed, partner, sparse):
    n, a, b = lattice
    grid = wh.WHGrid(n, a, b)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if sparse:  # often not a frame
        g[rng.random(n) < 0.3] = 0.0
    assume(np.linalg.norm(g) > 0.0)
    g /= np.linalg.norm(g)
    gam = random_window(n, seed + 1)
    if partner != "other":
        try:
            dual = wh.dual_window(g, grid).samples
        except wh.NotAFrameError:  # the pseudo-dual on the range of S
            dual = wh.frame_power(g, grid, -1.0, rank_rtol=1e-10).samples
        gam = dual + 1e-3 * gam if partner == "perturbed" else dual
    is_dual, defect = wh.check_wexler_raz(g, gam, grid)
    dense_dual, dense_defect = dense_wexler_raz(g, gam, grid)
    assert is_dual == dense_dual
    assert abs(defect - dense_defect) <= 1e-12 * max(1.0, dense_defect)
    for lat in (grid, grid.adjoint()):
        if lat.time_step * lat.freq_step >= n:
            cfg = ofdm.OFDMConfig(lat, g, gam)
            tx, rx = wh.lattice_matrix(cfg.tx_pulse, lat), wh.lattice_matrix(cfg.rx_pulse, lat)
            gram = rx.conj().T @ tx
            dense_cfg = float(np.abs(gram - np.eye(lat.size)).max())
            assert abs(cfg.biorthogonality_defect - dense_cfg) <= 1e-12 * max(1.0, dense_cfg)


# ---------------------------------------------------------------------------
# property: block-local re-tightening against a full tight_window


@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["sample", "zero_block", "faint_blocks"]))
@example((256, 32, 16), 0, "sample")  # 2 of the 32 blocks
@example((96, 12, 12), 1, "sample")  # 3 of 12
@example((32, 8, 8), 2, "zero_block")  # 2 of 8
@example((96, 12, 12), 3, "faint_blocks")
def test_block_local_tight_window_property(lattice, seed, perturb):
    """Re-solving the Walnut blocks that hold one perturbed sample, with the frame
    test over the kept spectrum of the others, reproduces tight_window.  In the
    faint case the blocks of the sample carry about 1e-12 of the energy of the
    others, so only a test against the largest eigenvalue of all blocks refuses it."""
    n, a, b = lattice
    assume(a * b > n)
    grid = wh.WHGrid(n, a, b).adjoint()  # where the descent tightens
    rng = np.random.default_rng(seed)
    g = random_window(n, seed)
    idx = int(rng.integers(n))
    period = math.gcd(grid.n_freq, grid.time_step)
    faint = 1e-6 if perturb == "faint_blocks" else 1.0
    g[idx % period::period] *= faint
    trial = g.copy()
    if perturb != "zero_block":
        trial[idx] += 0.3 * faint * (rng.standard_normal() + 1j * rng.standard_normal())
    else:  # idx is the only nonzero sample of its blocks; the trial zeroes them
        g[idx % period::period] = 0.0
        g[idx] = 1.0
        trial[:] = g
        trial[idx] = 0.0
    blocks = np.arange(idx % period, grid.n_freq, period)
    spectrum = wh._walnut_blocks(g, grid, wh._walnut_orbits(grid))[0]
    try:
        full = wh.tight_window(trial, grid).samples
    except wh.NotAFrameError:
        full = None
    solved = wh._walnut_blocks(trial, grid, wh._walnut_orbits(grid, blocks))
    spectrum[blocks] = solved[0]
    try:
        values = wh._block_power(grid, solved, spectrum, -0.5)
    except wh.NotAFrameError:
        values = None
    assert (full is None) == (values is None)
    if perturb == "zero_block" or perturb == "faint_blocks" and period > 1:
        assert full is None
    if full is None:
        return
    samples = blocks[:, None] + grid.n_freq * np.arange(grid.freq_step)
    scale = np.abs(full).max()
    assert np.abs(values - full[samples]).max() <= 1e-13 * scale
    try:
        local = wh.tight_window(g, grid).samples.copy()
    except wh.NotAFrameError:
        return
    local[samples] = values
    assert np.abs(local - full).max() <= 1e-13 * scale


# ---------------------------------------------------------------------------
# property: one eigensolve per orbit of the lattice shift D^a against per-block
# solves and the dense eigensolve


def block_matrices(g, grid):
    """Every Walnut block (N/b) G_r G_r^H of the frame operator, each built on its own."""
    m = grid.n_freq
    r, p, n = np.ogrid[:m, :grid.freq_step, :grid.n_time]
    stack = g[(r + p * m - n * grid.time_step) % grid.n_dim]
    return m * stack @ stack.conj().transpose(0, 2, 1)


@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(min_value=0, max_value=2 ** 31), st.booleans(), st.data())
@example((512, 16, 16), 0, False, None)  # 32 blocks in 16 orbits of 2
@example((96, 8, 8), 1, False, None)  # the adjoint of pulse-design-n96: 4 orbits of 3
@example((24, 4, 6), 2, False, None)  # a*b = N: the rank-tolerant path
@example((16, 8, 4), 3, True, None)  # a*b > N: never a frame
@example((48, 12, 4), 4, True, None)
def test_orbit_solve_matches_per_block_solves_property(lattice, seed, sparse, data):
    """Blocks of a union of orbits, in any order, read off one solve per orbit the
    spectrum and eigenvectors of their own solves, and S^p g reads the dense one."""
    n, a, b = lattice
    grid = wh.WHGrid(n, a, b)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if sparse:  # often not a frame
        g[rng.random(n) < 0.3] = 0.0
    assume(np.linalg.norm(g) > 0.0)
    m, period = grid.n_freq, math.gcd(grid.n_freq, a)
    residues = range(period) if data is None else \
        sorted(data.draw(st.sets(st.integers(0, period - 1), min_size=1), label="orbits"))
    blocks = rng.permutation(np.flatnonzero(np.isin(np.arange(m) % period, residues)))
    mats = block_matrices(g, grid)[blocks]
    own = np.linalg.eigvalsh(mats)
    top = own.max()
    evals, evecs, g_blocks = wh._walnut_blocks(g, grid, wh._walnut_orbits(grid, blocks))
    assert np.abs(evals - np.maximum(own, 0.0)).max() <= 1e-12 * top
    assert np.abs(evecs.conj().transpose(0, 2, 1) @ evecs - np.eye(b)).max() <= 1e-12
    assert np.abs((evecs * evals[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
                  - mats).max() <= 1e-12 * top
    assert np.array_equal(g_blocks, g[blocks[:, None] + m * np.arange(b)])

    spectrum = wh._walnut_blocks(g, grid, wh._walnut_orbits(grid))[0]
    for power in (-1.0, -0.5):
        for rank_rtol in (None, 1e-10):
            try:
                dense_evals, dense = dense_frame_power(g, grid, power, rank_rtol)
            except wh.NotAFrameError:
                with pytest.raises(wh.NotAFrameError):
                    wh.frame_power(g, grid, power, rank_rtol)
                with pytest.raises(wh.NotAFrameError):
                    wh._block_power(grid, (evals, evecs, g_blocks), spectrum, power)
                continue
            kept = dense_evals[dense_evals > 1e-10 * dense_evals[-1]]
            # as in test_blocked_engine_matches_dense_property
            scale = dense_evals[-1] * kept.min() ** (power - 1.0) * np.linalg.norm(g)
            fast = wh.frame_power(g, grid, power, rank_rtol).samples
            assert np.abs(fast - dense).max() <= 1e-12 * scale
            values = wh._block_power(grid, (evals, evecs, g_blocks), spectrum, power, rank_rtol)
            samples = blocks[:, None] + m * np.arange(b)
            assert np.abs(values - dense[samples]).max() <= 1e-12 * scale


def test_frame_analysis_solves_one_block_per_orbit(monkeypatch):
    """At (512, 16, 16) the 32 Walnut blocks form 16 orbits of 2: frame-analyze runs
    one eigh of 16 matrices, where a solve per block would take 32."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(h.shape) or eigh(h))
    n = 512
    wh._frame_analysis(wh.gaussian_pulse(n, 16, 16), wh.WHGrid(n, 16, 16))
    assert shapes == [(16, 16, 16)]
