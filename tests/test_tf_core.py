"""Delay-Doppler operator algebra: basis, analysis/synthesis, transfer, bounds.

Oracles here are written from scratch (explicit loops over the definitions),
never by calling the fast library paths they are meant to check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tfcomm.identification as ident
import tfcomm.tf_core as core


def shift_matrix_oracle(n, m, l):
    """Direct entrywise construction of M^l D^m (no library calls)."""
    mat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        mat[i, (i - m) % n] = np.exp(-2j * np.pi * l * i / n)
    return mat


def spreading_oracle(h):
    """Projection loop S[m,l] = <H, M^l D^m> / N."""
    n = h.shape[0]
    s = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for l in range(n):
            s[m, l] = np.vdot(shift_matrix_oracle(n, m, l), h) / n
    return s


def random_channel(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# basis operators


def test_delay_and_modulation_matrices():
    n = 8
    d = core.tf_shift_op(n, 1, 0).matrix
    assert np.array_equal(d, np.roll(np.eye(n), 1, axis=0))
    m = core.tf_shift_op(n, 0, 1).matrix
    assert np.allclose(m, np.diag(np.exp(-2j * np.pi * np.arange(n) / n)), atol=1e-15)


def test_tf_shift_composition():
    n = 12
    for delay, doppler in [(0, 0), (3, 5), (-2, 7), (11, -1)]:
        direct = core.tf_shift_op(n, delay, doppler).matrix
        composed = core.tf_shift_op(n, 0, doppler).matrix @ core.tf_shift_op(n, delay, 0).matrix
        assert np.allclose(direct, composed, atol=1e-14)
        assert np.allclose(direct, shift_matrix_oracle(n, delay, doppler), atol=1e-14)


def tf_shift_oracle(x, m, l):
    """Entrywise exp(-2j*pi*l*i/N) * x[(i - m) mod N] of one vector (no library calls)."""
    n = x.size
    return np.array([np.exp(-2j * np.pi * l * i / n) * x[(i - m) % n] for i in range(n)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tf_shift_matches_entrywise_oracle(data):
    """Random N, shifts in [-3N, 3N], leading axes and broadcast shift arrays."""
    n = data.draw(st.integers(1, 24), label="n")
    dims = st.integers(1, 3)
    lead = tuple(data.draw(st.lists(dims, max_size=2), label="lead"))
    shape = tuple(data.draw(st.lists(dims, max_size=2), label="shape"))

    def shifts(label):
        # a trailing part of ``shape`` with some axes collapsed to 1
        keep = data.draw(st.integers(0, len(shape)))
        sub = tuple(d if data.draw(st.booleans()) else 1 for d in shape[len(shape) - keep:])
        size = int(np.prod(sub))
        values = data.draw(st.lists(st.integers(-3 * n, 3 * n), min_size=size, max_size=size),
                           label=label)
        return np.array(values).reshape(sub)

    delay, doppler = shifts("delay"), shifts("doppler")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    x = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
    out = core.tf_shift(x, delay, doppler)
    cells = np.broadcast_shapes(delay.shape, doppler.shape)
    assert out.shape == lead + cells + (n,)
    delays, dopplers = np.broadcast_to(delay, cells), np.broadcast_to(doppler, cells)
    for li in np.ndindex(*lead):
        for ci in np.ndindex(*cells):
            ref = tf_shift_oracle(x[li], int(delays[ci]), int(dopplers[ci]))
            assert np.abs(out[li + ci] - ref).max() <= 1e-12


def test_shift_action_on_signal():
    n = 16
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = core.tf_shift_op(n, 3, 2).matrix @ x
    ref = np.exp(-2j * np.pi * 2 * np.arange(n) / n) * np.roll(x, 3)
    assert np.allclose(y, ref, atol=1e-14)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_basis_orthonormality(n):
    """Gram matrix of the normalized shift family is the identity."""
    basis = np.stack([shift_matrix_oracle(n, m, l).ravel() / np.sqrt(n)
                      for m in range(n) for l in range(n)])
    gram = basis @ basis.conj().T
    assert np.abs(gram - np.eye(n * n)).max() <= 1e-12


def test_centered_index_frozen():
    assert core.centered_index(np.arange(8), 8).tolist() == [0, 1, 2, 3, 4, -3, -2, -1]
    assert core.centered_index(np.arange(7), 7).tolist() == [0, 1, 2, 3, -3, -2, -1]
    assert core.centered_index(5, 8) == -3


# ---------------------------------------------------------------------------
# spreading analysis / synthesis


def test_spreading_of_identity_and_pure_shifts():
    n = 16
    s = core.spreading_function(np.eye(n))
    assert s.support_count == 1
    assert s.coeffs[0, 0] == pytest.approx(1.0)
    for m0, l0, c in [(3, 0, 1.0), (0, 5, 1.0), (2, 7, 0.5 - 0.25j)]:
        s = core.spreading_function(c * shift_matrix_oracle(n, m0, l0))
        assert s.support_count == 1
        assert s.coeffs[m0, l0] == pytest.approx(c, abs=1e-13)


def test_fast_path_matches_projection_oracle():
    n = 12
    h = random_channel(n, 1)
    fast = core.spreading_function(h).coeffs
    naive = core.spreading_function(h, method="naive").coeffs
    oracle = spreading_oracle(h)
    assert np.abs(fast - oracle).max() <= 1e-12
    assert np.abs(naive - oracle).max() <= 1e-12


def test_round_trip_random_channels():
    for seed in range(5):
        h = random_channel(32, seed)
        back = core.synthesize_channel(core.spreading_function(h)).matrix
        assert np.linalg.norm(back - h) / np.linalg.norm(h) <= 1e-12


def test_parseval_energy():
    h = random_channel(24, 3)
    s = core.spreading_function(h)
    assert np.sum(np.abs(s.coeffs) ** 2) * 24 == pytest.approx(np.linalg.norm(h) ** 2,
                                                               rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=2 ** 31))
def test_round_trip_and_parseval_property(n, seed):
    h = random_channel(n, seed)
    s = core.spreading_function(h)
    back = core.synthesize_channel(s).matrix
    assert np.linalg.norm(back - h) <= 1e-11 * np.linalg.norm(h)
    assert np.sum(np.abs(s.coeffs) ** 2) * n == pytest.approx(np.linalg.norm(h) ** 2,
                                                              rel=1e-10)


def dense_synthesis_oracle(coeffs):
    """Full-grid synthesis: every delay row's DFT scattered onto its cyclic subdiagonal."""
    n = coeffs.shape[0]
    diagonals = np.fft.fft(coeffs, axis=1)
    i = np.arange(n)
    mat = np.empty((n, n), dtype=complex)
    mat[i[None, :], (i[None, :] - i[:, None]) % n] = diagonals
    return mat


@st.composite
def sparse_spreading_grids(draw):
    """Coefficient grids on centered supports: empty, one axis only, or wrapping around."""
    n = draw(st.integers(min_value=1, max_value=64))
    axis = st.integers(min_value=-((n - 1) // 2), max_value=n // 2)
    shape = draw(st.sampled_from(["empty", "delay_only", "doppler_only", "wrap_around"]))
    cells = []
    if shape != "empty":
        delays = st.just(0) if shape == "doppler_only" else axis
        dopplers = st.just(0) if shape == "delay_only" else axis
        cells = draw(st.lists(st.tuples(delays, dopplers), min_size=1, max_size=12))
    if shape == "wrap_around":
        cells.append((-1, -1))  # the last delay row and Doppler column
    values = st.floats(min_value=-2.0, max_value=2.0)
    coeffs = np.zeros((n, n), dtype=complex)
    for m, l in cells:
        coeffs[m % n, l % n] = complex(draw(values), draw(values))
    return coeffs


@settings(max_examples=200, deadline=None)
@given(sparse_spreading_grids())
def test_synthesis_matches_full_grid_oracle_property(coeffs):
    """Transforming only the occupied delay rows gives exactly the full-grid matrix."""
    fast = core.synthesize_channel(core.SpreadingFunction(coeffs)).matrix
    assert np.array_equal(fast, dense_synthesis_oracle(coeffs))


@st.composite
def cell_lists(draw):
    """(n, delays, dopplers, values): grid-index cells with repeats and cancelling pairs, and
    parts over many scales, so that some cells sum to zero or fall under SUPPORT_RTOL."""
    n = draw(st.integers(min_value=1, max_value=24))
    index = st.integers(min_value=0, max_value=n - 1)
    parts = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1e-300, 1e-14, -3.5, 1e150])
    cells = [(m, l, complex(draw(parts), draw(parts)))
             for m, l in draw(st.lists(st.tuples(index, index), max_size=12))]
    if cells:
        cells += draw(st.lists(st.sampled_from(cells), max_size=3))  # repeated cells
        m, l, value = draw(st.sampled_from(cells))
        cells += draw(st.sampled_from([[], [(m, l, -value)]]))  # a cell that may cancel
    delays, dopplers, values = zip(*cells) if cells else ((), (), ())
    return n, list(delays), list(dopplers), list(values)


@settings(max_examples=200, deadline=None)
@given(cell_lists(), st.integers(min_value=1, max_value=5))
def test_cell_built_spreading_equals_dense_grid_property(cells, block):
    """Cells added into a grid in input order give the dense adapter's coeffs, support,
    transfer grid (also by row blocks) and channel bit for bit; the channel also matches
    the sum of shift matrices within 1e-12 relative."""
    n, delays, dopplers, values = cells
    grid = np.zeros((n, n), dtype=complex)
    for m, l, value in zip(delays, dopplers, values):
        grid[m, l] += value
    built = core.SpreadingFunction.from_cells(n, delays, dopplers, values)
    dense = core.SpreadingFunction(grid)
    assert built.n_dim == dense.n_dim == n
    assert built.coeffs.tobytes() == grid.tobytes() == dense.coeffs.tobytes()
    assert not built.coeffs.flags.writeable and not dense.coeffs.flags.writeable
    assert not np.shares_memory(dense.coeffs, grid)  # the adapter's cells stay its grid's
    for a, b in zip(built.support_cells, dense.support_cells):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    transfer = core.tf_transfer(built).values
    assert np.array_equal(transfer, core.tf_transfer(dense).values)
    assert np.array_equal(transfer, core.dd_to_tf_grid(grid))
    rows = core._transfer_rows(built)
    assert np.array_equal(np.vstack([rows(s, min(s + block, n)) for s in range(0, n, block)]),
                          transfer)
    mat = core.synthesize_channel(built).matrix
    assert np.array_equal(mat, core.synthesize_channel(dense).matrix)
    assert np.array_equal(mat, dense_synthesis_oracle(grid))
    oracle = sum((grid[m, l] * shift_matrix_oracle(n, m, l)
                  for m, l in zip(*np.nonzero(grid))), np.zeros((n, n), dtype=complex))
    assert np.abs(mat - oracle).max() <= 1e-12 * max(np.abs(grid).max(), 1e-300) * n


@pytest.mark.parametrize("delays, dopplers, values, name", [
    ([0, 1], [0, 1], [1.0, np.nan], "values"),
    ([0, 1], [0, 1], [1.0, np.inf], "values"),
    ([0, 0], [0, 0], [1e308, 1e308], "values"),  # a finite pair whose sum overflows
    ([0, 1.5], [0, 1], [1.0, 1.0], "delays"),
    ([0, 1], [0, np.nan], [1.0, 1.0], "dopplers"),
    ([0, 8], [0, 1], [1.0, 1.0], "delays"),
    ([0, 1], [0, -1], [1.0, 1.0], "dopplers"),
    ([0], [0, 1], [1.0, 1.0], "delays"),
    ([0, 1], [0, 1, 2], [1.0, 1.0], "dopplers"),
], ids=["nan", "inf", "sum-overflow", "off-grid", "nan-index", "delay-range", "doppler-range",
        "delays-length", "dopplers-length"])
def test_cell_constructor_rejects_bad_cells(delays, dopplers, values, name):
    with pytest.raises(ValueError, match=name):
        core.SpreadingFunction.from_cells(8, delays, dopplers, values)


@st.composite
def cell_channels(draw):
    """(x, delays, dopplers, coeffs): distinct centered cells, with or without frames."""
    n = draw(st.integers(min_value=1, max_value=64))
    axis = st.integers(min_value=-((n - 1) // 2), max_value=n // 2)
    shape = draw(st.sampled_from(["empty", "one_delay", "any", "wrap_around"]))
    cells = []
    if shape == "one_delay":  # one delay, many Dopplers
        m = draw(axis)
        cells = [(m, l) for l in draw(st.lists(axis, min_size=1, max_size=n, unique=True))]
    elif shape != "empty":
        cells = draw(st.lists(st.tuples(axis, axis), min_size=1, max_size=12, unique=True))
    if shape == "wrap_around" and n >= 3 and (-1, -1) not in cells:
        cells.append((-1, -1))  # the last delay row and Doppler column
    frames = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = rng.standard_normal(frames + (n,)) + 1j * rng.standard_normal(frames + (n,))
    coeffs = rng.standard_normal(frames + (len(cells),)) \
        + 1j * rng.standard_normal(frames + (len(cells),))
    delays, dopplers = np.array(cells, dtype=int).reshape(-1, 2).T
    return x, delays, dopplers, coeffs


@settings(max_examples=200, deadline=None)
@given(cell_channels())
def test_apply_cells_matches_dense_channel_and_sounding_matrix_property(channel):
    """H x on the cells equals the synthesized matrix and the sounding matrix, per frame."""
    x, delays, dopplers, coeffs = channel
    n = x.shape[-1]
    out = core._cell_filter(delays, dopplers, n)(x, coeffs)
    assert out.shape == x.shape
    for frame in np.ndindex(x.shape[:-1]):
        tol = 1e-12 * max(1.0, float(np.linalg.norm(out[frame])))
        grid = np.zeros((n, n), dtype=complex)
        grid[delays % n, dopplers % n] = coeffs[frame]
        dense = core.synthesize_channel(core.SpreadingFunction(grid)).matrix @ x[frame]
        assert np.linalg.norm(out[frame] - dense) <= tol
        if delays.size:
            sounding = ident.build_sounding_matrix(x[frame], zip(delays, dopplers), n)
            assert np.linalg.norm(out[frame] - sounding @ coeffs[frame]) <= tol


# ---------------------------------------------------------------------------
# transfer grids


def test_transfer_of_circulant_is_frequency_response():
    """Tap filter: rows constant in n, columns the DFT of the taps."""
    n = 16
    taps = np.array([1.0, 0.5])
    h = np.zeros((n, n), dtype=complex)
    for j, tap in enumerate(taps):
        h += tap * shift_matrix_oracle(n, j, 0)
    transfer = core.tf_transfer(core.spreading_function(h)).values
    padded = np.zeros(n, dtype=complex)
    padded[:2] = taps
    response = np.fft.fft(padded)
    assert np.abs(transfer - response[None, :]).max() <= 1e-12
    for k in range(n):
        f_k = np.exp(2j * np.pi * k * np.arange(n) / n)
        assert np.abs(h @ f_k - response[k] * f_k).max() <= 1e-12


def test_transfer_of_multiplier_is_reflected_time_profile():
    n = 16
    rng = np.random.default_rng(4)
    prof = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    transfer = core.tf_transfer(core.spreading_function(np.diag(prof))).values
    expected = prof[(-np.arange(n)) % n]
    assert np.abs(transfer - expected[:, None]).max() <= 1e-12


def test_transfer_round_trip():
    h = random_channel(20, 5)
    s = core.spreading_function(h)
    back = core.SpreadingFunction(core.tf_to_dd_grid(core.tf_transfer(s).values))
    assert np.abs(back.coeffs - s.coeffs).max() <= 1e-12
    grid = s.coeffs
    assert np.abs(core.tf_to_dd_grid(core.dd_to_tf_grid(grid)) - grid).max() <= 1e-12


def test_dd_to_tf_grid_matches_phase_sum():
    """L[n,k] = sum S[m,l] exp(-2j pi (k m - n l)/N), checked by explicit loop."""
    n = 6
    rng = np.random.default_rng(6)
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ref = np.zeros((n, n), dtype=complex)
    for nn in range(n):
        for k in range(n):
            for m in range(n):
                for l in range(n):
                    ref[nn, k] += s[m, l] * np.exp(-2j * np.pi * (k * m - nn * l) / n)
    assert np.abs(core.dd_to_tf_grid(s) - ref).max() <= 1e-10


# ---------------------------------------------------------------------------
# commutation and product bounds


def commutation_defect_oracle(n, m, l, norm):
    """Dense (||D^m M^l - M^l D^m||, 2*pi*|m*l|/N * ||D^m M^l||) from explicit matrices."""
    order = "fro" if norm == "frobenius" else 2
    d, mod = shift_matrix_oracle(n, m, 0), shift_matrix_oracle(n, 0, l)
    mc, lc = core.centered_index(m, n), core.centered_index(l, n)
    return (float(np.linalg.norm(d @ mod - mod @ d, order)),
            2.0 * np.pi * abs(mc * lc) / n * float(np.linalg.norm(d @ mod, order)))


def test_commutation_defect_closed_form():
    """Norm of [M^l, D^m] has the exact value 2 sin(pi m l / N) ||D^m M^l||."""
    n = 8
    for m, l in [(1, 1), (2, 3), (3, 2)]:
        fro, bound_f = core.commutation_defect(n, m, l, norm="frobenius")
        assert fro == pytest.approx(2 * abs(np.sin(np.pi * m * l / n)) * np.sqrt(n),
                                    abs=1e-12)
        assert fro <= bound_f + 1e-12
        spec, bound_s = core.commutation_defect(n, m, l, norm="spectral")
        assert spec == pytest.approx(2 * abs(np.sin(np.pi * m * l / n)), abs=1e-12)
        assert spec <= bound_s + 1e-12
        for norm, pair in [("frobenius", (fro, bound_f)), ("spectral", (spec, bound_s))]:
            assert pair == pytest.approx(commutation_defect_oracle(n, m, l, norm), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_commutation_bound_property(n, data):
    lo = -((n - 1) // 2)
    m = data.draw(st.integers(min_value=lo, max_value=lo + n - 1))
    l = data.draw(st.integers(min_value=lo, max_value=lo + n - 1))
    for norm in ("frobenius", "spectral"):
        defect, bound = core.commutation_defect(n, m, l, norm=norm)
        assert defect <= bound + 1e-12
        assert (defect, bound) == pytest.approx(commutation_defect_oracle(n, m, l, norm),
                                                abs=1e-12)


def test_commutation_defect_rejects_unknown_norm():
    with pytest.raises(ValueError, match="unknown norm 'nuclear'"):
        core.commutation_defect(8, 1, 1, norm="nuclear")


def test_commutation_defect_raises_when_bound_fails(monkeypatch):
    """The bound check is an explicit raise, so ``python -O`` keeps it."""
    # |1 - omega^(ml)| = 1 > 2*pi/8 at N = 8, m = l = 1: the defect then tops its bound
    monkeypatch.setattr(core, "_root_gap", lambda k, n: 1.0)
    with pytest.raises(ArithmeticError, match="defect 1.0 exceeds its bound 0.785"):
        core.commutation_defect(8, 1, 1, norm="spectral")


def test_product_spreading_exact_identity():
    """Spreading of a product against brute-force composition, N = 10."""
    n = 10
    h1 = random_channel(n, 7)
    h2 = random_channel(n, 8)
    exact, _, _ = core.spreading_of_product(h1, h2)
    direct = core.spreading_function(h1 @ h2).coeffs
    assert np.abs(exact.coeffs - direct).max() <= 1e-11


def test_product_spreading_single_shift_error():
    """D * M: the twisted phase is e^{2j pi/N}, so the relative gap is 2 sin(pi/N)."""
    for n in (32, 64, 128):
        d = shift_matrix_oracle(n, 1, 0)
        m = shift_matrix_oracle(n, 0, 1)
        exact, approx, rel = core.spreading_of_product(d, m)
        assert rel == pytest.approx(2 * np.sin(np.pi / n), rel=1e-10)
        assert np.abs(approx.coeffs - exact.coeffs).max() > 0


def test_product_spreading_bound_and_decay():
    """Support-1 channels: error within the 2 pi max|m l| / N budget, shrinking in N."""
    rels = []
    for n in (32, 64, 128):
        c1 = np.zeros((n, n), dtype=complex)
        c2 = np.zeros((n, n), dtype=complex)
        c1[2 % n, (-1) % n] = 1.0 - 0.5j
        c2[1, 2] = 0.25 + 1.0j
        h1 = core.synthesize_channel(core.SpreadingFunction(c1))
        h2 = core.synthesize_channel(core.SpreadingFunction(c2))
        _, _, rel = core.spreading_of_product(h1, h2)
        # worst twisted phase over the support products: |m'' l'| <= 2*2
        assert rel <= 2 * np.pi * 4 / n + 1e-12
        rels.append(rel)
    assert rels[0] > rels[1] > rels[2]


# ---------------------------------------------------------------------------
# approximate eigenrelation


def test_eigen_defect_zero_for_identity_scaling():
    n = 16
    rng = np.random.default_rng(2)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert core.approx_eigen_defect((2.0 - 1.0j) * np.eye(n), g, 3, 5) <= 1e-12


def test_eigen_defect_zero_for_commuting_pair():
    """Circulant channel: every shifted/modulated copy of the flat window is a
    discrete sinusoid, hence an exact eigenvector, so the defect is rounding."""
    n = 32
    taps = np.array([1.0, 0.5, 0.25])
    h = sum(t * shift_matrix_oracle(n, j, 0) for j, t in enumerate(taps))
    pulse = np.ones(n) / np.sqrt(n)
    for slot in (0, 2, 7):
        for freq_bin in (0, 3, -5, 17):
            assert core.approx_eigen_defect(h, pulse, slot, freq_bin) <= 1e-12


def test_eigen_defect_decreases_with_spread():
    """Tighter delay-Doppler support gives a smaller normalized residual."""
    n = 64
    rng = np.random.default_rng(9)
    sigma = np.sqrt(n)
    i = core.centered_index(np.arange(n), n)
    pulse = np.exp(-np.pi * i**2 / sigma**2)
    pulse = pulse / np.linalg.norm(pulse)

    def draw(extent, seed):
        rng = np.random.default_rng(seed)
        c = np.zeros((n, n), dtype=complex)
        for m in range(-extent, extent + 1):
            for l in range(-extent, extent + 1):
                c[m % n, l % n] = (rng.standard_normal() + 1j * rng.standard_normal())
        return core.synthesize_channel(core.SpreadingFunction(c))

    small = np.mean([core.approx_eigen_defect(draw(1, 20 + t), pulse, 1, 1)
                     for t in range(8)])
    large = np.mean([core.approx_eigen_defect(draw(6, 40 + t), pulse, 1, 1)
                     for t in range(8)])
    assert small < large


def test_eigen_defect_zero_channel():
    n = 16
    pulse = np.ones(n) / np.sqrt(n)
    assert core.approx_eigen_defect(np.zeros((n, n)), pulse, 1, 1) == 0.0
    with pytest.raises(ValueError):
        core.approx_eigen_defect(np.eye(n), np.zeros(n), 0, 0)


# ---------------------------------------------------------------------------
# spread metrics


def test_spread_metrics_shortwave_numbers():
    """625-point grid at 500 Hz: 3-sample delay and 9-bin Doppler extents give
    6 ms, 7.2 Hz, and a 0.1728 spread product."""
    n, fs = 625, 500.0
    c = np.zeros((n, n), dtype=complex)
    c[3, 9] = 1.0
    c[(-3) % n, (-9) % n] = 0.5
    metrics = core.spread_metrics(core.SpreadingFunction(c), sample_rate=fs)
    assert metrics.tau_max == pytest.approx(0.006)
    assert metrics.nu_max == pytest.approx(7.2)
    assert metrics.box_spread == pytest.approx(0.1728, abs=1e-15)
    assert metrics.box_spread == pytest.approx(108 / 625, abs=1e-15)
    assert metrics.underspread_box
    assert metrics.support_count == 2
    assert metrics.normalized_spread == pytest.approx(2 / 625)


def test_spread_metrics_default_units():
    n = 16
    c = np.zeros((n, n), dtype=complex)
    c[2, 1] = 1.0
    metrics = core.spread_metrics(core.SpreadingFunction(c))
    assert metrics.tau_max == pytest.approx(2.0)
    assert metrics.nu_max == pytest.approx(1.0 / 16)
    assert metrics.box_spread == pytest.approx(4 * 2 / 16)
    assert core.box_spread(2.0, 1.0 / 16) == pytest.approx(0.5)


def test_underspread_flags():
    n = 64
    c = np.zeros((n, n), dtype=complex)
    c[:2, :2] = 1.0
    metrics = core.spread_metrics(core.SpreadingFunction(c))
    assert metrics.underspread  # 4 cells <= 64
    dense = core.spread_metrics(core.SpreadingFunction(np.ones((n, n))))
    assert not dense.underspread


# ---------------------------------------------------------------------------
# validation


def test_channel_validation():
    with pytest.raises(ValueError):
        core.DiscreteChannel(np.ones((3, 4)))
    with pytest.raises(ValueError):
        core.DiscreteChannel(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        core.SpreadingFunction(np.ones((2, 3)))
    with pytest.raises(ValueError):
        core.spreading_function(np.eye(4), method="magic")
