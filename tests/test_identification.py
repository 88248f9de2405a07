"""Sounding-based recovery of spreading coefficients on a declared support."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tfcomm.identification as ident
from tfcomm.tf_core import cross_ambiguity


def plant(n, support, seed):
    """Random coefficients on the support and the resulting observation."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return coeffs


# ---------------------------------------------------------------------------
# probes and supports


def test_dirac_train_samples():
    x = ident.dirac_train(12, 3)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.all(x[::3] == 1 / 2.0)
    mask = np.ones(12, dtype=bool)
    mask[::3] = False
    assert np.abs(x[mask]).max() == 0.0


def test_dirac_train_weights():
    w = np.exp(1j * np.array([0.1, 2.0, -1.0, 0.5]))
    x = ident.dirac_train(16, 4, weights=w)
    assert np.abs(x[::4] - w / 2.0).max() <= 1e-15
    with pytest.raises(ValueError):
        ident.dirac_train(16, 4, weights=[2.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ident.dirac_train(16, 4, weights=np.ones(3))
    with pytest.raises(ValueError):
        ident.dirac_train(16, 5)


def test_centered_rect_support_layout():
    assert ident.centered_rect_support(1, 1) == ((0, 0),)
    cells = ident.centered_rect_support(2, 3)
    assert set(cells) == {(m, l) for m in (-1, 0) for l in (-1, 0, 1)}
    assert len(ident.centered_rect_support(4, 4)) == 16
    with pytest.raises(ValueError):
        ident.centered_rect_support(0, 2)


def test_support_validation():
    with pytest.raises(ValueError):
        ident.build_sounding_matrix(np.ones(8), [(0, 0), (0, 0)], 8)
    with pytest.raises(ValueError):
        ident.build_sounding_matrix(np.ones(8), [(0.5, 0)], 8)
    with pytest.raises(ValueError):
        ident.build_sounding_matrix(np.ones(8), [(0, 7)], 8)  # centered range [-3, 4]
    with pytest.raises(ValueError):
        ident.build_sounding_matrix(np.ones(8), [], 8)


def test_sounding_matrix_against_loop():
    n = 10
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    support = [(0, 0), (2, -1), (-3, 4)]
    mat = ident.build_sounding_matrix(x, support, n)
    for j, (m, l) in enumerate(support):
        col = np.exp(-2j * np.pi * l * np.arange(n) / n) * np.roll(x, m)
        assert np.abs(mat[:, j] - col).max() <= 1e-15


# ---------------------------------------------------------------------------
# recovery


def test_exact_recovery_matched_train():
    n = 32
    x = ident.dirac_train(n, 4)
    support = ident.centered_rect_support(4, 4)
    coeffs = plant(n, support, 0)
    y = ident.build_sounding_matrix(x, support, n) @ coeffs
    result = ident.identify(y, x, support)
    assert np.abs(result.estimate - coeffs).max() <= 1e-12
    assert result.residual <= 1e-12
    assert result.condition_number == pytest.approx(1.0, abs=1e-9)


def test_exact_recovery_with_phase_weights():
    n = 32
    rng = np.random.default_rng(4)
    x = ident.dirac_train(n, 4, weights=np.exp(2j * np.pi * rng.random(8)))
    support = ident.centered_rect_support(4, 8)  # |S| = N
    coeffs = plant(n, support, 1)
    y = ident.build_sounding_matrix(x, support, n) @ coeffs
    result = ident.identify(y, x, support)
    assert np.abs(result.estimate - coeffs).max() <= 1e-10
    assert result.condition_number == pytest.approx(1.0, abs=1e-9)


def test_full_dimension_support_is_identifiable():
    n = 32
    x = ident.dirac_train(n, 4)
    support = ident.centered_rect_support(4, 8)  # 32 unknowns in dimension 32
    coeffs = plant(n, support, 2)
    y = ident.build_sounding_matrix(x, support, n) @ coeffs
    result = ident.identify(y, x, support)
    assert np.abs(result.estimate - coeffs).max() <= 1e-10


def test_overspread_support_raises():
    n = 32
    x = ident.dirac_train(n, 4)
    support = ident.centered_rect_support(5, 8)  # 40 > 32 unknowns
    with pytest.raises(ident.IdentifiabilityError) as exc:
        ident.identify(np.zeros(n), x, support)
    assert exc.value.n_unknowns == 40
    assert exc.value.numerical_rank <= n


def test_refuse_overspread_counts_only():
    ident.refuse_overspread(32, 32)
    with pytest.raises(ident.IdentifiabilityError, match="33 unknowns > N = 32") as exc:
        ident.refuse_overspread(33, 32)
    assert exc.value.n_unknowns == 33
    assert exc.value.numerical_rank is None


def test_bad_probe_raises_even_when_underspread():
    """A flat probe cannot separate two pure delays: duplicate columns."""
    n = 16
    flat = np.ones(n, dtype=complex) / 4.0
    with pytest.raises(ident.IdentifiabilityError) as exc:
        ident.identify(np.zeros(n), flat, [(0, 0), (1, 0)])
    assert exc.value.n_unknowns == 2
    assert exc.value.numerical_rank == 1


def test_noisy_recovery_residual_tracks_noise():
    n = 64
    x = ident.dirac_train(n, 8)
    support = ident.centered_rect_support(4, 4)
    coeffs = plant(n, support, 3)
    rng = np.random.default_rng(9)
    noise = 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    y = ident.build_sounding_matrix(x, support, n) @ coeffs + noise
    result = ident.identify(y, x, support)
    assert np.abs(result.estimate - coeffs).max() <= 1e-2
    assert result.residual <= np.linalg.norm(noise) + 1e-12
    assert result.residual > 0.0


def test_identify_validates_lengths():
    with pytest.raises(ValueError):
        ident.identify(np.zeros(8), np.ones(6), [(0, 0)])


@pytest.mark.parametrize("solve, name", [
    (lambda y, x, support: ident.identify(y, x, support), "observation"),
    (lambda y, x, support: ident.identify(x, y, support), "sounding"),
    (lambda y, x, support: ident.offgrid_ambiguity(y, support), "sounding"),
], ids=["identify-observation", "identify-sounding", "offgrid-sounding"])
def test_a_nan_sample_is_refused(solve, name):
    # these used to return a nan residual, and an offgrid ambiguity of 0.0
    x = ident.dirac_train(16, 4)
    y = x.copy()
    y[5] = np.nan
    with pytest.raises(ValueError, match=f"non-finite entries in {name}"):
        solve(y, x, ident.centered_rect_support(2, 2))


# ---------------------------------------------------------------------------
# probe quality


def test_matched_train_quality_is_perfect():
    n = 64
    x = ident.dirac_train(n, 8)
    support = ident.centered_rect_support(8, 8)
    assert ident.identify(np.zeros(n), x, support).condition_number == pytest.approx(
        1.0, abs=1e-9)
    assert ident.offgrid_ambiguity(x, support) <= 1e-12


def test_flat_probe_quality_is_poor():
    n = 16
    flat, support = np.ones(n) / 4.0, [(0, 0), (1, 0)]
    with pytest.raises(ident.IdentifiabilityError) as exc:
        ident.identify(np.zeros(n), flat, support)
    assert exc.value.numerical_rank == 1
    assert ident.offgrid_ambiguity(flat, support) == pytest.approx(1.0, abs=1e-12)


def test_quality_predicts_conditioning():
    """Lower worst-case ambiguity comes with a smaller condition number."""
    n = 32
    support = ident.centered_rect_support(3, 3)
    rng = np.random.default_rng(12)
    noiselike = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noiselike /= np.linalg.norm(noiselike)
    train = ident.dirac_train(n, 4)
    cond_train = ident.identify(np.zeros(n), train, support).condition_number
    cond_noise = ident.identify(np.zeros(n), noiselike, support).condition_number
    assert ident.offgrid_ambiguity(train, support) < ident.offgrid_ambiguity(noiselike, support)
    assert cond_train < cond_noise


def worst_offgrid_loop(x, support):
    """The pairwise scan written out: max |A_xx| over support differences, origin excluded."""
    n = x.size
    amb = np.abs(cross_ambiguity(x, x))
    worst = 0.0
    for ma, la in support:
        for mb, lb in support:
            if (ma, la) != (mb, lb):
                worst = max(worst, float(amb[(ma - mb) % n, (la - lb) % n]))
    return worst


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_offgrid_ambiguity_matches_pairwise_loop(data):
    n = data.draw(st.integers(2, 24), label="n")
    lo = -((n - 1) // 2)
    cell = st.tuples(st.integers(lo, lo + n - 1), st.integers(lo, lo + n - 1))
    support = list(data.draw(st.sets(cell, min_size=1, max_size=min(n, 12)), label="support"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if data.draw(st.booleans(), label="train"):
        x = ident.dirac_train(n, data.draw(st.sampled_from(
            [p for p in range(1, n + 1) if n % p == 0]), label="period"))
    assert ident.offgrid_ambiguity(x, support) == worst_offgrid_loop(x, support)


# ---------------------------------------------------------------------------
# property: recovery and rank reporting are a strict dichotomy


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=40))
def test_identify_dichotomy_property(seed, n_cells):
    n = 16
    rng = np.random.default_rng(seed)
    x = ident.dirac_train(n, 4)
    lo = -((n - 1) // 2)
    all_cells = [(m, l) for m in range(lo, lo + n) for l in range(lo, lo + n)]
    pick = rng.choice(len(all_cells), size=min(n_cells, len(all_cells)), replace=False)
    support = [all_cells[j] for j in pick]
    coeffs = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    y = ident.build_sounding_matrix(x, support, n) @ coeffs
    try:
        result = ident.identify(y, x, support)
    except ident.IdentifiabilityError as exc:
        assert exc.numerical_rank < exc.n_unknowns
        return
    assert len(support) <= n
    assert result.residual <= 1e-9 * max(1.0, np.linalg.norm(y))
    # forward error grows with conditioning; the rank gate caps it at ~1e10
    tol = result.condition_number * 1e-12 * max(1.0, np.abs(coeffs).max())
    assert np.abs(result.estimate - coeffs).max() <= max(tol, 1e-10)


# ---------------------------------------------------------------------------
# property: the residue-class block solve against a dense SVD of X


def dense_identify(y, x, support):
    """The dense solve written out: SVD of the full N x |S| sounding matrix.

    Returns (sigma, rank, estimate, residual); estimate and residual are
    None when the rank falls short of |S|.
    """
    n = x.size
    i = np.arange(n)
    mat = np.stack([np.exp(-2j * np.pi * l * i / n) * np.roll(x, m) for m, l in support],
                   axis=1)
    u, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(sigma > ident.RANK_RTOL * sigma[0])) if sigma[0] > 0 else 0
    if rank < len(support):
        return sigma, rank, None, None
    estimate = vh.conj().T @ ((u.conj().T @ y) / sigma)
    return sigma, rank, estimate, float(np.linalg.norm(y - mat @ estimate))


def assert_blocked_matches_dense(y, x, support):
    sigma, rank, estimate, residual = dense_identify(y, x, support)
    top = sigma[0]
    _, blocked = ident._block_svd(x, ident._canonical_support(support, x.size))
    # the block spectra miss exactly the structural zeros of X
    assert blocked.size <= sigma.size
    padded = np.sort(np.concatenate([blocked, np.zeros(sigma.size - blocked.size)]))[::-1]
    assert np.abs(padded - sigma).max() <= 1e-12 * top
    # infinite on the structural and exact zeros of X
    full = blocked.size == sigma.size and blocked.min() > 0
    condition = blocked.max() / blocked.min() if full else np.inf
    if sigma[-1] > ident.RANK_RTOL * top:
        dense_condition = sigma[0] / sigma[-1]
        tol = max(1e-10, dense_condition * 1e-12)
        assert condition == pytest.approx(dense_condition, rel=tol)
    else:
        assert condition >= 0.1 / ident.RANK_RTOL
    if estimate is None:
        with pytest.raises(ident.IdentifiabilityError) as exc:
            ident.identify(y, x, support)
        assert exc.value.numerical_rank == rank
        assert exc.value.n_unknowns == len(support)
        return
    result = ident.identify(y, x, support)
    assert result.support == tuple(support)
    assert result.numerical_rank == rank == len(support)
    assert result.smallest_singular_value == pytest.approx(sigma[-1], abs=1e-12 * top)
    assert result.condition_number == pytest.approx(dense_condition, rel=tol)
    assert np.linalg.norm(result.estimate - estimate) <= tol * np.linalg.norm(estimate)
    assert abs(result.residual - residual) <= 1e-12 * np.linalg.norm(y)


def divisors(n):
    return [p for p in range(1, n + 1) if n % p == 0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_blocked_identify_matches_dense_oracle_property(data):
    n = data.draw(st.integers(1, 64), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    probe = data.draw(st.sampled_from(["comb", "sparse comb", "generic"]), label="probe")
    if probe == "generic":
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        period = data.draw(st.sampled_from(divisors(n)), label="period")
        weights = np.exp(2j * np.pi * rng.random(n // period))
        x = np.roll(ident.dirac_train(n, period, weights), data.draw(
            st.integers(0, period - 1), label="offset"))
        if probe == "sparse comb":  # drop teeth: the comb period can only grow
            teeth = np.flatnonzero(x)
            keep = data.draw(st.sets(st.sampled_from(list(teeth)), min_size=1), label="keep")
            x[np.setdiff1d(teeth, list(keep))] = 0.0
    lo = -((n - 1) // 2)
    if data.draw(st.booleans(), label="rectangle"):
        side = st.integers(1, n - 1 + n % 2)  # even sides reach one cell past lo
        support = ident.centered_rect_support(data.draw(side, label="n_delay"),
                                              data.draw(side, label="n_doppler"))
        support = support[:n + 8]
    else:
        cell = st.tuples(st.integers(lo, lo + n - 1), st.integers(lo, lo + n - 1))
        support = list(data.draw(st.sets(cell, min_size=1, max_size=min(n * n, n + 8)),
                                 label="support"))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_blocked_matches_dense(y, x, support)


def test_rank_threshold_is_global_across_blocks():
    """A singular value between RANK_RTOL times its block's top and the global top.

    A period-4 comb at N=16 with one tooth phase-shifted by delta: in class 0,
    the cells (0, 0) and (4, 0) are the weights and their one-tooth shift, with
    singular values ~sqrt(2) and sin(delta/2).  Class 1 holds four exactly
    parallel columns (Dopplers 4 apart), so the global top is 2.  Counted
    against its own block, the small value would pass the rank threshold.
    """
    delta = 3.4e-10
    x = ident.dirac_train(16, 4, weights=[np.exp(1j * delta), 1.0, 1.0, 1.0])
    support = [(0, 0), (4, 0)] + [(1, l) for l in (-4, 0, 4, 8)]
    sigma, rank, _, _ = dense_identify(np.ones(16), x, support)
    small = np.sin(delta / 2)
    assert ident.RANK_RTOL * np.sqrt(2) < small < ident.RANK_RTOL * sigma[0]
    assert np.abs(sigma - small).min() <= 1e-6 * small
    assert rank == 2
    assert_blocked_matches_dense(np.ones(16), x, support)

