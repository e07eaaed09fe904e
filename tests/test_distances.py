import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qembed import distances as D
from qembed import ensembles as E
from qembed import quantizer as Q

SQ2PI = math.sqrt(2.0 / math.pi)


def _off_boundary(a, b, t, delta):
    """True when no comparison lands within float noise of a threshold.

    Exact lattice ties are measure zero under dithering and are flagged, not
    resolved, by the library; the two counting paths may legitimately differ
    there.
    """
    vals = np.array([a - t, a + t, b - t, b + t]) / delta
    return bool(np.all(np.abs(vals - np.round(vals)) > 1e-9))


def test_soft_count_examples():
    assert D.soft_count_array(0.2, 2.7, 0.0, 1.0) == 2  # thresholds 1 and 2
    assert D.soft_count_array(0.9, 1.1, 0.3, 1.0) == 0
    assert D.soft_count_array(0.9, 1.1, 0.0, 1.0) == 1
    assert D.soft_count_array(0.9, 1.1, -0.3, 1.0) == 1


def test_soft_count_equal_inputs_nonneg_t():
    for t in (0.0, 0.1, 2.0):
        for a in (-3.3, 0.0, 7.1):
            assert D.soft_count_array(a, a, t, 0.5) == 0


def test_soft_count_rejects_nonfinite():
    with pytest.raises(E.InvalidArgument):
        D.soft_count_array(float("inf"), 0.0, 0.0, 1.0)
    with pytest.raises(E.InvalidArgument):
        D.soft_count_array([0.0], [0.0], 0.0, -1.0)


finite_reals = st.floats(-20, 20, allow_nan=False)
soft_ts = st.floats(-3, 3, allow_nan=False)


@given(finite_reals, finite_reals, soft_ts, st.sampled_from([0.1, 1.0, 2.0]))
@settings(max_examples=500, deadline=None)
def test_soft_count_matches_enumeration(a, b, t, delta):
    assume(_off_boundary(a, b, t, delta))
    assert D.soft_count_enumerated([a], [b], [t], delta) == D.soft_count_array(a, b, t, delta)


@given(finite_reals, finite_reals, soft_ts, soft_ts, st.sampled_from([0.1, 1.0, 2.0]))
@settings(max_examples=500, deadline=None)
def test_lemma1_bounds_property(a, b, t, s, delta):
    lhs_ts, bound_ts, lhs_abs, bound_abs = D.lemma1_check(a, b, t, s, delta)
    assert lhs_ts <= bound_ts
    assert lhs_abs <= bound_abs


def test_lemma1_examples():
    lhs_ts, bound_ts, lhs_abs, bound_abs = D.lemma1_check(0.2, 2.7, 0.0, 0.0, 1.0)
    assert lhs_ts == 0.0 and bound_ts == 4.0
    assert lhs_abs == pytest.approx(0.5)  # |2 - 2.5|
    assert bound_abs == 4.0


def _gaussian_map(m=16, n=4, delta=0.5, seed=0, variant="floor"):
    return Q.make_map(E.make_ensemble("gaussian"), m, n, delta, seed, variant=variant)


def test_pseudo_distance_self_zero():
    qmap = _gaussian_map()
    x = np.array([0.1, -0.2, 0.3, 0.4])
    assert D.pseudo_distance(qmap, x, x) == 0.0


def test_pseudo_distance_rademacher_e1():
    ens = E.make_ensemble("rademacher")
    for m in (8, 64, 256):
        qmap = Q.make_map(ens, m, 3, 1.0, m)
        x = np.zeros(3)
        x[0] = 1.0
        assert D.pseudo_distance(qmap, x, np.zeros(3)) == 1.0


def test_pseudo_distance_matches_codes():
    qmap = _gaussian_map(seed=3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.standard_normal((2, 4))
        ca = Q.apply_many(qmap, x[:, None])
        cb = Q.apply_many(qmap, y[:, None])
        expected = qmap.delta * np.sum(np.abs(ca - cb)) / qmap.m
        assert D.pseudo_distance(qmap, x, y) == expected


def test_pair_distances_rejects_odd_column_count():
    qmap = Q.make_map(E.make_ensemble("gaussian"), 64, 2, 0.5, 1)
    for xs in ([[0, 1, 5], [0, 0, 0]], [0, 1]):
        with pytest.raises(E.InvalidArgument):
            D.pair_distances([qmap], xs)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
def test_pair_distances_blocked_equals_whole(kind):
    # 40 pairs in dimension 16: blocks of BLOCK_ENTRIES // 80 rows, and
    # M = 3 blocks + 5 rows leaves a partial last block
    count, n = 80, 16
    rows = Q.block_rows(n, count)
    assert rows == Q.BLOCK_ENTRIES // count
    m = 3 * rows + 5
    ens = E.make_ensemble(kind)
    qmap = Q.make_map(ens, m, n, 0.5, 3)
    blocks = list(Q.map_blocks(ens, m, n, 0.5, 3, rows))
    assert [b.m for b in blocks] == [rows, rows, rows, 5]
    assert np.array_equal(np.vstack([b.phi for b in blocks]), qmap.phi)
    assert np.array_equal(np.concatenate([b.xi for b in blocks]), qmap.xi)
    xs = np.random.default_rng(4).standard_normal((n, count))
    codes = Q.apply_many(qmap, xs)
    whole = qmap.delta * np.abs(codes[:, 0::2] - codes[:, 1::2]).sum(axis=0) / qmap.m
    assert np.array_equal(D.pair_distances([qmap], xs), whole)
    assert np.array_equal(D.pair_distances(Q.map_blocks(ens, m, n, 0.5, 3, rows), xs), whole)


def test_pair_distances_sparse_batch_equals_dense():
    # 200 sparse-ball pairs in dimension 512, as the quasi-isometry sweep
    # samples them: blocks of 256 rows, and M = 3 blocks + 5 rows
    from qembed import geometry as G
    from scipy.sparse import csc_array

    spec = G.SparseBall(n=512, k=4, radius=1.0)
    rng = np.random.default_rng(8)
    xs = np.column_stack([G.sample_point(spec, rng) for _ in range(400)])
    rows = Q.block_rows(512, 400)
    m = 3 * rows + 5
    ens = E.make_ensemble("gaussian")
    dense = D.pair_distances(Q.map_blocks(ens, m, 512, 0.5, 9, rows), xs)
    sparse = D.pair_distances(Q.map_blocks(ens, m, 512, 0.5, 9, rows), csc_array(xs))
    assert np.count_nonzero(dense) > 190
    assert np.array_equal(sparse, dense)


def test_soft_distance_t0_equals_pseudo():
    # both variants: D^t counts the thresholds the map's variant uses
    for variant in Q.VARIANTS:
        qmap = _gaussian_map(seed=5, variant=variant)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.standard_normal((2, 4))
            assert D.soft_pseudo_distance(qmap, x, y, 0.0) == D.pseudo_distance(qmap, x, y)


def test_soft_distance_vanishes_for_large_t():
    qmap = _gaussian_map(seed=6)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 4))
    za, zb = qmap.project_many(np.column_stack([x, y])).T
    t_big = float(np.max(np.abs(za - zb))) + qmap.delta
    assert D.soft_pseudo_distance(qmap, x, y, t_big) == 0.0


def test_soft_distance_monotone_and_sandwich():
    rng = np.random.default_rng(4)
    for seed in range(30):
        qmap = _gaussian_map(m=12, n=3, delta=float(rng.choice([0.1, 0.5, 1.0])), seed=seed)
        x, y = rng.standard_normal((2, 3))
        d0 = D.pseudo_distance(qmap, x, y)
        grid = np.linspace(-0.4, 0.4, 9)
        vals = [D.soft_pseudo_distance(qmap, x, y, float(t)) for t in grid]
        # the array form projects once and gives the same values
        assert D.soft_pseudo_distance(qmap, x, y, grid).tolist() == vals
        assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))
        for t in (0.1, 0.25, 0.4):
            assert D.soft_pseudo_distance(qmap, x, y, t) <= d0 + 1e-12
            assert d0 <= D.soft_pseudo_distance(qmap, x, y, -t) + 1e-12


def test_lemma3_zero_perturbation_reduces_to_monotonicity():
    qmap = _gaussian_map(seed=13)
    x0 = np.array([0.3, -0.2, 0.5, 0.1])
    y0 = np.array([-0.4, 0.2, 0.0, 0.6])
    z = np.zeros(4)
    assert D.lemma3_check(qmap, x0, y0, z, z, t=0.0, eta=1e-6, p_cap=4.0)


def test_lemma3_random_instances():
    rng = np.random.default_rng(7)
    violations = 0
    for seed in range(200):
        qmap = _gaussian_map(m=24, n=5, delta=0.4, seed=1000 + seed)
        x0, y0 = rng.standard_normal((2, 5))
        xp, yp = 0.05 * rng.standard_normal((2, 5))
        phi = qmap.phi
        eta = max(np.linalg.norm(phi @ xp), np.linalg.norm(phi @ yp)) / math.sqrt(qmap.m)
        eta = max(eta, 1e-12)
        if not D.lemma3_check(qmap, x0, y0, xp, yp, t=0.0, eta=eta, p_cap=4.0):
            violations += 1
    assert violations == 0


def test_lemma3_precondition_failure_is_distinct():
    qmap = _gaussian_map(seed=14)
    big = np.full(4, 10.0)
    with pytest.raises(D.PreconditionFailed):
        D.lemma3_check(qmap, big, big, big, big, t=0.0, eta=1e-9, p_cap=4.0)


def test_expectation_identity_monte_carlo():
    # fresh map per trial: mean D matches the exact gaussian first moment
    rng = np.random.default_rng(8)
    ens = E.make_ensemble("gaussian")
    x, y = rng.standard_normal((2, 6))
    target = SQ2PI * np.linalg.norm(x - y)
    trials, m = 4000, 4
    phi = rng.standard_normal((trials * m, 6))
    xi = rng.random(trials * m)
    ca = Q.quantize_array(phi @ x + xi, 1.0)
    cb = Q.quantize_array(phi @ y + xi, 1.0)
    d_vals = np.abs(ca - cb).reshape(trials, m).sum(axis=1) / m
    se = d_vals.std(ddof=1) / math.sqrt(trials)
    assert abs(d_vals.mean() - target) <= 3 * se


def test_expectation_identity_rademacher_matches_mu_sg():
    rng = np.random.default_rng(9)
    ens = E.make_ensemble("rademacher")
    x = np.array([1.0, 1.0, 0.0])
    y = np.zeros(3)
    trials, m = 4000, 4
    phi = E.sample_iid(ens, (trials * m, 3), rng)
    xi = rng.random(trials * m)
    d_vals = np.abs(Q.quantize_array(phi @ x + xi, 1.0) - Q.quantize_array(phi @ y + xi, 1.0))
    d_vals = d_vals.reshape(trials, m).sum(axis=1) / m
    se = d_vals.std(ddof=1) / math.sqrt(trials)
    assert abs(d_vals.mean() - E.mu_sg_exact_binomial(2)) <= 3 * se


def test_lemma2_mean_shift_linear_in_t():
    # |E d^t - E d^0| grows at most linearly in |t|; gaussian t=0 mean is exact
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((2, 5))
    target = SQ2PI * np.linalg.norm(x - y)
    n_draws = 200_000
    phi = rng.standard_normal((n_draws, 5))
    xi = rng.random(n_draws)
    za, zb = phi @ x + xi, phi @ y + xi
    means = {}
    for t in (0.0, 0.1, 0.2, 0.4):
        vals = D.soft_count_array(za, zb, t, 1.0).astype(np.float64)
        means[t] = (vals.mean(), vals.std(ddof=1) / math.sqrt(n_draws))
    m0, se0 = means[0.0]
    assert abs(m0 - target) <= 3 * se0
    cs = []
    for t in (0.1, 0.2, 0.4):
        mt, se = means[t]
        cs.append((abs(mt - m0) - 3 * (se + se0)) / t)
    c_fit = max(max(cs), 0.0)
    assert c_fit <= 4.0  # comfortably below the analytic envelope
