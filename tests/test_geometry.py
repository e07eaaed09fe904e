import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from qembed import ensembles as E
from qembed import geometry as G

SQ2PI = math.sqrt(2.0 / math.pi)


def _contains(spec, u, tol=1e-9) -> bool:
    """u lies in the set, up to tol."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (G.ambient_dim(spec),):
        return False
    if isinstance(spec, G.FiniteSet):
        return bool(np.any(np.linalg.norm(spec.points - u, axis=1) <= tol))
    if isinstance(spec, G.SparseBall):
        nz = np.sum(np.abs(u) > tol)
        return nz <= spec.k and np.linalg.norm(u) <= spec.radius + tol
    if isinstance(spec, G.LowRankBall):
        s = np.linalg.svd(u.reshape(spec.n1, spec.n2), compute_uv=False)
        rank = np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0))
        return rank <= spec.r and np.linalg.norm(u) <= spec.radius + tol
    assert isinstance(spec, G.EuclideanBall)
    return bool(np.linalg.norm(u) <= spec.radius + tol)


def test_membership_of_samples():
    rng = np.random.default_rng(0)
    specs = [
        G.FiniteSet(points=rng.standard_normal((5, 3))),
        G.SparseBall(n=16, k=3, radius=1.0),
        G.LowRankBall(n1=4, n2=4, r=1, radius=2.0),
        G.EuclideanBall(n=6, radius=0.8),
    ]
    for spec in specs:
        for seed in range(10):
            p = G.sample_point(spec, seed)
            assert _contains(spec, p)


def test_finite_singleton_sampling():
    p = np.array([[1.0, 2.0]])
    spec = G.FiniteSet(points=p)
    assert np.array_equal(G.sample_point(spec, 0), p[0])


def test_sparse_sample_respects_support_and_radius():
    spec = G.SparseBall(n=16, k=3, radius=1.0)
    p = G.sample_point(spec, 1)
    assert np.sum(p != 0) <= 3
    assert np.linalg.norm(p) <= 1.0


def test_sparse_ball_point_is_sample_point_with_its_support():
    spec = G.SparseBall(n=16, k=3, radius=1.0)
    a, b, c = (np.random.default_rng(4) for _ in range(3))
    for _ in range(20):
        p, support = G.sparse_ball_point(spec, a)
        assert np.array_equal(p, G.sample_point(spec, b))
        # the Generator calls of a sparse-ball point, in their order
        drawn = c.choice(16, size=3, replace=False)
        coeffs = c.standard_normal(3)
        target = c.random()
        assert np.array_equal(support, drawn)
        assert np.array_equal(p[support], coeffs * (target / np.linalg.norm(coeffs)))
        assert not np.any(np.delete(p, support))
    assert a.random() == b.random() == c.random()


def test_lowrank_sample_rank_and_norm():
    spec = G.LowRankBall(n1=4, n2=4, r=1, radius=2.0)
    p = G.sample_point(spec, 2).reshape(4, 4)
    assert np.linalg.matrix_rank(p, tol=1e-9) <= 1
    assert np.linalg.norm(p) <= 2.0


def test_sup_oracle_euclidean_ball():
    spec = G.EuclideanBall(n=5, radius=1.0)
    g = np.arange(5.0)
    assert G.sup_oracle(spec, g) == pytest.approx(np.linalg.norm(g))


def test_sup_oracle_sparse_vs_enumeration():
    rng = np.random.default_rng(3)
    for n in range(4, 11):
        for k in (1, 2, min(3, n)):
            spec = G.SparseBall(n=n, k=k, radius=1.0)
            for _ in range(4):
                g = rng.standard_normal(n)
                brute = max(np.linalg.norm(g[list(s)]) for s in combinations(range(n), k))
                assert G.sup_oracle(spec, g) == pytest.approx(brute, abs=1e-12)


def test_sup_oracle_lowrank_full_rank_is_frobenius():
    spec = G.LowRankBall(n1=3, n2=3, r=3, radius=1.0)
    rng = np.random.default_rng(5)
    g = rng.standard_normal(9)
    assert G.sup_oracle(spec, g) == pytest.approx(np.linalg.norm(g), abs=1e-9)


def test_sup_oracle_dimension_mismatch():
    with pytest.raises(E.InvalidArgument):
        G.sup_oracle(G.EuclideanBall(n=3, radius=1.0), np.zeros(4))


def test_width_finite_singleton():
    u = np.array([0.3, -0.4, 1.2])
    est = G.width_estimate(G.FiniteSet(points=u[None, :]), 20_000, 0)
    assert abs(est.mean - SQ2PI * np.linalg.norm(u)) <= 3 * est.stderr


def test_width_euclidean_ball_2d():
    est = G.width_estimate(G.EuclideanBall(n=2, radius=1.0), 30_000, 1)
    assert abs(est.mean - math.sqrt(math.pi / 2)) <= 3 * est.stderr


def test_width_sparse_log_bound():
    for n, k in ((64, 4), (128, 2)):
        est = G.width_estimate(G.SparseBall(n=n, k=k, radius=1.0), 4000, n)
        c_fit = est.mean**2 / (k * math.log(2 * n / k))
        assert c_fit <= 4.0


def test_anti_sparse_at_the_level():
    assert G.anti_sparse(np.array([1.0, 0.0, 0.0]), 1.0)
    assert not G.anti_sparse(np.array([1.0, 0.0, 0.0]), np.nextafter(1.0, 2.0))
    assert G.anti_sparse(np.array([1.0, 1.0, 0.0]), 2.0)
    assert not G.anti_sparse(np.array([1.0, 1.0, 0.0]), np.nextafter(2.0, 3.0))
    assert G.anti_sparse(np.ones(10), 10.0)
    assert not G.anti_sparse(np.ones(10), np.nextafter(10.0, 11.0))
    assert not G.anti_sparse(np.zeros(3), 0.0)


def test_anti_sparse_level_range():
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = rng.standard_normal(12)
        assert G.anti_sparse(u, 1.0)
        assert not G.anti_sparse(u, np.nextafter(12.0, 13.0))


def test_stacked_anti_sparse_equals_each_row():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((4, 5, 12)) * rng.uniform(1e-3, 1e3, (4, 5, 1))
    stack[0, 0, 1:] = 0.0
    stack[2, 3] = 0.0
    for k0 in (0.0, 0.5, 1.0, 1.5, 3.0, 6.0):
        passed = G.anti_sparse(stack, k0)
        assert passed.shape == (4, 5)
        assert all(passed[i, j] == G.anti_sparse(stack[i, j], k0)
                   for i in range(4) for j in range(5))
        assert isinstance(G.anti_sparse(stack[0, 0], k0), bool)
        # a zero row never passes, and k0 <= 1 filters nothing else
        assert not passed[2, 3]
        if k0 <= 1.0:
            assert np.array_equal(passed, np.any(stack, axis=-1))
    assert not G.anti_sparse(stack[0, 0], 1.5)


def test_anti_sparse_is_exact_on_the_mesh_differences():
    # every ordered pair of distinct mesh points, decided in exact rationals
    # on the float differences
    pts = G.ball_mesh(3, 0.3).points
    i, j = np.nonzero(~np.eye(len(pts), dtype=bool))
    diffs = pts[i] - pts[j]
    exact = [(sum(Fraction(x) ** 2 for x in d), max(Fraction(abs(x)) for x in d) ** 2)
             for d in diffs.tolist()]
    decisions = 0
    for k0 in (1.5, 2.0, 3.0):
        want = [sq >= Fraction(k0) * sup_sq for sq, sup_sq in exact]
        assert G.anti_sparse(diffs, k0).tolist() == want
        decisions += len(want)
    assert decisions == 70_686


def test_minimal_m_eps_scaling():
    spec = G.SparseBall(n=32, k=2, radius=1.0)
    m1 = G.minimal_m(spec, "embed-general", 0.2, 0.5, 1.0, draws=2000, seed=0)
    m2 = G.minimal_m(spec, "embed-general", 0.1, 0.5, 1.0, draws=2000, seed=0)
    assert m2 / m1 == pytest.approx(32.0, rel=0.01)
    s1 = G.minimal_m(spec, "width-structured", 0.2, 0.5, 1.0)
    s2 = G.minimal_m(spec, "width-structured", 0.1, 0.5, 1.0)
    assert 2.0 < s2 / s1 < 3.0


def test_minimal_m_validation():
    spec = G.SparseBall(n=32, k=2, radius=1.0)
    with pytest.raises(E.InvalidArgument):
        G.minimal_m(spec, "embed-general", 1.5, 0.5, 1.0)
    with pytest.raises(E.InvalidArgument):
        G.minimal_m(spec, "embed-general", 0.2, 0.5, 0.0)
    with pytest.raises(E.InvalidArgument):
        G.minimal_m(spec, "embed-sideways", 0.2, 0.5, 1.0)
    with pytest.raises(E.InvalidArgument):
        G.minimal_m(G.EuclideanBall(n=4, radius=1.0), "embed-structured", 0.2, 0.5, 1.0)
    # a count that is not finite: an infinite constant or bin width, or a
    # power that underflows to a zero divisor or overflows
    ball = G.EuclideanBall(n=2, radius=1.0)
    for args in ((spec, "embed-structured", 0.5, 0.5, math.inf),
                 (ball, "width-general", 0.5, math.inf, 1.0),
                 (ball, "embed-general", 1e-70, 0.5, 1.0),
                 (spec, "width-general", 0.5, 1e200, 1.0)):
        with pytest.raises(E.InvalidArgument):
            G.minimal_m(*args, draws=16)


def test_sets_must_be_finite():
    for make in (lambda r: G.SparseBall(n=4, k=2, radius=r),
                 lambda r: G.LowRankBall(n1=2, n2=2, r=1, radius=r),
                 lambda r: G.EuclideanBall(n=2, radius=r),
                 lambda r: G.FiniteSet(points=np.array([[r, 0.0], [1.0, 0.0]]))):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(E.InvalidArgument):
                make(value)
    for radius in (0.0, -1.0):
        with pytest.raises(E.InvalidArgument):
            G.EuclideanBall(n=2, radius=radius)


def test_ball_mesh():
    mesh = G.ball_mesh(3, 0.5)
    assert np.all(np.linalg.norm(mesh.points, axis=1) <= 1.0 + 1e-12)
    assert len(mesh.points) > 20
    assert G.diameter(mesh) <= 1.0 + 1e-12
