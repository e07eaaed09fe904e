import math
from itertools import combinations

import numpy as np
import pytest

from qembed import ensembles as E
from qembed import geometry as G

SQ2PI = math.sqrt(2.0 / math.pi)


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
            assert G.contains(spec, p)


def test_finite_singleton_sampling():
    p = np.array([[1.0, 2.0]])
    spec = G.FiniteSet(points=p)
    assert np.array_equal(G.sample_point(spec, 0), p[0])


def test_sparse_sample_respects_support_and_radius():
    spec = G.SparseBall(n=16, k=3, radius=1.0)
    p = G.sample_point(spec, 1)
    assert np.sum(p != 0) <= 3
    assert np.linalg.norm(p) <= 1.0


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


def test_anti_sparsity_levels():
    assert G.anti_sparsity_level(np.array([1.0, 0.0, 0.0])) == 1.0
    assert G.anti_sparsity_level(np.array([1.0, 1.0, 0.0])) == 2.0
    assert G.anti_sparsity_level(np.ones(10)) == pytest.approx(10.0)
    with pytest.raises(E.InvalidArgument):
        G.anti_sparsity_level(np.zeros(3))


def test_anti_sparsity_level_range():
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = rng.standard_normal(12)
        lvl = G.anti_sparsity_level(u)
        assert 1.0 <= lvl <= 12.0


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


def test_ball_mesh():
    mesh = G.ball_mesh(3, 0.5)
    assert np.all(np.linalg.norm(mesh.points, axis=1) <= 1.0 + 1e-12)
    assert len(mesh.points) > 20
    assert G.diameter(mesh) <= 1.0 + 1e-12
