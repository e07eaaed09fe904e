import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from qembed import ensembles as E

SQ2PI = math.sqrt(2.0 / math.pi)


def test_psi2_closed_forms():
    assert E.psi2_norm("rademacher") == 1.0
    assert E.psi2_norm("gaussian") == pytest.approx(SQ2PI, abs=1e-12)
    assert E.psi2_norm("bounded-uniform") == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_alpha_at_least_inv_sqrt2():
    # the p = 2 grid point pins the unit-variance floor
    for kind in E.KINDS:
        assert E.psi2_norm(kind) >= 1 / math.sqrt(2) - 1e-12


def test_make_ensemble_kappa_sources():
    g = E.make_ensemble("gaussian")
    assert g.kappa_sg == 0.0 and g.kappa_source == "exact-zero"
    r = E.make_ensemble("rademacher")
    assert r.kappa_source == "generic-bound"
    assert r.kappa_sg == pytest.approx(9 * math.sqrt(27), abs=1e-9)
    assert r.kappa_sg < 47
    with pytest.raises(E.InvalidArgument):
        E.make_ensemble("rademacher", "exact-zero")
    with pytest.raises(E.InvalidArgument):
        E.make_ensemble("rademacher", "bogus")
    with pytest.raises(E.InvalidArgument):
        E.make_ensemble("cauchy")


def test_sample_matrix_support_and_reproducibility():
    r = E.make_ensemble("rademacher")
    m1 = E.sample_matrix(r, 2, 2, 5)
    assert set(np.unique(m1.entries)) <= {-1.0, 1.0}
    m2 = E.sample_matrix(r, 2, 2, 5)
    assert np.array_equal(m1.entries, m2.entries)
    with pytest.raises(E.InvalidArgument):
        E.sample_matrix(r, 0, 3, 1)


def test_gaussian_isotropy_row_norms():
    g = E.make_ensemble("gaussian")
    mat = E.sample_matrix(g, 1000, 1000, 17)
    stat = np.mean(np.sum(mat.entries**2, axis=1) / 1000.0)
    stderr = math.sqrt(2.0 / (1000 * 1000))
    assert abs(stat - 1.0) <= 3 * stderr


def test_bounded_uniform_unit_variance():
    b = E.make_ensemble("bounded-uniform")
    draws = E.sample_iid(b, 10**6, 23)
    # var(X^2) = E X^4 - 1 = 9/5 - 1
    stderr = math.sqrt(0.8 / 10**6)
    assert abs(np.mean(draws**2) - 1.0) <= 3 * stderr
    assert np.max(np.abs(draws)) <= math.sqrt(3)


def test_mu_sg_gaussian_exact():
    g = E.make_ensemble("gaussian")
    u = np.array([3.0, -4.0])
    est, se = E.mu_sg(g, u, 10, 0)
    assert est == pytest.approx(SQ2PI * 5.0, abs=1e-12)
    assert se == 0.0


def test_mu_sg_rademacher_values():
    r = E.make_ensemble("rademacher")
    est, se = E.mu_sg(r, np.array([1.0, 0.0]), 50_000, 1)
    assert abs(est - 1.0) <= 3 * se + 1e-12
    # enumerating the four sign patterns gives E|+-1 +- 1| = 1
    est2, se2 = E.mu_sg(r, np.array([1.0, 1.0]), 50_000, 2)
    assert abs(est2 - 1.0) <= 3 * se2


def test_mu_sg_bound_by_norm():
    for kind in E.KINDS:
        ens = E.make_ensemble(kind)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(9)
            est, se = E.mu_sg(ens, u, 20_000, rng)
            assert est <= np.linalg.norm(u) + 3 * se + 1e-12


def test_mu_sg_envelope_generic_bound():
    for kind in ("rademacher", "bounded-uniform"):
        ens = E.make_ensemble(kind)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.standard_normal(12)
            est, se = E.mu_sg(ens, u, 20_000, rng)
            lhs = abs(est - SQ2PI * np.linalg.norm(u))
            assert lhs <= ens.kappa_sg * np.max(np.abs(u)) + 3 * se


def test_mu_sg_rejects_zero_vector():
    g = E.make_ensemble("gaussian")
    with pytest.raises(E.InvalidArgument):
        E.mu_sg(g, np.zeros(3), 10, 0)


def test_mu_sg_exact_binomial_values():
    assert E.mu_sg_exact_binomial(1) == 1.0
    assert E.mu_sg_exact_binomial(2) == 1.0  # outcomes {-2, 0, 0, 2}
    assert E.mu_sg_exact_binomial(4) == 1.5
    with pytest.raises(E.InvalidArgument):
        E.mu_sg_exact_binomial(0)


def test_binomial_exact_matches_monte_carlo():
    r = E.make_ensemble("rademacher")
    for k0 in (3, 6):
        est, se = E.mu_sg(r, np.ones(k0), 100_000, k0)
        assert abs(est - E.mu_sg_exact_binomial(k0)) <= 3 * se


def test_berry_esseen_gaussian_zero():
    g = E.make_ensemble("gaussian")
    gap, se = E.berry_esseen_gap(g, np.array([0.6, 0.8]), 100, 0)
    assert gap == 0.0 and se == 0.0


def test_berry_esseen_requires_unit_vector():
    r = E.make_ensemble("rademacher")
    with pytest.raises(E.InvalidArgument):
        E.berry_esseen_gap(r, np.array([1.0, 1.0]), 100, 0)


def test_berry_esseen_rademacher_e1_vs_quadrature():
    # |phi_1| = 1 a.s.: the tail-gap integral has an independent 1-d oracle
    def integrand(t):
        emp = 1.0 if t < 1.0 else 0.0
        return abs(emp - 2.0 * (1.0 - norm.cdf(t)))

    oracle = quad(integrand, 0.0, 1.0)[0] + quad(integrand, 1.0, 12.0)[0]
    r = E.make_ensemble("rademacher")
    gap, se = E.berry_esseen_gap(r, np.array([1.0, 0.0, 0.0]), 20_000, 3)
    assert abs(gap - oracle) <= 3 * se + 1e-6


def test_berry_esseen_flat_vector_bound():
    r = E.make_ensemble("rademacher")
    u = np.ones(16) / 4.0
    gap, se = E.berry_esseen_gap(r, u, 40_000, 5)
    assert gap <= 47.0 / 4.0 + 3 * se


def test_exact_tail_gap_discrete_matches_quadrature():
    # two-atom |X| in {0.5, 1.5} with probs {0.5, 0.5}
    mags = np.array([0.5, 1.5])
    probs = np.array([0.5, 0.5])

    def integrand(t):
        emp = 1.0 if t <= 0.5 else (0.5 if t <= 1.5 else 0.0)
        return abs(emp - 2.0 * (1.0 - norm.cdf(t)))

    oracle = sum(quad(integrand, a, b, limit=200)[0]
                 for a, b in ((0, 0.5), (0.5, 1.5), (1.5, 12.0)))
    assert E.exact_tail_gap_discrete(mags, probs) == pytest.approx(oracle, abs=1e-8)


def test_estimated_kappa_below_generic_bound():
    r = E.make_ensemble("rademacher", "estimated")
    generic = E.make_ensemble("rademacher")
    assert 0 < r.kappa_sg < generic.kappa_sg
    # the estimated value still certifies the first-moment envelope
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(10)
        est, se = E.mu_sg(generic, u, 40_000, rng)
        lhs = abs(est - SQ2PI * np.linalg.norm(u))
        assert lhs <= r.kappa_sg * np.max(np.abs(u)) + 3 * se

