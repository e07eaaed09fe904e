import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom, kstest, norm, uniform

from qembed import distances as D
from qembed import ensembles as E
from qembed import experiments as X
from qembed import geometry as G

SQ2PI = math.sqrt(2.0 / math.pi)


# E|X|^p of the non-Gaussian kinds; |X| is uniform on [0, sqrt(3)] for bounded-uniform
ABS_MOMENTS = {"rademacher": lambda p: np.ones_like(p),
               "bounded-uniform": lambda p: math.sqrt(3.0) ** p / (p + 1)}
PSI2_GRID = np.linspace(1.0, 64.0, 63_001)  # real p in [1, 64], steps of 1e-3


def _psi2_on_the_grid(kind):
    """p^(-1/2) (E|X|^p)^(1/p) at each p of PSI2_GRID."""
    return ABS_MOMENTS[kind](PSI2_GRID) ** (1.0 / PSI2_GRID) / np.sqrt(PSI2_GRID)


def test_psi2_closed_forms():
    # each closed form is the sup over the grid, taken at p = 1, and gives
    # the generic-bound kappa 9 sqrt(27) psi2^3
    for kind in ("rademacher", "bounded-uniform"):
        vals = _psi2_on_the_grid(kind)
        assert np.argmax(vals) == 0
        assert E._PSI2[kind] == pytest.approx(vals.max(), rel=1e-15)
    assert E._PSI2 == {"rademacher": 1.0, "bounded-uniform": math.sqrt(3) / 2}
    assert E.make_ensemble("rademacher").kappa_sg == 46.76537180435969
    assert E.make_ensemble("bounded-uniform").kappa_sg == 30.374999999999996
    # a Gaussian's kappa is 0 without it
    assert "gaussian" not in E._PSI2


def test_alpha_at_least_inv_sqrt2():
    # the p = 2 grid point pins the unit-variance floor
    p2 = np.flatnonzero(PSI2_GRID == 2.0)
    for kind in ("rademacher", "bounded-uniform"):
        assert _psi2_on_the_grid(kind)[p2] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert E._PSI2[kind] >= 1 / math.sqrt(2) - 1e-12


def test_make_ensemble_kappa_sources():
    assert E.make_ensemble("gaussian").kappa_sg == 0.0
    assert E.make_ensemble("gaussian", "estimated").kappa_sg == 0.0
    r = E.make_ensemble("rademacher")
    assert r.kappa_sg == E.make_ensemble("rademacher", "generic-bound").kappa_sg
    assert r.kappa_sg == pytest.approx(9 * math.sqrt(27), abs=1e-9)
    assert r.kappa_sg < 47
    for source in ("exact-zero", "default", "bogus"):
        for kind in E.KINDS:
            with pytest.raises(E.InvalidArgument):
                E.make_ensemble(kind, source)
    with pytest.raises(E.InvalidArgument):
        E.make_ensemble("cauchy")


def test_sample_matrix_support_and_reproducibility():
    r = E.make_ensemble("rademacher")
    [m1] = E.sample_matrix(r, 2, 2, 5)
    assert set(np.unique(m1)) <= {-1.0, 1.0}
    [m2] = E.sample_matrix(r, 2, 2, 5)
    assert np.array_equal(m1, m2)
    assert not m1.flags.writeable
    with pytest.raises(E.InvalidArgument):
        E.sample_matrix(r, 0, 3, 1)


@pytest.mark.parametrize("kind", E.KINDS)
def test_sample_matrix_blocks_stack_to_the_whole(kind):
    # M = 3 blocks + 5 rows: the partial last block is drawn too
    ens = E.make_ensemble(kind)
    [whole] = E.sample_matrix(ens, 3 * 7 + 5, 9, 23)
    blocks = list(E.sample_matrix(ens, 3 * 7 + 5, 9, 23, rows=7))
    assert [b.shape for b in blocks] == [(7, 9)] * 3 + [(5, 9)]
    assert not any(b.flags.writeable for b in blocks)
    assert np.array_equal(np.vstack(blocks), whole)
    with pytest.raises(E.InvalidArgument):
        E.sample_matrix(ens, 4, 3, 1, rows=0)


def test_sample_matrix_law():
    # 20000 entries per kind: the KS bound 0.02 and the +1 share bound 0.02
    # each have a false-alarm rate of 2 exp(-2 * 20000 * 0.02^2) = 2e-7
    s3 = math.sqrt(3.0)
    gauss = next(E.sample_matrix(E.make_ensemble("gaussian"), 100, 200, 19)).ravel()
    assert kstest(gauss, norm.cdf).statistic <= 0.02
    unif = next(E.sample_matrix(E.make_ensemble("bounded-uniform"), 100, 200, 19)).ravel()
    assert kstest(unif, uniform(loc=-s3, scale=2 * s3).cdf).statistic <= 0.02
    signs = next(E.sample_matrix(E.make_ensemble("rademacher"), 100, 200, 19)).ravel()
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    assert abs(np.mean(signs == 1.0) - 0.5) <= 0.02


def test_gaussian_isotropy_row_norms():
    g = E.make_ensemble("gaussian")
    [mat] = E.sample_matrix(g, 1000, 1000, 17)
    stat = np.mean(np.sum(mat**2, axis=1) / 1000.0)
    stderr = math.sqrt(2.0 / (1000 * 1000))
    assert abs(stat - 1.0) <= 3 * stderr


def test_bounded_uniform_unit_variance():
    b = E.make_ensemble("bounded-uniform")
    draws = E.sample_iid(b, 10**6, 23)
    # var(X^2) = E X^4 - 1 = 9/5 - 1
    stderr = math.sqrt(0.8 / 10**6)
    assert abs(np.mean(draws**2) - 1.0) <= 3 * stderr
    assert np.max(np.abs(draws)) <= math.sqrt(3)


def test_mu_sg_gaussian_agrees_with_the_exact_mean():
    # <phi, u> ~ N(0, ||u||^2) for Gaussian rows, so E|<phi, u>| = sqrt(2/pi) ||u||
    g = E.make_ensemble("gaussian")
    u = np.array([3.0, -4.0])
    est, se = E.mu_sg(g, u, 50_000, 0)
    assert 0.0 < se < float("inf")
    assert abs(est - SQ2PI * 5.0) <= 3 * se


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


@pytest.mark.parametrize("kind", E.KINDS)
@pytest.mark.parametrize("n, samples", [(9, 100_001), (32, 20_000), (4099, 70)])
def test_mu_sg_blocked_equals_the_whole_draw(kind, n, samples):
    # several blocks and a partial last one of more than one row (a lone row
    # goes through another kernel); at n = 4099 blocks of 31 rows
    # (BLOCK_ENTRIES // n) would split the BLAS's row groups and move the mean
    ens = E.make_ensemble(kind)
    u = np.random.default_rng(n).standard_normal(n)
    vals = np.abs(E.sample_iid(ens, (samples, n), 5) @ u)
    whole = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples)))
    assert E.mu_sg(ens, u, samples, 5) == whole


def test_mu_sg_holds_one_block():
    # 100,000 x 32 draws are 24 MiB whole; one block is 1 MiB, plus the
    # 100,000 values |<phi, u>| and the Rademacher draw's integer block
    import tracemalloc

    u = np.random.default_rng(4).standard_normal(32)
    tracemalloc.start()
    try:
        E.mu_sg(E.make_ensemble("rademacher"), u, 100_000, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * E.BLOCK_ENTRIES


def _budget_cases() -> dict:
    """One call per function that holds row blocks, on inputs whose whole
    arrays take 1-16 MiB and fill a block of the default budget (1 MiB)."""
    rng = np.random.default_rng(31)
    u = rng.standard_normal(512)
    v = u - 0.3 * rng.standard_normal(512)
    a, b = rng.uniform(-20, 20, (2, 2000))
    t = rng.uniform(-3, 3, 2000)
    pts = rng.standard_normal((400, 8))
    rade, gauss = E.make_ensemble("rademacher"), E.make_ensemble("gaussian")
    return {
        "mu_sg": lambda: E.mu_sg(rade, u, 4096, 1),
        "soft_count_enumerated": lambda: D.soft_count_enumerated(a, b, t, 0.1),
        "_max_filtered_distance": lambda: X._max_filtered_distance(pts, 1.0),
        "width_estimate": lambda: G.width_estimate(G.SparseBall(512, 4, 1.0), 4096, 2),
        "map_counts": lambda: D.map_counts(gauss, 1024, 4, 512, 0.5, 3, np.column_stack([u, v])),
        "lemma5_chernoff_check": lambda: X.lemma5_chernoff_check(u, v, 0.0, 1.0, 4, 2, 256, 4),
    }


@pytest.mark.parametrize("case", list(_budget_cases()))
def test_every_block_shrinks_with_the_one_budget(case, monkeypatch):
    # the budget patched where it lives, at 8192 entries (64 KiB): each call
    # then holds a few blocks and its outputs, 3-4.5 x 64 KiB, where one
    # block of the default budget alone is 16 x 64 KiB
    import tracemalloc

    monkeypatch.setattr(E, "BLOCK_ENTRIES", 8192)
    run = _budget_cases()[case]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * E.BLOCK_ENTRIES


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


def test_exact_tail_gap_discrete_matches_quadrature():
    cases = [
        # two-atom |X| in {0.5, 1.5} with probs {0.5, 0.5}
        ([0.5, 1.5], [0.5, 0.5]),
        # unsorted, with duplicate atoms
        ([1.2, 0.3, 1.2, 2.0, 0.3, 1.2], [0.1, 0.2, 0.15, 0.25, 0.05, 0.25]),
        # an atom at 0
        ([0.0, 0.8, 1.7], [0.3, 0.3, 0.4]),
    ]
    for mags, probs in cases:
        mags, probs = np.array(mags), np.array(probs)

        def integrand(t):
            emp = probs[mags >= t].sum()
            return abs(emp - 2.0 * (1.0 - norm.cdf(t)))

        knots = [0.0, *np.unique(mags[mags > 0]), 12.0]
        oracle = sum(quad(integrand, a, b, limit=200, epsabs=1e-12)[0]
                     for a, b in zip(knots, knots[1:]))
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


@pytest.mark.parametrize("k", range(1, 13))
def test_uniform_sum_tail_matches_empirical_tail(k):
    # |S| for S a flat sum of k bounded uniforms over sqrt(k): by the DKW
    # inequality the empirical tail of 200000 draws is within 0.005 of the
    # true one everywhere, so on the grid too, with probability
    # 1 - 2 exp(-10) > 1 - 1e-4
    draws = E.sample_iid(E.make_ensemble("bounded-uniform"), (200_000, k),
                         np.random.SeedSequence((13, k)))
    mags = np.sort(np.abs(draws.sum(axis=1) / math.sqrt(k)))
    ts = np.linspace(0.0, math.sqrt(3.0 * k), 2001)
    empirical = 1.0 - np.searchsorted(mags, ts, side="left") / mags.size
    exact = np.array([E._uniform_sum_tail(t, k) for t in ts])
    assert np.max(np.abs(exact - empirical)) <= 0.005


def test_estimated_kappa_is_exact():
    # the K = 1 bounded-uniform gap is the largest of the twelve and is kappa
    assert E._uniform_tail_gap(1) == 0.15427951516112146
    assert E.make_ensemble("bounded-uniform", "estimated").kappa_sg == 0.15427951516112146
    assert E.make_ensemble("rademacher", "estimated").kappa_sg == 0.5353773215478798
    assert E.make_ensemble("gaussian", "estimated").kappa_sg == 0.0


EPS = np.finfo(float).eps


def test_tail_integral_within_its_budget_of_50_digits():
    import mpmath as mp

    mp.mp.dps = 50
    for c in np.linspace(0.0, 40.0, 2001).tolist() + [1e-300, 1e-8, 0.7071, 38.5]:
        cm = mp.mpf(c)
        exact = cm * mp.erfc(cm / mp.sqrt(2)) - mp.sqrt(2 / mp.pi) * mp.expm1(-cm * cm / 2)
        assert abs(E._gauss_abs_tail_integral(c) - exact) <= 6 * EPS, c


# (dist, delta, t, k_max): together their grids c_k = (2t + (k - 1) delta)/dist
# cover [0, 40], at dist/delta from 0.05 to 25
LAW_GRIDS = [(1.0, 1.0, 0.0, 41), (0.3, 0.7, 0.05, 18), (2.5, 0.1, 0.0, 1001),
             (1.0, 1.0, 19.5, 3), (0.05, 1.0, 0.01, 3), (0.8, 2.0, 0.01, 17), (1.0, 0.3, 0.2, 135)]


@pytest.mark.parametrize("dist, delta, t, k_max", LAW_GRIDS)
def test_count_law_within_its_budget_of_50_digits(dist, delta, t, k_max):
    import mpmath as mp

    mp.mp.dps = 50

    def integral(c):
        return c * mp.erfc(c / mp.sqrt(2)) - mp.sqrt(2 / mp.pi) * mp.expm1(-c * c / 2)

    s, d, tt = mp.mpf(dist), mp.mpf(delta), mp.mpf(t)
    ints = [integral((2 * tt + k * d) / s) for k in range(k_max + 1)]
    exact = [mp.mpf(1)] + [s / d * (b - a) for a, b in zip(ints, ints[1:])]
    tails = E.gaussian_count_tails(dist, delta, t, k_max)
    assert tails.shape == (k_max + 1,)
    err = max(abs(mp.mpf(float(x)) - y) for x, y in zip(tails, exact))
    assert err <= E.gaussian_count_error(dist, delta) == 16 * (1 + dist / delta) * EPS


@pytest.mark.parametrize("dist, delta, t", [(0.5, 1.0, 0.0), (1.0, 0.5, 0.0), (0.8, 2.0, 0.01),
                                            (1.3, 0.4, 0.3), (0.25, 1.0, 0.02)])
def test_count_law_is_a_quadrature_of_the_soft_count(dist, delta, t):
    # midpoints u of (0, 1) through the normal quantile give g, midpoints of
    # [0, delta) the dither xi, and the pair is (dist g + xi, xi): the dither
    # makes the lattice uniform, so one point may sit at 0. Given g, the
    # event count >= k is one arc of xi, so the xi rule is within 1/nx of
    # P(count >= k | g); that tail is monotone in |g|, of variation at most
    # 2 over u, so the u rule is within 2/(2 nu) of its mean
    nu, nx = 1000, 1000
    g = norm.ppf((np.arange(nu) + 0.5) / nu)[:, None]
    xi = (np.arange(nx) + 0.5) / nx * delta
    counts = D.soft_count_array(dist * g + xi, xi + 0.0 * g, t, delta)
    k_max = int(counts.max()) + 2
    quad_tails = np.array([np.mean(counts >= k) for k in range(k_max + 1)])
    tails = E.gaussian_count_tails(dist, delta, t, k_max)
    assert np.max(np.abs(tails - quad_tails)) <= 1.0 / nx + 1.0 / nu


def _exact_two_sided(k, n, p):
    return min(1.0, 2.0 * min(binom.cdf(k, n, p), binom.sf(k - 1, n, p)))


# no shrinking: a Monte Carlo failure does not shrink to a smaller one
@settings(derandomize=True, max_examples=25, deadline=None, database=None,
          phases=[Phase.generate])
@given(dist=st.floats(0.05, 3.0), delta=st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]),
       t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_count_law_agrees_with_map_counts(dist, delta, t, seed):
    # 20,000 one-row Gaussian maps of the package's own path; each count
    # value k = 0..5 and the rest is an exact two-sided binomial test at
    # 1e-6 / 7, so an example fails by chance with probability at most 1e-6
    # and the 25 examples at most 2.5e-5
    maps = 20_000
    u = np.array([0.3, -1.1, 0.4])
    w = np.array([0.6, 0.0, -0.8])
    xs = np.column_stack([u, u - dist * w])
    counts = D.map_counts(E.make_ensemble("gaussian"), maps, 1, 3, delta, seed, xs, t)[:, 0]
    dist = float(np.linalg.norm(xs[:, 0] - xs[:, 1]))
    tails = E.gaussian_count_tails(dist, delta, t, 6)
    probs = np.append(-np.diff(tails), tails[-1])
    hits = np.append(np.bincount(np.minimum(counts, 6), minlength=7)[:6], np.sum(counts >= 6))
    for k, (hit, prob) in enumerate(zip(hits, probs)):
        assert _exact_two_sided(int(hit), maps, min(max(prob, 0.0), 1.0)) > 1e-6 / 7, k


def test_count_law_rejects_bad_arguments():
    for args in ((0.0, 1.0, 0.0, 3), (1.0, 0.0, 0.0, 3), (1.0, 1.0, -0.1, 3), (1.0, 1.0, 0.0, -1)):
        with pytest.raises(E.InvalidArgument):
            E.gaussian_count_tails(*args)
