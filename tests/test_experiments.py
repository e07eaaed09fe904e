import math

import numpy as np
import pytest

from qembed import ensembles as E
from qembed import experiments as X
from qembed import geometry as G
from qembed import selftest as S

SQ2PI = math.sqrt(2.0 / math.pi)


def _plan(**kw):
    base = dict(set_spec=G.SparseBall(n=32, k=4, radius=1.0),
                ensemble=E.make_ensemble("gaussian"), delta=0.5,
                m_grid=(16, 32, 64, 128), pairs_per_m=24, trials_per_m=3,
                k0=1.0, master_seed=5)
    base.update(kw)
    return X.TrialPlan(**base)


def test_trial_plan_validation():
    with pytest.raises(E.InvalidArgument):
        _plan(m_grid=(32, 32))
    with pytest.raises(E.InvalidArgument):
        _plan(pairs_per_m=0)
    with pytest.raises(E.InvalidArgument):
        _plan(delta=0.0)
    for k0 in (-1.0, math.nan, math.inf):
        with pytest.raises(E.InvalidArgument, match="k0"):
            _plan(k0=k0)


@pytest.mark.parametrize("sweep", [X.quasi_isometry_sweep, X.consistency_width_sweep])
@pytest.mark.parametrize("grid", [(16,), (16, 32)])
def test_slope_band_needs_a_grid_that_can_be_fitted(sweep, grid):
    with pytest.raises(E.InvalidArgument, match="slope band"):
        sweep(_plan(m_grid=grid), slope_band=(-1.0, 1.0))
    assert sweep(_plan(m_grid=grid, trials_per_m=1)).verdict is None


def test_fit_loglog_exact_power_laws():
    slope, se = X.fit_loglog_slope([(2, 2**-0.5), (4, 4**-0.5), (8, 8**-0.5), (16, 16**-0.5)])
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert se <= 1e-12
    slope, _ = X.fit_loglog_slope([(m, 7.0 / m) for m in (3, 9, 27)])
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_loglog_noisy_recovers_exponent():
    rng = np.random.default_rng(0)
    ms = [2**k for k in range(4, 12)]
    pts = [(m, m**-0.75 * math.exp(0.05 * rng.standard_normal())) for m in ms]
    slope, se = X.fit_loglog_slope(pts)
    assert abs(slope + 0.75) <= 3 * se


def test_fit_loglog_insufficient_data():
    with pytest.raises(X.InsufficientData):
        X.fit_loglog_slope([(2, 1.0), (4, 0.5)])
    with pytest.raises(X.InsufficientData):
        X.fit_loglog_slope([(2, 1.0), (4, 0.0), (8, -1.0)])


def test_quasi_isometry_identical_pairs_zero_error():
    # same point twice: codes agree exactly and the distance target is zero
    ens = E.make_ensemble("gaussian")
    from qembed import distances as D
    from qembed import quantizer as Q

    qmap = Q.make_map(ens, 32, 8, 0.5, 0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(8)
        assert abs(D.pseudo_distance(qmap, x, x) - SQ2PI * 0.0) == 0.0


def test_quasi_isometry_sweep_small():
    res = X.quasi_isometry_sweep(_plan(), slope_band=(-0.9, -0.1))
    assert res.slope is not None
    assert res.verdict is True
    assert len(res.rows) == 4 * 3
    assert all(r.statistic > 0 for r in res.rows)


def test_fit_points_are_the_worst_uncensored_statistics():
    # the Rademacher low-rank plan at k0 = 4 censors distortion trials, and
    # its width trials differ within an M
    plan = _plan(set_spec=G.LowRankBall(n1=8, n2=8, r=1, radius=1.0),
                 ensemble=E.make_ensemble("rademacher", "estimated"), k0=4.0,
                 m_grid=(8, 16, 32, 64), pairs_per_m=20, trials_per_m=4, master_seed=2)
    qi = X.quasi_isometry_sweep(plan)
    cw = X.consistency_width_sweep(plan)
    assert qi.censored_total > 0
    assert len({r.statistic for r in cw.rows if r.m == 8}) > 1
    for res in (qi, cw):
        expected = []
        for m in plan.m_grid:
            vals = [r.statistic for r in res.rows if r.m == m and not r.censored]
            if vals and max(vals) > 0:
                expected.append((m, max(vals)))
        assert res.fit_points == expected
        assert res.censored_total == sum(r.censored for r in res.rows)
        assert X.gnuplot_data(res) == "".join(f"{math.log10(m):.12g} {math.log10(w):.12g}\n"
                                              for m, w in expected)


def test_quasi_isometry_sparse_ball_batch_matches_dense(monkeypatch):
    """A sparse-ball sweep projects its pairs as a sparse array, and its rows
    equal those of the same sweep with the batch forced dense."""
    import scipy.sparse
    from qembed import quantizer as Q

    seen = []
    project = Q.QuantizedMap.project_many

    def spy(self, xs):
        seen.append(scipy.sparse.issparse(xs))
        return project(self, xs)

    monkeypatch.setattr(Q.QuantizedMap, "project_many", spy)
    plan = _plan(set_spec=G.SparseBall(n=128, k=4, radius=1.0), m_grid=(16, 64, 512))
    sparse = X.quasi_isometry_sweep(plan)
    assert seen and all(seen)
    seen.clear()
    monkeypatch.setattr(X, "_sparse_columns", lambda xs, supports: xs)
    dense = X.quasi_isometry_sweep(plan)
    assert seen and not any(seen)
    assert sparse.rows == dense.rows


def test_sparse_columns_equal_csc_array_of_the_dense_batch():
    """The batch built from the supports is csc_array(xs) entry for entry,
    also where a column has zero coefficients (explicit zeros dropped)."""
    from scipy.sparse import csc_array

    spec = G.SparseBall(n=512, k=4, radius=1.0)
    rng = np.random.default_rng(17)
    points = [G.sparse_ball_point(spec, rng) for _ in range(400)]
    xs = np.column_stack([x for x, _ in points])
    supports = np.array([support for _, support in points], dtype=np.int32)
    xs[:, 3] = 0.0  # rng.random() returned 0.0
    xs[supports[5, 1:], 5] = 0.0  # the norm-0 fallback keeps one coefficient
    built, reference = X._sparse_columns(xs, supports), csc_array(xs)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(built, attr), getattr(reference, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    assert built.nnz == 400 * 4 - 4 - 3


def test_quasi_isometry_sparse_batch_from_supports_matches_csc_array(monkeypatch):
    """Building the batch from the supports gives the rows of building it
    with csc_array from the dense points."""
    from scipy.sparse import csc_array

    plan = _plan(set_spec=G.SparseBall(n=512, k=4, radius=1.0), m_grid=(16, 64, 256),
                 pairs_per_m=50, trials_per_m=2)
    from_supports = X.quasi_isometry_sweep(plan)
    monkeypatch.setattr(X, "_sparse_columns", lambda xs, supports: csc_array(xs))
    assert from_supports.rows == X.quasi_isometry_sweep(plan).rows


def test_quasi_isometry_filter_error():
    # k0 above the sparsity level of differences can never pass
    with pytest.raises(X.SetFilterError):
        X.quasi_isometry_sweep(_plan(k0=20.0, m_grid=(8,), trials_per_m=1, pairs_per_m=2))


def _clustered(seed: int, n: int = 64, clusters: int = 40, size: int = 10) -> np.ndarray:
    """clusters * size points inside the unit ball around centres of norm 1/2,
    at spreads from 1e-4 to 1e-1, so that the rows of a map separate them one
    at a time; the first 7 points repeat at the end."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((clusters, n))
    centres *= 0.5 / np.linalg.norm(centres, axis=1, keepdims=True)
    spread = 10.0 ** rng.uniform(-4, -1, (clusters * size, 1))
    noise = rng.standard_normal((clusters * size, n)) / math.sqrt(n)
    pts = np.repeat(centres, size, axis=0) + spread * noise
    return np.vstack([pts, pts[:7]])


def test_sweep_determinism_across_jobs():
    finite = G.FiniteSet(points=_clustered(3, n=8, clusters=6))
    for plan in (_plan(), _plan(set_spec=finite, m_grid=(4, 16, 64, 256))):
        a = X.quasi_isometry_sweep(plan, jobs=1)
        b = X.quasi_isometry_sweep(plan, jobs=4)
        assert X.rows_to_csv(a.rows) == X.rows_to_csv(b.rows)
        wa = X.consistency_width_sweep(plan, jobs=1)
        wb = X.consistency_width_sweep(plan, jobs=4)
        assert X.rows_to_csv(wa.rows) == X.rows_to_csv(wb.rows)


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweeps_reject_fewer_than_one_job(jobs):
    for sweep in (X.quasi_isometry_sweep, X.consistency_width_sweep):
        with pytest.raises(E.InvalidArgument, match="jobs"):
            sweep(_plan(), jobs=jobs)


def test_consistency_width_sweep_small():
    res = X.consistency_width_sweep(_plan(), slope_band=(-1.6, -0.4))
    assert res.verdict is True
    assert res.slope == pytest.approx(-1.0, abs=0.6)


def test_consistency_width_requires_unit_ball():
    with pytest.raises(E.InvalidArgument):
        X.consistency_width_sweep(_plan(set_spec=G.SparseBall(n=32, k=4, radius=2.0)))


def test_consistency_width_censoring_semantics():
    # a trial is censored only when it sees no positive width; the exact
    # cell radius is positive on every ray even at large m
    plan = _plan(m_grid=(4096, 8192), pairs_per_m=4, trials_per_m=2,
                 set_spec=G.SparseBall(n=16, k=2, radius=1.0))
    res = X.consistency_width_sweep(plan)
    assert res.censored_total == 0
    assert all(not r.censored and 0.0 < r.statistic <= 1.0 for r in res.rows)
    # far-apart finite points never share a code at large m: every trial
    # is censored with statistic 0 and there is nothing to fit
    pts = 0.9 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = X.consistency_width_sweep(_plan(set_spec=G.FiniteSet(points=pts),
                                          m_grid=(1024, 2048, 4096), trials_per_m=2))
    assert res.censored_total == 6
    assert all(r.censored and r.statistic == 0.0 for r in res.rows)
    assert res.slope is None


def test_all_censored_sweep_has_no_fit_points():
    pts = 0.9 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = X.consistency_width_sweep(_plan(set_spec=G.FiniteSet(points=pts),
                                          m_grid=(1024, 2048, 4096), trials_per_m=2))
    assert res.fit_points == []
    assert res.slope is None and res.slope_stderr is None
    assert X.gnuplot_data(res) == "\n"


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
@pytest.mark.parametrize("m", [16, 256, 4096])
def test_consistent_radius_is_tight(kind, m):
    # the radius is the supremum: codes hold just inside it and change just
    # outside it, unless the ray ends at the set boundary first
    from qembed import quantizer as Q

    spec = G.SparseBall(n=64, k=4, radius=1.0)
    qmap = Q.make_map(E.make_ensemble(kind), m, 64, 0.5, m)
    rng = np.random.default_rng(m)
    anchors, dirs, caps = [], [], []
    for j in range(10):
        x = G.sample_point(spec, rng)
        u = X._direction_for(spec, x, 1.0, rng)
        anchors.append(x)
        dirs.append(u)
        # every other ray gets a short cap, which binds at small m
        caps.append(X._radial_cap(x, u, 1.0) if j % 2 else 1e-3)
    anchors, dirs = np.array(anchors).T, np.array(dirs).T
    radii = X._consistent_radii(qmap.project_many(anchors), qmap.phi @ dirs, np.array(caps),
                                qmap.delta)
    codes = Q.apply_many(qmap, anchors)
    for j, r in enumerate(radii):
        assert 0.0 < r <= caps[j]
        inside = Q.apply_many(qmap, anchors[:, [j]] + r * (1 - 1e-9) * dirs[:, [j]])
        assert np.array_equal(inside[:, 0], codes[:, j])
        if r < caps[j]:
            outside = Q.apply_many(qmap, anchors[:, [j]] + r * (1 + 1e-9) * dirs[:, [j]])
            assert not np.array_equal(outside[:, 0], codes[:, j])


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
def test_ray_radii_blocked_equals_whole(kind):
    # 1024 rays: blocks of BLOCK_ENTRIES // 1024 rows, and M = 3 blocks + 5
    # rows leaves a partial last block, which holds the nearest wall of
    # about 1 ray in 80
    from qembed import quantizer as Q

    rays, n = 1024, 64
    rows = Q.block_rows(n, rays)
    assert rows == Q.BLOCK_ENTRIES // rays
    m = 3 * rows + 5
    ens = E.make_ensemble(kind)
    spec = G.SparseBall(n=n, k=4, radius=1.0)
    qmap = Q.make_map(ens, m, n, 0.5, 7)
    rng = np.random.default_rng(7)
    anchors, dirs, caps = np.empty((n, rays)), np.empty((n, rays)), np.empty(rays)
    for j in range(rays):
        anchors[:, j] = G.sample_point(spec, rng)
        dirs[:, j] = X._direction_for(spec, anchors[:, j], 1.0, rng)
        caps[j] = X._radial_cap(anchors[:, j], dirs[:, j], 1.0)
    whole = X._consistent_radii(qmap.project_many(anchors), qmap.phi @ dirs, caps, qmap.delta)
    assert np.array_equal(X._ray_radii([qmap], anchors, dirs, caps), whole)
    streamed = X._ray_radii(Q.map_blocks(ens, m, n, 0.5, 7, rows), anchors, dirs, caps)
    assert np.array_equal(streamed, whole)


@pytest.mark.parametrize("sweep", [X.quasi_isometry_sweep, X.consistency_width_sweep])
def test_sweep_holds_one_block_of_phi(sweep):
    # M = 4096, N = 512: Phi is 16 MiB, and a trial that draws it block by
    # block stays below a quarter of that
    import tracemalloc

    plan = _plan(set_spec=G.SparseBall(n=512, k=4, radius=1.0), m_grid=(4096,),
                 pairs_per_m=20, trials_per_m=1)
    tracemalloc.start()
    try:
        sweep(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 512 * 8 / 4


def test_consistent_radius_on_a_wall_and_without_motion():
    # column 0 starts on the wall 0.5 and falls: no room; column 1 does not
    # move: the cap; column 2 rises from 0.7 to the wall at 1.0
    z = np.array([[0.5, 0.5, 0.5], [0.7, 0.7, 0.7]])
    dz = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    radii = X._consistent_radii(z, dz, np.full(3, 2.0), 0.5)
    assert radii[0] == 0.0
    assert radii[1] == 2.0
    assert radii[2] == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("k0", [1.0, 2.0])
def test_shared_code_widths_streamed_equals_whole(k0):
    # M = 3 blocks + 5 rows; duplicates never separate, so every block is read
    from qembed import quantizer as Q

    pts = _clustered(0)
    n = pts.shape[1]
    rows = Q.block_rows(n, len(pts))
    m = 3 * rows + 5
    ens = E.make_ensemble("gaussian")
    # reference: group the points by their whole code vector
    codes = Q.apply_many(Q.make_map(ens, m, n, 0.5, 7), pts.T)
    _, inverse = np.unique(codes.T, axis=0, return_inverse=True)
    whole = [X._max_filtered_distance(pts[inverse == g], k0) for g in range(inverse.max() + 1)]
    assert 0.0 < max(whole)
    streamed = X._shared_code_widths(Q.map_blocks(ens, m, n, 0.5, 7, rows), pts, k0)
    assert np.array_equal(streamed, whole)


def test_width_search_filters_with_the_anti_sparsity_level():
    # the difference (0.1 + 0.2) * (1, 1) has level exactly 2 and passes k0 = 2
    pts = np.array([[0.0, 0.0], [0.1 + 0.2, 0.1 + 0.2]])
    assert G.anti_sparse(pts[1] - pts[0], 2.0)
    assert X._max_filtered_distance(pts, 2.0) == pytest.approx(0.4243, abs=1e-4)


def test_shared_code_widths_stops_once_every_point_is_alone():
    from qembed import quantizer as Q

    pts = np.array([G.sample_point(G.EuclideanBall(n=8, radius=1.0), s) for s in range(50)])
    m, rows = 4096, 64
    read = []

    def counted(blocks):
        for block in blocks:
            read.append(block.m)
            yield block

    widths = X._shared_code_widths(
        counted(Q.map_blocks(E.make_ensemble("gaussian"), m, 8, 0.5, 1, rows)), pts, 1.0)
    assert 0 < sum(read) < m
    assert not np.any(widths)
    res = X.consistency_width_sweep(_plan(set_spec=G.FiniteSet(points=pts), m_grid=(m,),
                                          trials_per_m=2))
    # censored as 0.0, never -0.0
    assert all(r.censored and repr(r.statistic) == "0.0" for r in res.rows)


@pytest.mark.parametrize("m, radius", [(4096, 1.0), (2, 0.02)])
def test_finite_sweep_holds_one_block_of_codes(m, radius):
    # 400 points in R^64: at M = 4096 the codes are drawn block by block and
    # the trial stops once every point is alone; at M = 2 every point shares
    # one code and the width search compares a bounded chunk of pairs. Both
    # stay below one M = 4096 by 400 float64 array.
    import tracemalloc

    pts = np.array([G.sample_point(G.EuclideanBall(n=64, radius=radius), s)
                    for s in range(400)])
    plan = _plan(set_spec=G.FiniteSet(points=pts), m_grid=(m,), trials_per_m=1)
    tracemalloc.start()
    try:
        X.consistency_width_sweep(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 400 * 8


def test_consistency_width_finite_exact_grouping():
    # two far points plus a tight pair: at tiny m the tight pair collides
    pts = np.array([[0.9, 0.0], [-0.9, 0.0], [0.3, 0.4], [0.3, 0.4 + 1e-4]])
    plan = _plan(set_spec=G.FiniteSet(points=pts), m_grid=(2, 4), pairs_per_m=1,
                 trials_per_m=2, delta=1.0)
    res = X.consistency_width_sweep(plan)
    assert all(r.statistic >= 0.99e-4 or r.censored for r in res.rows)


def test_lemma4_zero_vector_always_passes():
    passed = X.lemma4_diameter_check(G.FiniteSet(points=np.zeros((1, 4))), 0.5,
                                     E.make_ensemble("gaussian"), 32, 50, 0)
    assert passed.all()


def test_lemma4_interior_margin_zero_failures():
    passed = X.lemma4_diameter_check(G.EuclideanBall(n=8, radius=1.0), 0.7,
                                     E.make_ensemble("gaussian"), 128, 1000, 1,
                                     margin=0.5)
    assert passed.all()


def test_lemma4_scale_invariance():
    # same draws: doubling eta rescales sampled points and thresholds alike
    spec = G.EuclideanBall(n=6, radius=1.0)
    g = E.make_ensemble("gaussian")
    r1 = X.lemma4_diameter_check(spec, 0.2, g, 64, 200, 3, margin=0.5)
    r2 = X.lemma4_diameter_check(spec, 0.4, g, 64, 200, 3, margin=0.5)
    assert np.array_equal(r1, r2)


def test_lemma5_bound_and_lower_bound():
    gauss = E.make_ensemble("gaussian")
    rng = np.random.default_rng(2)
    u = rng.standard_normal(16)
    d = rng.standard_normal(16)
    v = u - 0.5 * d / np.linalg.norm(d)
    rep = X.lemma5_chernoff_check(u, v, 1.0, 0.0, gauss, 1.0, 64, 7, 600, 11,
                                  p_samples=40_000)
    assert rep.bound_holds and not rep.bound_vacuous
    assert rep.p_lower_holds
    assert rep.p_hat >= rep.p_lower_bound


def test_lemma5_trials_are_the_m_row_slices_of_one_map():
    # m = 96 does not divide the 8192-row block budget at n = 16, so a block
    # that cut a trial in two would miscount it
    from qembed import distances as D
    from qembed import quantizer as Q

    gauss = E.make_ensemble("gaussian")
    rng = np.random.default_rng(3)
    n, m, trials, delta, t, seed = 16, 96, 300, 1.0, 0.01, 21
    u = rng.standard_normal(n)
    v = u - 0.4 * rng.standard_normal(n)
    qmap = Q.make_map(gauss, trials * m, n, delta, np.random.SeedSequence(seed).spawn(2)[1])
    z = qmap.project_many(np.column_stack([u, v]))
    counts = D.soft_count_array(z[:, 0], z[:, 1], t, delta)
    sums = np.array([piece.sum() for piece in np.split(counts, trials)])
    r = int(np.median(sums))
    rep = X.lemma5_chernoff_check(u, v, 1.0, t, gauss, delta, m, r, trials, seed,
                                  p_samples=2000)
    assert 0 < rep.empirical < 1
    assert rep.empirical == np.count_nonzero(sums <= r) / trials


def test_lemma5_vacuous_and_skips():
    gauss = E.make_ensemble("gaussian")
    u = np.array([1.0, 0.0])
    v = np.array([0.999, 0.0])
    rep = X.lemma5_chernoff_check(u, v, 1.0, 0.0, gauss, 1.0, 8, 8, 50, 0,
                                  p_samples=2000)
    assert rep.bound_vacuous and rep.chernoff_bound == 1.0
    # large t kills the count probability entirely
    rep2 = X.lemma5_chernoff_check(u, v, 1.0, 50.0, gauss, 1.0, 8, 0, 50, 0,
                                   p_samples=2000)
    assert rep2.p_hat == 0.0
    assert rep2.p_lower_holds is None
    assert "zero" in rep2.p_lower_skipped_reason


def test_lemma5_validation():
    gauss = E.make_ensemble("gaussian")
    u = np.ones(4)
    with pytest.raises(E.InvalidArgument):
        X.lemma5_chernoff_check(u, u, 1.0, 0.0, gauss, 1.0, 8, 0, 10, 0)
    with pytest.raises(E.InvalidArgument):
        X.lemma5_chernoff_check(u, 0.5 * u, 16.0, 0.0, gauss, 1.0, 8, 0, 10, 0)
    for trials, p_samples in ((0, 10), (10, 0)):
        with pytest.raises(E.InvalidArgument):
            X.lemma5_chernoff_check(u, 0.5 * u, 1.0, 0.0, gauss, 1.0, 8, 0, trials, 0,
                                    p_samples=p_samples)


def test_no_dither_counterexample():
    assert X.no_dither_counterexample(64, 0.4, 128, 200, 0) == 1.0
    # ||u - v|| = s / sqrt(k0), irreducible for this map
    assert S.criterion_8(0, S.QUICK).detail["width"] == pytest.approx(0.4 / 8.0)
    with pytest.raises(E.InvalidArgument):
        X.no_dither_counterexample(64, 0.6, 128, 10, 0)
    with pytest.raises(E.InvalidArgument):
        X.no_dither_counterexample(0, 0.4, 128, 10, 0)
    with pytest.raises(E.InvalidArgument):
        X.no_dither_counterexample(64, 0.4, 128, 0, 0)


def test_bernoulli_floor_distortion_values():
    rep = X.bernoulli_floor_distortion(2)
    assert rep.mad == 0.5
    assert rep.sigma == pytest.approx(math.sqrt(2) / 2)
    assert rep.gap == pytest.approx(SQ2PI * math.sqrt(2) / 2 - 0.5)
    assert rep.gap >= rep.bound
    rep4 = X.bernoulli_floor_distortion(4)
    assert rep4.mad == 0.75
    assert rep4.gap_ok and rep4.distortion_ok
    with pytest.raises(E.InvalidArgument):
        X.bernoulli_floor_distortion(3)


def test_binomial_mad_gap_all_even_up_to_40():
    for n in range(2, 41, 2):
        rep = X.bernoulli_floor_distortion(n)
        assert rep.gap >= rep.bound
        assert rep.distortion_lhs >= rep.distortion_rhs


def test_de_moivre_matches_enumeration():
    for n in range(2, 61, 2):
        assert X.de_moivre_agreement(n) <= 1e-12


def test_stirling_small_and_medium():
    ok = X.stirling_gosper_check(200)
    assert ok.all()
    with pytest.raises(E.InvalidArgument):
        X.stirling_gosper_check(0)
    # n = 1 by hand: -1 + log(2 pi 7/6)/2 <= 0 <= -1 + log(2 pi 6/5)/2
    lower = -1 + 0.5 * math.log(2 * math.pi * 7 / 6)
    upper = -1 + 0.5 * math.log(2 * math.pi * 6 / 5)
    assert lower <= 0.0 <= upper


def test_section2_floor_exact_and_contrast():
    assert X.section2_bernoulli_floor(64, 60, 4) is True
    floor = S.criterion_7(0, S.QUICK).detail["implied_floor"]
    assert floor == pytest.approx(1 - SQ2PI)
    assert floor > 0.202
    # Gaussian rows: D(e1, 0) concentrates near sqrt(2/pi), not at 1
    from qembed import distances as D
    from qembed import quantizer as Q

    gauss = E.make_ensemble("gaussian")
    pair = np.array([[1.0, 0.0], [0.0, 0.0]])
    vals = np.array([D.pair_distances([Q.make_map(gauss, 64, 2, 1.0, seed)], pair)[0]
                     for seed in range(60)])
    assert abs(vals.mean() - SQ2PI) <= 4 * vals.std(ddof=1) / np.sqrt(len(vals))


def test_trial_counts_must_be_positive():
    gauss = E.make_ensemble("gaussian")
    with pytest.raises(E.InvalidArgument):
        X.lemma4_diameter_check(G.EuclideanBall(n=4, radius=1.0), 0.5, gauss, 32, 0, 0)
    with pytest.raises(E.InvalidArgument):
        X.section2_bernoulli_floor(16, 0, 1)


def test_bernoulli_mean_envelope_on_filtered_pairs():
    # filtered differences: mean of D stays within the kappa/sqrt(k0)
    # allowance of the gaussian first moment
    rade = E.make_ensemble("rademacher")
    rng = np.random.default_rng(12)
    spec = G.SparseBall(n=24, k=6, radius=1.0)
    k0 = 3.0
    from qembed import quantizer as Q
    from qembed.geometry import anti_sparse, sample_point

    for _ in range(3):
        while True:
            x, y = sample_point(spec, rng), sample_point(spec, rng)
            if anti_sparse(x - y, k0):
                break
        trials, m = 3000, 4
        phi = E.sample_iid(rade, (trials * m, 24), rng)
        xi = rng.random(trials * m)
        d = np.abs(Q.quantize_array(phi @ x + xi, 1.0) - Q.quantize_array(phi @ y + xi, 1.0))
        d = d.reshape(trials, m).sum(axis=1) / m
        se = d.std(ddof=1) / math.sqrt(trials)
        dist = np.linalg.norm(x - y)
        assert abs(d.mean() - SQ2PI * dist) <= rade.kappa_sg / math.sqrt(k0) * dist + 3 * se


def test_csv_round_trip_format():
    rows = [X.TrialRow("demo", 16, 0, 0.125, False, 42)]
    text = X.rows_to_csv(rows)
    lines = text.strip().split("\r\n")
    assert lines[0] == "experiment,m,trial,statistic,censored,seed"
    assert lines[1] == "demo,16,0,0.125,0,42"
    summary = X.summary_to_csv([("demo", -0.5, 0.01, True), ("other", None, None, None)])
    assert "demo,-0.5,0.01,pass" in summary
    assert "other,,,info" in summary


def test_gnuplot_data_columns():
    res = X.quasi_isometry_sweep(_plan(m_grid=(16, 32, 64), trials_per_m=2, pairs_per_m=8))
    text = X.gnuplot_data(res)
    rows = [line.split() for line in text.strip().splitlines()]
    assert len(rows) == 3
    assert rows[0][0] == f"{math.log10(16):.12g}"
