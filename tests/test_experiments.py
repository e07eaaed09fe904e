import math
import re
import warnings

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
    assert X.fit_loglog_slope([(2, 1.0), (4, 0.5)]) is None
    assert X.fit_loglog_slope([(2, 1.0), (4, 0.0), (8, -1.0)]) is None


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
    """A sparse-ball sweep projects its pairs as SparseColumns, and its rows
    equal those of the same sweep with the batch forced dense."""
    from qembed import quantizer as Q

    seen = []
    project = Q.QuantizedMap.project_many

    def spy(self, xs, work=None):
        seen.append(isinstance(xs, Q.SparseColumns))
        return project(self, xs, work)

    monkeypatch.setattr(Q.QuantizedMap, "project_many", spy)
    plan = _plan(set_spec=G.SparseBall(n=128, k=4, radius=1.0), m_grid=(16, 64, 512))
    sparse = X.quasi_isometry_sweep(plan)
    assert seen and all(seen)
    seen.clear()
    monkeypatch.setattr(X, "_columns", lambda spec, points: _dense(points, spec.n))
    dense = X.quasi_isometry_sweep(plan)
    assert seen and not any(seen)
    assert sparse.rows == dense.rows


SPARSE_512 = G.SparseBall(n=512, k=4, radius=1.0)


def _sparse_ball_batch():
    """The slots (support, values) of 400 points of the 4-sparse unit ball in
    dimension 512, a zero column and a column with one nonzero coefficient."""
    rng = np.random.default_rng(17)
    points = [G.sparse_ball_slots(SPARSE_512, rng) for _ in range(400)]
    points[3][1][:] = 0.0  # rng.random() returned 0.0
    points[5][1][1:] = 0.0  # the norm-0 fallback keeps one coefficient
    return points


def test_sparse_columns_equal_csc_array_of_the_dense_batch():
    """The batch built from the slots holds csc_array(xs)'s entries in its
    order, plus the zeros that csc_array drops, and its product is
    Phi @ csc_array(xs) bit for bit, on the zero and the one-nonzero column too."""
    from qembed import quantizer as Q
    from scipy.sparse import csc_array

    points = _sparse_ball_batch()
    xs = _dense(points, 512)
    built, reference = X._columns(SPARSE_512, points), csc_array(xs)
    assert built.shape == xs.shape and built.rows.shape == (4, 400)
    stored = built.values.T != 0.0  # column by column, as csc_array stores them
    assert np.count_nonzero(stored) == reference.nnz == 400 * 4 - 4 - 3
    assert np.array_equal(built.rows.T[stored], reference.indices)
    assert np.array_equal(built.values.T[stored], reference.data)
    phi = np.random.default_rng(18).standard_normal((256, 512))
    expected = phi @ reference
    assert np.array_equal(Q.product(phi, built).view(np.uint64), expected.view(np.uint64))
    assert not np.any(np.signbit(expected[:, 3]))


def test_sparse_product_is_a_function_of_the_column():
    """A column projected alone, and the map in row blocks of 1, 3, 5 and 256
    rows, give the bits of the whole batch through the whole map."""
    from qembed import quantizer as Q

    batch = X._columns(SPARSE_512, _sparse_ball_batch())
    phi = np.random.default_rng(19).standard_normal((3 * 256 + 5, 512))
    whole = Q.product(phi, batch).view(np.uint64)
    for j in range(400):
        alone = Q.SparseColumns(batch.rows[:, [j]], batch.values[:, [j]], 512)
        assert np.array_equal(Q.product(phi, alone).view(np.uint64)[:, 0], whole[:, j])
    for rows in (1, 3, 5, 256):
        blocked = np.vstack([Q.product(phi[i:i + rows], batch) for i in range(0, len(phi), rows)])
        assert np.array_equal(blocked.view(np.uint64), whole)


def test_quasi_isometry_sparse_batch_from_supports_matches_csc_array(monkeypatch):
    """Building the batch from the slots gives the rows of building it from
    csc_array of the dense points."""
    from test_quantizer import csc_columns

    plan = _plan(set_spec=G.SparseBall(n=512, k=4, radius=1.0), m_grid=(16, 64, 256),
                 pairs_per_m=50, trials_per_m=2)
    from_supports = X.quasi_isometry_sweep(plan)
    monkeypatch.setattr(X, "_columns",
                        lambda spec, points: csc_columns(_dense(points, spec.n)))
    assert from_supports.rows == X.quasi_isometry_sweep(plan).rows


@pytest.mark.parametrize("k, k0", [(1, 1.0), (4, 1.5), (16, 1.5)])
def test_pair_batch_from_slots_equals_csc_array_of_the_dense_pairs(k, k0):
    """The distortion fold's batch, built from its pairs' slots, holds
    csc_array's entries of the dense pairs (the slots scattered, as
    sample_point does), in its order, and is _columns' of those slots; each
    pair's distance is np.linalg.norm(x - y), bit for bit. In dimension 24 a
    pair's supports often overlap (at K = 1 every pair passes, so one may
    share its index), and at k0 = 1.5 some pairs are redrawn."""
    from scipy.sparse import csc_array

    spec = G.SparseBall(n=24, k=k, radius=1.0)
    fold = X._Distortion(_plan(set_spec=spec, pairs_per_m=200, k0=k0), np.random.default_rng(k))
    rng = np.random.default_rng(k)  # the reference draws dense pairs until one passes
    slots, dists, overlapping = [], [], 0
    while len(dists) < 200:
        pair = [G.sparse_ball_slots(spec, rng), G.sparse_ball_slots(spec, rng)]
        x, y = _dense(pair, 24).T
        if G.anti_sparse(x - y, k0):
            slots += pair
            dists.append(np.linalg.norm(x - y))
            overlapping += bool(set(pair[0][0]) & set(pair[1][0]))
    assert overlapping > 0
    assert np.array_equal(fold.dists.view(np.uint64), np.array(dists).view(np.uint64))
    reference, built = csc_array(_dense(slots, 24)), X._columns(spec, slots)
    assert np.array_equal(fold.batch.rows, built.rows)
    assert np.array_equal(fold.batch.values.view(np.uint64), built.values.view(np.uint64))
    stored = fold.batch.values.T != 0.0
    assert np.count_nonzero(stored) == reference.nnz
    assert np.array_equal(fold.batch.rows.T[stored], reference.indices)
    assert np.array_equal(fold.batch.values.T[stored].view(np.uint64),
                          reference.data.view(np.uint64))


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


@pytest.mark.parametrize("scale", [S.FULL, S.QUICK])
@pytest.mark.parametrize("jobs", [1, 2])
def test_paired_sweep_equals_the_one_statistic_views(scale, jobs):
    # the selftest's decay plans on a short grid: the pair's block rows (256
    # at full scale, 1024 at quick) are each statistic's own, and M = 3
    # blocks + 5 rows leaves a partial last block
    import dataclasses

    plan = S._embed_plan(7, scale)
    rows = E.block_rows(plan.set_spec.n, 2 * plan.pairs_per_m)
    assert rows == E.block_rows(plan.set_spec.n, plan.pairs_per_m)
    plan = dataclasses.replace(plan, m_grid=(64, 3 * rows + 5), trials_per_m=2)
    paired = X.decay_sweeps(plan, dict.fromkeys(X.STATISTICS), jobs)
    assert list(paired) == ["quasi-isometry", "consistency-width"]
    assert paired["quasi-isometry"] == X.quasi_isometry_sweep(plan, jobs=jobs)
    assert paired["consistency-width"] == X.consistency_width_sweep(plan, jobs=jobs)


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


def _direction_for(spec, x, k0: float, rng, u):
    """Writes into u the sweep's direction for the drawn anchor x: the first
    of _direction_draw's draws that passes the filter."""
    basis = X._direction_basis(spec, x)
    X._first_passing(lambda: X._direction_draw(spec, basis, k0, rng, u), "direction", k0)


def test_direction_lies_on_the_drawn_support():
    # u is nonzero exactly on the support the point was drawn on, and for a
    # generic point it is the direction on the support recovered from the
    # point's nonzeros: the drawn support, taken in sorted order
    spec = G.SparseBall(n=64, k=5, radius=1.0)
    rng = np.random.default_rng(8)
    unsorted = 0
    for _ in range(50):
        support, values = G.sparse_ball_slots(spec, rng)
        unsorted += bool(np.any(np.diff(support) < 0))
        state = rng.bit_generator.state
        u, again = np.zeros(spec.n), np.zeros(spec.n)
        _direction_for(spec, (support, values), 3.0, rng, u)
        assert np.array_equal(np.flatnonzero(u), np.sort(support))
        rng.bit_generator.state = state
        x = _dense([(support, values)], spec.n)[:, 0]
        recovered = np.flatnonzero(np.abs(x) > 1e-12)
        _direction_for(spec, (recovered, x[recovered]), 3.0, rng, again)
        assert np.array_equal(again, u)
    assert unsorted > 0


def _rays_one_at_a_time(spec, count: int, k0: float, rng):
    """The reference sampler: per ray an anchor, then directions, each in a
    fresh array, until one passes the filter, its np.linalg.norm,
    and the scalar cap formula along u and -u. Returns anchors, unit
    directions and caps as columns, the drawn supports and the number of
    rejected directions."""
    d = G.diameter(spec)
    anchors, dirs, caps, supports, rejected = [], [], [], [], 0
    for _ in range(count):
        if isinstance(spec, G.SparseBall):
            support, values = G.sparse_ball_slots(spec, rng)
            x = np.zeros(spec.n)
            x[support] = values
        else:
            x, support = G.sample_point(spec, rng), None
        while True:
            if isinstance(spec, G.SparseBall):
                u = np.zeros(spec.n)
                u[np.sort(support)] = rng.standard_normal(spec.k)
            elif isinstance(spec, G.LowRankBall):
                uu, _, _ = np.linalg.svd(x.reshape(spec.n1, spec.n2), full_matrices=False)
                u = (uu[:, : spec.r] @ rng.standard_normal((spec.r, spec.n2))).ravel()
            else:
                u = rng.standard_normal(spec.n)
            if G.anti_sparse(u, k0):
                break
            rejected += 1
        u = u / np.linalg.norm(u)
        ends = []
        for v in (u, -u):
            xu = float(np.dot(x, v))
            disc = xu * xu + d * d - float(np.dot(x, x))
            ends.append(0.0 if disc <= 0 else -xu + math.sqrt(disc))
        anchors.append(x)
        dirs.append(u)
        caps.append(ends)
        supports.append(support)
    return np.array(anchors).T, np.array(dirs).T, np.array(caps).T, supports, rejected


@pytest.mark.parametrize("k0", [1.0, 3.0])
@pytest.mark.parametrize("spec", [G.SparseBall(n=64, k=4, radius=1.0),
                                  G.LowRankBall(n1=8, n2=8, r=2, radius=1.0),
                                  G.EuclideanBall(n=16, radius=1.0)],
                         ids=["sparse", "lowrank", "ball"])
def test_ray_rows_equal_the_rays_drawn_one_at_a_time(spec, k0):
    # the sweep draws its rays into row batches, with every norm and cap
    # from one vecdot per row; anchors, unit directions, caps and supports
    # equal the per-ray reference bit for bit, also where the filter redraws
    # (at k0 = 3, on every set). There a 4-sparse direction passes about 1
    # draw in 93, so a ray may take hundreds of draws: each of 30 seeds draws
    # 2 rays, and both samplers end having drawn the same numbers
    rare = k0 > 1.0 and isinstance(spec, G.SparseBall)
    rays, seeds = (2, range(30)) if rare else (200, [29])
    drawn = rejected = 0
    for seed in seeds:
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fold = X._consistency_width(_plan(set_spec=spec, pairs_per_m=rays, k0=k0), rng)
        anchors, dirs, caps, supports, more = _rays_one_at_a_time(spec, rays, k0, reference_rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        drawn, rejected = drawn + 1, rejected + more
        for got, want in ((_dense(fold.anchors), anchors), (_dense(fold.dirs), dirs),
                          (fold.radii, caps)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if isinstance(spec, G.SparseBall):
            rows = np.sort(supports, axis=1).T
            assert np.array_equal(fold.anchors.rows, rows)
            assert np.array_equal(fold.dirs.rows, rows)
        else:  # a dense product's bits depend on its layout
            assert fold.anchors.flags.c_contiguous and fold.dirs.flags.c_contiguous
    assert drawn > 0 and (rejected > 0) == (k0 > 1.0)


def test_radial_caps_at_the_sphere_without_a_warning():
    # an anchor on the unit sphere moving outward has no room ahead and the
    # diameter behind; a point of the sphere whose float norm exceeds 1, moving
    # outward all but tangentially, gives a negative discriminant: 0.0 both
    # ways, and no square root of it (a RuntimeWarning)
    x = np.array([-0.8288355951220819, 0.5594922307401815])  # a unit vector, rounded
    u = np.array([x[1], -x[0]]) + 1e-9 * x
    u /= np.linalg.norm(u)
    assert np.vecdot(x, x) > 1.0 and np.vecdot(x, u) ** 2 + 1.0 - np.vecdot(x, x) < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        caps = X._radial_caps(np.array([[1.0, 0.0], x]), np.array([[1.0, 0.0], u]), 1.0)
    assert caps.shape == (2, 2)
    assert caps[0, 0] == 0.0 and not np.signbit(caps[0, 0]) and caps[1, 0] == 2.0
    assert np.array_equal(caps[:, 1], [0.0, 0.0])


@pytest.mark.parametrize("spec", [G.SparseBall(n=64, k=4, radius=1.0),
                                  G.EuclideanBall(n=16, radius=1.0)], ids=["sparse", "ball"])
def test_cap_behind_is_the_cap_ahead_of_the_reversed_ray(spec):
    # bit for bit: the cap behind along u is the cap ahead along -u
    rng = np.random.default_rng(30)
    xs = np.array([G.sample_point(spec, rng) for _ in range(500)])
    us = rng.standard_normal(xs.shape)
    us /= np.sqrt(np.vecdot(us, us))[:, None]
    caps, reversed_caps = X._radial_caps(xs, us, 1.0), X._radial_caps(xs, -us, 1.0)
    assert np.all(caps > 0.0)
    assert np.array_equal(caps[::-1].view(np.uint64), reversed_caps.view(np.uint64))


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
@pytest.mark.parametrize("m", [16, 256, 4096])
def test_consistent_radius_is_tight(kind, m):
    # each end of the chord is a supremum: codes hold just inside it and
    # change just outside it, unless the chord ends at the set boundary first
    from qembed import quantizer as Q

    spec = G.SparseBall(n=64, k=4, radius=1.0)
    qmap = Q.make_map(E.make_ensemble(kind), m, 64, 0.5, m)
    fold = X._consistency_width(_plan(set_spec=spec, pairs_per_m=10), np.random.default_rng(m))
    anchors, dirs, caps = _dense(fold.anchors), _dense(fold.dirs), fold.radii.copy()
    caps[:, ::2] = 1e-3  # every other ray gets short caps, which bind at small m
    radii = X._chord_radii(qmap.project_many(anchors), qmap.phi @ dirs, caps, qmap.delta)
    codes = Q.apply_many(qmap, anchors)
    for end, sign in enumerate((1.0, -1.0)):
        for j, r in enumerate(radii[end]):
            assert 0.0 < r <= caps[end, j]
            inside = Q.apply_many(qmap, anchors[:, [j]] + sign * r * (1 - 1e-9) * dirs[:, [j]])
            assert np.array_equal(inside[:, 0], codes[:, j])
            if r < caps[end, j]:
                outside = Q.apply_many(qmap,
                                       anchors[:, [j]] + sign * r * (1 + 1e-9) * dirs[:, [j]])
                assert not np.array_equal(outside[:, 0], codes[:, j])


def _dense(batch, n=None):
    """A batch of column vectors as a dense array: a dense batch as it is,
    and SparseColumns, or the slots (support, values) of points of dimension
    n, one per column, scattered into zeros column by column."""
    from qembed import quantizer as Q

    if isinstance(batch, np.ndarray):
        return batch
    if isinstance(batch, Q.SparseColumns):
        batch, n = list(zip(batch.rows.T, batch.values.T)), batch.n
    dense = np.zeros((n, len(batch)))
    for j, (support, values) in enumerate(batch):
        dense[support, j] = values
    return dense


@pytest.mark.parametrize("m, pull", [(16, 1e-12), (256, 1e-9)])
@pytest.mark.parametrize("spec", [G.SparseBall(n=64, k=4, radius=1.0),
                                  G.LowRankBall(n1=8, n2=8, r=2, radius=1.0)],
                         ids=["sparse", "lowrank"])
def test_chord_ends_keep_the_anchor_codes_and_lie_in_the_set(spec, m, pull):
    # both ends of each chord, pulled in by a relative `pull`, keep the
    # anchor's codes and lie in the set, and the chord is at least as long
    # as its part ahead. At M = 256 the shortest ends are a few 1e-6, where
    # a relative 1e-12 moves an end by less than an ulp of its coordinates.
    from qembed import quantizer as Q

    plan = _plan(set_spec=spec, pairs_per_m=50)
    fold = X._consistency_width(plan, np.random.default_rng(m))
    qmap = Q.make_map(plan.ensemble, m, 64, plan.delta, m)
    assert fold.step(qmap)
    anchors, dirs = _dense(fold.anchors), _dense(fold.dirs)
    ahead, behind = fold.radii
    assert np.all(ahead > 0.0) and np.all(ahead + behind >= ahead)
    codes = Q.apply_many(qmap, anchors)
    for end in (anchors + ahead * (1 - pull) * dirs, anchors - behind * (1 - pull) * dirs):
        assert np.array_equal(Q.apply_many(qmap, end), codes)
        assert np.all(np.linalg.norm(end, axis=0) <= 1.0)
        if isinstance(spec, G.SparseBall):
            support = np.zeros(anchors.shape, bool)
            support[fold.anchors.rows, np.arange(X._width_projects(plan)[0])] = True
            assert not np.any(end[~support])
        else:
            mats = end.T.reshape(-1, spec.n1, spec.n2)
            assert np.all(np.linalg.matrix_rank(mats) <= spec.r)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
def test_ray_radii_blocked_equals_whole(kind):
    # 1024 rays: blocks of BLOCK_ENTRIES // 1024 rows, and M = 3 blocks + 5
    # rows leaves a partial last block, which holds the nearest wall of
    # about 1 ray in 80 at each end; through a sparse ball's sparse products
    # and through the dense products of other sets
    from qembed import quantizer as Q

    rays, n = 1024, 64
    rows = E.block_rows(n, rays)
    assert rows == E.BLOCK_ENTRIES // rays
    m = 3 * rows + 5
    ens = E.make_ensemble(kind)
    spec = G.SparseBall(n=n, k=4, radius=1.0)
    qmap = Q.make_map(ens, m, n, 0.5, 7)
    plan = _plan(set_spec=spec, pairs_per_m=rays)
    assert X._width_projects(plan) == (rays, False)
    rays_fold = X._consistency_width(plan, np.random.default_rng(7))
    sparse, caps = (rays_fold.anchors, rays_fold.dirs), rays_fold.radii
    for xs, us in (sparse, tuple(map(_dense, sparse))):
        whole = X._chord_radii(qmap.project_many(xs), Q.product(qmap.phi, us), caps, qmap.delta)
        assert np.all(whole < caps)
        for blocks in ([qmap], Q.map_blocks(ens, m, n, 0.5, 7, rows)):
            fold = X._Rays(xs, us, caps)
            assert all([fold.step(block) for block in blocks])
            assert np.array_equal(fold.radii, whole)
            assert fold.finish() == float(whole.sum(axis=0).max()) > 0.0


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


@pytest.mark.parametrize("spec", [G.SparseBall(n=512, k=4, radius=1.0),
                                  G.LowRankBall(n1=16, n2=16, r=2, radius=1.0)],
                         ids=["sparse", "lowrank"])
def test_distortion_folds_on_one_workspace_equal_pair_distances(spec):
    # one worker's consecutive trials fold on one workspace; M = 3 blocks + 5
    # rows leaves a partial last block, whose arrays are the first 5 rows of
    # those the full blocks filled. Through a sparse ball's sparse products
    # and the dense products of other sets
    from qembed import distances as D
    from qembed import quantizer as Q

    plan, n = _plan(set_spec=spec, pairs_per_m=200), G.ambient_dim(spec)
    rows = E.block_rows(n, 400)
    m = 3 * rows + 5
    work = {}
    for seed in range(3):
        fold = X._Distortion(plan, np.random.default_rng(seed), work)
        assert all([fold.step(block)
                    for block in Q.map_blocks(plan.ensemble, m, n, plan.delta, seed, rows)])
        whole = D.pair_distances(Q.map_blocks(plan.ensemble, m, n, plan.delta, seed, rows),
                                 _dense(fold.batch))
        assert fold.m == m
        assert np.array_equal(fold.delta * fold.counts / fold.m, whole)


@pytest.mark.parametrize("spec", [G.SparseBall(n=512, k=4, radius=1.0),
                                  G.LowRankBall(n1=16, n2=16, r=2, radius=1.0)],
                         ids=["sparse", "lowrank"])
def test_distortion_steps_after_the_first_allocate_no_block_array(spec):
    # the first step lends the fold's (rows, columns) arrays from its
    # workspace; the later ones, the partial last block's too, reuse them
    import tracemalloc

    from qembed import quantizer as Q

    plan, n = _plan(set_spec=spec, pairs_per_m=200), G.ambient_dim(spec)
    rows = E.block_rows(n, 400)
    blocks = list(Q.map_blocks(plan.ensemble, 3 * rows + 5, n, plan.delta, 1, rows))
    fold = X._Distortion(plan, np.random.default_rng(1), {})
    fold.step(blocks[0])
    tracemalloc.start()
    try:
        for block in blocks[1:]:
            fold.step(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * 200 * 8  # less than one (rows, pairs) array


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_worker_folds_its_trials_on_one_workspace(jobs):
    # each trial's fold is handed its worker's workspace; holding every one
    # keeps their ids apart
    plan, works = _plan(), []

    def start(plan, rng, work):
        works.append(work)
        return X._Distortion(plan, rng, work)

    statistic = X._Statistic(start, X._distortion_projects)
    X._sweep(plan, [("quasi-isometry", statistic, None)], jobs)
    assert len(works) == len(plan.m_grid) * plan.trials_per_m
    assert 1 <= len({id(work) for work in works}) <= jobs


@pytest.mark.parametrize("spec", [G.SparseBall(n=64, k=4, radius=1.0),
                                  G.LowRankBall(n1=8, n2=8, r=2, radius=1.0),
                                  G.FiniteSet(points=np.eye(4))],
                         ids=["sparse", "lowrank", "finite"])
def test_folds_project_the_columns_their_statistic_states(spec):
    # the sweep sizes its blocks and decides to draw ahead from projects(plan)
    # before any fold is built; each fold projects exactly those columns,
    # and only the finite set's refinement may stop
    plan = _plan(set_spec=spec, pairs_per_m=30)
    width = {X._Distortion: lambda fold: fold.batch.shape[1],
             X._Rays: lambda fold: fold.anchors.shape[1],
             X._SharedCodes: lambda fold: len(fold.points)}
    for stat in X.STATISTICS.values():
        fold = stat.start(plan, np.random.default_rng(0), {})
        assert stat.projects(plan) == (width[type(fold)](fold), isinstance(fold, X._SharedCodes))


def test_a_low_rank_anchor_that_passes_no_direction_gives_up():
    # a rank-1 direction of an 8 x 8 anchor is a e g^T, with a the anchor's
    # left singular vector, so ||u||^2 / ||u||_inf^2 <= 8 / max a_i^2 < 16
    # here: no draw passes k0 = 16, and the ray gives up after MAX_DRAWS
    # (lowered to keep the test short; the CLI row runs the real bound). The
    # counts are asserted before the error, so a loop that ends early fails
    # an assertion
    spec = G.LowRankBall(n1=8, n2=8, r=1, radius=1.0)
    x = np.outer([0.6, 0.3, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0], np.full(8, 0.1)).ravel()
    draws, error = [], None
    real = X._direction_draw

    def counted(*args):
        draws.append(real(*args))
        return draws[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(X, "_direction_draw", counted)
        mp.setattr(X, "MAX_DRAWS", 1000)
        try:
            _direction_for(spec, x, 16.0, np.random.default_rng(0), np.zeros(64))
        except X.SetFilterError as err:
            error = err
    assert len(draws) == 1000 and not any(draws)
    assert error is not None and re.search("no direction passed the k0=16", str(error))


def test_filter_rates_known_exactly_draw_nothing():
    # every nonzero vector passes k0 <= 1, so a finite set's pair passes
    # unless both draws pick equal points (4 of 9 ordered pairs of a, a, b
    # do, none of a one-point set's): no rate is estimated
    def never(rng):
        raise AssertionError("an exact rate was estimated")

    spec = G.SparseBall(n=64, k=4, radius=1.0)
    X._check_filter(_plan(set_spec=spec, k0=1.0), "pair", never)
    points = np.array([[0.5, -0.0], [0.5, 0.0], [0.0, 0.5]])
    X._check_filter(_plan(set_spec=G.FiniteSet(points=points), k0=1.0), "pair", never)
    with pytest.raises(X.SetFilterError, match="passes 0 of the pair draws"):
        X._check_filter(_plan(set_spec=G.FiniteSet(points=points[:2]), k0=1.0), "pair", never)


def test_filter_check_estimates_a_k0_above_every_draws_nonzeros():
    # a direction of a 4-sparse ball has 4 nonzeros, so none passes k0 = 4.5:
    # the RATE_DRAWS draws of the estimate all fail and the plan is refused
    spec = G.SparseBall(n=64, k=4, radius=1.0)
    draws = []

    def passes(rng):
        basis = X._direction_basis(spec, X._draw(spec, rng))
        draws.append(X._direction_draw(spec, basis, 4.5, rng, np.zeros(64)))
        return draws[-1]

    with pytest.raises(X.SetFilterError, match="passes 0 of the direction draws"):
        X._check_filter(_plan(set_spec=spec, k0=4.5), "direction", passes)
    assert len(draws) == X.RATE_DRAWS and not any(draws)


def test_ray_projections_hold_one_block_budget(monkeypatch):
    # 200 rays on a 4-sparse ball in R^64 at M = 4096: blocks of 655 rows,
    # so each projection of anchors or directions is (655, 200), within
    # BLOCK_ENTRIES; one (655, 400) product of both would hold twice that
    from qembed import quantizer as Q

    sizes = []

    def spy(product):
        def spied(phi, xs, shift=0.0, work=None):
            out = product(phi, xs, shift, work)
            sizes.append(out.size)
            return out
        return spied

    monkeypatch.setattr(X, "product", spy(X.product))  # the directions' product
    monkeypatch.setattr(Q, "product", spy(Q.product))  # project_many's, for the anchors
    plan = _plan(set_spec=G.SparseBall(n=64, k=4, radius=1.0), m_grid=(4096,),
                 pairs_per_m=200, trials_per_m=1)
    X.consistency_width_sweep(plan)
    assert max(sizes) == E.block_rows(64, 200) * 200 <= E.BLOCK_ENTRIES


def test_consistent_radius_on_a_wall_and_without_motion():
    # column 0 starts on the wall 0.5 and falls: no room ahead, the wall 1.0
    # behind; column 1 does not move: the caps; column 2 rises from 0.7: the
    # wall 1.0 ahead and 0.5 behind
    z = np.array([[0.5, 0.5, 0.5], [0.7, 0.7, 0.7]])
    dz = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    radii = X._chord_radii(z, dz, np.full((2, 3), 2.0), 0.5)
    assert radii[0, 0] == 0.0 and radii[1, 0] == 0.5
    assert radii[0, 1] == radii[1, 1] == 2.0
    assert radii[:, 2] == pytest.approx([0.3, 0.2], abs=1e-15)


@pytest.mark.parametrize("k0", [1.0, 2.0])
def test_shared_code_widths_streamed_equals_whole(k0):
    # one sweep trial whose map has M = 3 blocks + 5 rows; duplicates never
    # separate, so the sweep hands every block to the fold
    from qembed import quantizer as Q

    pts = _clustered(0)
    n = pts.shape[1]
    rows = E.block_rows(n, len(pts))
    m = 3 * rows + 5
    plan = _plan(set_spec=G.FiniteSet(points=pts), m_grid=(m,), trials_per_m=1)
    # reference: group the points by their whole code vector under the trial's map
    map_seed = np.random.SeedSequence(plan.master_seed, spawn_key=(0, 0)).spawn(2)[0]
    codes = Q.apply_many(Q.make_map(plan.ensemble, m, n, plan.delta, map_seed), pts.T)
    _, inverse = np.unique(codes.T, axis=0, return_inverse=True)
    whole = [X._max_filtered_distance(pts[inverse == g], k0) for g in range(inverse.max() + 1)]
    assert 0.0 < max(whole)
    read = []

    class Counted(X._SharedCodes):
        def step(self, block):
            read.append(block.m)
            return super().step(block)

    fold = Counted(pts, k0)
    statistic = X._Statistic(lambda plan, rng, work: fold, X._width_projects)
    res = X._sweep(plan, [("finite", statistic, None)], jobs=1)["finite"]
    assert read == [rows] * 3 + [5]
    assert np.array_equal(fold.label, inverse)
    assert res.rows[0].statistic == max(whole)


def test_width_search_filters_with_the_anti_sparsity_level():
    # the difference (0.1 + 0.2) * (1, 1) has level exactly 2 and passes k0 = 2
    pts = np.array([[0.0, 0.0], [0.1 + 0.2, 0.1 + 0.2]])
    assert G.anti_sparse(pts[1] - pts[0], 2.0)
    assert X._max_filtered_distance(pts, 2.0) == pytest.approx(0.4243, abs=1e-4)


def test_shared_code_widths_stops_once_every_point_is_alone(monkeypatch):
    # 50 points of the 8-dim ball are all alone after the first block of
    # rows, so each trial draws no further block of its M = 4096 rows
    pts = np.array([G.sample_point(G.EuclideanBall(n=8, radius=1.0), s) for s in range(50)])
    read = []
    map_blocks = X.map_blocks

    def counted(*args):
        for block in map_blocks(*args):
            read.append(block.m)
            yield block

    monkeypatch.setattr(X, "map_blocks", counted)
    res = X.consistency_width_sweep(_plan(set_spec=G.FiniteSet(points=pts), m_grid=(4096,),
                                          trials_per_m=2))
    assert read == [E.block_rows(8, 50)] * 2
    # censored as 0.0, never -0.0
    assert all(r.censored and repr(r.statistic) == "0.0" for r in res.rows)


def _draw_ahead(monkeypatch, on: bool):
    """Forces _sweep's draw-ahead on or off through the CPU count its rule reads."""
    monkeypatch.setattr(X, "_cpus", lambda: 64 if on else 1)


# each set with an M grid whose largest map spans several blocks for every fold
DRAW_AHEAD_PLANS = {
    "sparse": (G.SparseBall(n=512, k=4, radius=1.0), (64, 300, 700)),
    "lowrank": (G.LowRankBall(n1=16, n2=16, r=2, radius=1.0), (64, 300, 1200)),
    "mesh": (G.ball_mesh(3, 0.3), (64, 2000, 9000)),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", list(DRAW_AHEAD_PLANS))
def test_drawing_ahead_keeps_every_row(kind, jobs, monkeypatch):
    # the paired sweep (on a mesh the finite-set fold may stop, so it draws on
    # demand) and the distortion sweep alone, which draws ahead on every set
    spec, grid = DRAW_AHEAD_PLANS[kind]
    plan = _plan(set_spec=spec, m_grid=grid, pairs_per_m=8, trials_per_m=2)
    rows = {}
    for on in (False, True):
        _draw_ahead(monkeypatch, on)
        rows[on] = [X.rows_to_csv(res.rows) for bands in
                    (dict.fromkeys(X.STATISTICS), {"quasi-isometry": None})
                    for res in X.decay_sweeps(plan, bands, jobs).values()]
    assert rows[True] == rows[False]


@pytest.mark.parametrize("sweep", [X.quasi_isometry_sweep, X.consistency_width_sweep])
def test_sweep_drawing_ahead_holds_one_block_of_phi(sweep, monkeypatch):
    # the block drawn ahead fits under the same bound
    _draw_ahead(monkeypatch, True)
    test_sweep_holds_one_block_of_phi(sweep)


def test_finite_refinement_beside_a_draw_ahead_stops_once_every_point_is_alone(monkeypatch):
    _draw_ahead(monkeypatch, True)
    test_shared_code_widths_stops_once_every_point_is_alone(monkeypatch)


def test_drawing_ahead_asks_for_the_first_block_before_it_returns():
    # the first block is drawn while the trial's folds draw their pairs or
    # rays, so the helper is handed it before any next(); here the helper
    # runs each call as it is submitted
    import threading
    from concurrent.futures import Future

    asked = threading.Event()

    class Blocks:
        def __iter__(self):
            return self

        def __next__(self):
            asked.set()
            raise StopIteration

    class Inline:
        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    blocks = X._drawn_ahead(Blocks(), Inline())
    assert asked.is_set()
    assert list(blocks) == []


class _FoldFailed(RuntimeError):
    pass


@pytest.mark.parametrize("on", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_no_helper_thread_outlives_its_sweep(on, jobs, monkeypatch):
    # a sweep that ends, one whose finite-set fold stops early, and one whose
    # fold raises on the second block of a map: the same exception each way
    import threading

    _draw_ahead(monkeypatch, on)
    before = threading.active_count()
    X.decay_sweeps(_plan(m_grid=(16, 6000), trials_per_m=2), dict.fromkeys(X.STATISTICS), jobs)
    assert threading.active_count() == before
    mesh = _plan(set_spec=G.ball_mesh(3, 0.3), m_grid=(16, 4096), trials_per_m=2)
    assert X.consistency_width_sweep(mesh, jobs=jobs).censored_total == 4
    assert threading.active_count() == before
    step = X._Distortion.step

    def failing(self, block):
        if self.m:
            raise _FoldFailed("mid-map")
        return step(self, block)

    monkeypatch.setattr(X._Distortion, "step", failing)
    with pytest.raises(_FoldFailed, match="mid-map"):
        X.quasi_isometry_sweep(_plan(m_grid=(16, 6000), trials_per_m=2), jobs=jobs)
    assert threading.active_count() == before


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


def test_lemma4_refuses_a_finite_set():
    # a shrunk difference of a finite set's points is no difference of them
    with pytest.raises(E.InvalidArgument, match="finite"):
        X.lemma4_diameter_check(G.FiniteSet(points=np.zeros((1, 4))), 0.5,
                                E.make_ensemble("gaussian"), 32, 50, 0)


def test_lemma4_interior_margin_zero_failures():
    passed = X.lemma4_diameter_check(G.EuclideanBall(n=8, radius=1.0), 0.7,
                                     E.make_ensemble("gaussian"), 128, 1000, 1)
    assert passed.all()


def test_lemma4_scale_invariance():
    # same draws: doubling eta rescales sampled points and thresholds alike
    spec = G.EuclideanBall(n=6, radius=1.0)
    g = E.make_ensemble("gaussian")
    r1 = X.lemma4_diameter_check(spec, 0.2, g, 64, 200, 3)
    r2 = X.lemma4_diameter_check(spec, 0.4, g, 64, 200, 3)
    assert np.array_equal(r1, r2)


def test_lemma5_bound_and_lower_bound():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(16)
    d = rng.standard_normal(16)
    v = u - 0.5 * d / np.linalg.norm(d)
    rep = X.lemma5_chernoff_check(u, v, 0.0, 1.0, 64, 7, 600, 11)
    assert rep.bound_holds and not rep.bound_vacuous
    assert rep.tail + rep.budget <= rep.chernoff_bound
    assert 0.0 < rep.budget < 1e-9
    assert rep.p_lower_holds
    assert rep.p >= rep.p_lower_bound
    assert rep.p == E.gaussian_count_tails(float(np.linalg.norm(u - v)), 1.0, 0.0, 1)[1]


def test_lemma5_tail_is_the_m_fold_convolution():
    # the tail by squaring equals m - 1 plain convolutions of the pmf
    u = np.array([0.2, 0.9, -0.4, 0.1])
    v = u - np.array([0.3, -0.2, 0.0, 0.1])
    dist = float(np.linalg.norm(u - v))
    for m, r, t in ((1, 0, 0.0), (5, 2, 0.01), (37, 9, 0.05), (64, 13, 0.0)):
        pmf = -np.diff(E.gaussian_count_tails(dist, 0.5, t, r + 1))
        law = pmf
        for _ in range(m - 1):
            law = np.convolve(law, pmf)[: r + 1]
        rep = X.lemma5_chernoff_check(u, v, t, 0.5, m, r, 1, 0)
        assert rep.tail == pytest.approx(float(law.sum()), rel=1e-12, abs=0.0)


def test_lemma5_verdict_reads_the_exact_tail():
    # one trial that lands in the tail puts the empirical tail at 1, above
    # the bound, while the exact tail stays below it
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = u - np.array([0.5, 0.5, 0.5, 0.5])
    hits = [X.lemma5_chernoff_check(u, v, 0.0, 1.0, 4, 2, 1, seed) for seed in range(8)]
    rep = next(rep for rep in hits if rep.empirical == 1.0)
    assert rep.tail + rep.budget < rep.chernoff_bound < rep.empirical
    assert rep.bound_holds


def test_binomial_two_sided_p_is_exact():
    from scipy.stats import binom

    for k, n, p in ((0, 1500, 9.3e-4), (4, 1500, 9.3e-4), (3, 1500, 7e-8), (700, 1500, 0.45),
                    (10, 20, 0.5), (20, 20, 0.5), (0, 1, 0.3), (1490, 1500, 0.999)):
        exact = min(1.0, 2.0 * min(binom.cdf(k, n, p), binom.sf(k - 1, n, p)))
        assert X._binomial_two_sided_p(k, n, p) == pytest.approx(exact, rel=1e-9, abs=1e-300)
    assert X._binomial_two_sided_p(0, 1500, 0.0) == 1.0
    assert X._binomial_two_sided_p(1, 1500, 0.0) == 0.0
    assert X._binomial_two_sided_p(1500, 1500, 1.0) == 1.0


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
    qmap = Q.make_map(gauss, trials * m, n, delta, seed)
    z = qmap.project_many(np.column_stack([u, v]))
    counts = D.soft_count_array(z[:, 0], z[:, 1], t, delta)
    sums = np.array([piece.sum() for piece in np.split(counts, trials)])
    r = int(np.median(sums))
    rep = X.lemma5_chernoff_check(u, v, t, delta, m, r, trials, seed)
    assert 0 < rep.empirical < 1
    assert rep.empirical == np.count_nonzero(sums <= r) / trials


def test_lemma5_holds_one_block_of_phi():
    # the trials' maps are 2000 x 64 rows of 16, 16 MiB whole; a block is
    # 1 MiB, plus its dither and the counts of the 2000 maps
    import tracemalloc

    rng = np.random.default_rng(6)
    u = rng.standard_normal(16)
    v = u - 0.4 * rng.standard_normal(16)
    tracemalloc.start()
    try:
        X.lemma5_chernoff_check(u, v, 0.0, 1.0, 64, 7, 2000, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * E.BLOCK_ENTRIES


def test_lemma5_vacuous_and_skips():
    u = np.array([1.0, 0.0])
    v = np.array([0.999, 0.0])
    rep = X.lemma5_chernoff_check(u, v, 0.0, 1.0, 8, 8, 50, 0)
    assert rep.bound_vacuous and rep.chernoff_bound == 1.0
    # large t takes the count's law below the float range: p is 0, the
    # bound vacuous, and the lower bound on p negative
    rep2 = X.lemma5_chernoff_check(u, v, 50.0, 1.0, 8, 0, 50, 0)
    assert rep2.p == 0.0 and rep2.bound_vacuous
    assert rep2.p_lower_bound < 0 and rep2.p_lower_holds


def test_lemma5_validation():
    u = np.ones(4)
    with pytest.raises(E.InvalidArgument):
        X.lemma5_chernoff_check(u, u, 0.0, 1.0, 8, 0, 10, 0)
    for m, r, trials in ((8, 0, 0), (0, 0, 10), (8, -1, 10)):
        with pytest.raises(E.InvalidArgument):
            X.lemma5_chernoff_check(u, 0.5 * u, 0.0, 1.0, m, r, trials, 0)


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
        assert E.binomial_mad(n) == E.binomial_mad_de_moivre(n)


def test_stirling_small_and_medium():
    ok = X.stirling_gosper_check(200)
    assert ok.all()
    with pytest.raises(E.InvalidArgument):
        X.stirling_gosper_check(0)
    # n = 1: 2 pi 7/6 <= e^2 <= 2 pi 6/5, and each n's boolean does not depend on n_max
    assert X.stirling_gosper_check(1).tolist() == [True]
    assert np.array_equal(X.stirling_gosper_check(37), ok[:37])


def _stirling_reference_margins(ns):
    """The sandwich's log margins (lower, upper) at each n of the sorted ns,
    from a running sum of ln n! at 40 digits."""
    import mpmath as mp

    lower, upper = [], []
    with mp.workdps(40):
        half_log_two_pi = mp.log(2 * mp.pi) / 2
        log_fact = mp.mpf(0)
        for n in range(1, ns[-1] + 1):
            log_n = mp.log(n)
            log_fact += log_n
            if n in ns:
                two_l = 2 * (log_fact - n * log_n + n - half_log_two_pi)
                lower.append(float(two_l - mp.log(n + mp.mpf(1) / 6)))
                upper.append(float(mp.log(n + mp.mpf(1) / 5) - two_l))
    return np.array(lower), np.array(upper)


def test_stirling_margins_within_their_budget_of_40_digits():
    ns = sorted({*range(1, 201), 1000, 5000, 10_000, *range(997, 10_001, 997)})
    ref_lower, ref_upper = _stirling_reference_margins(ns)
    lower, upper, budget = (v[np.array(ns) - 1] for v in X.stirling_gosper_margins(10_000))
    assert np.all(np.abs(lower - ref_lower) <= budget)
    assert np.all(np.abs(upper - ref_upper) <= budget)


def test_stirling_check_fails_safe_past_its_budget():
    assert X.stirling_gosper_check(10_000).all()
    # the lower margin, about 1/(72 n^2), falls below the budget 16 n eps near
    # n = 15,760, and from there on every n reads False
    ok = X.stirling_gosper_check(20_000)
    first_false = int(np.argmin(ok))
    assert ok[:first_false].all() and not ok[first_false:].any()
    assert 15_000 < first_false < 16_500


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
