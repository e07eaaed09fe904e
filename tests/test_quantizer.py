import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from qembed import ensembles as E
from qembed import quantizer as Q


def quantize(t, delta):
    return Q.quantize_array([t], delta).tolist()[0]


def rounded(t):
    """The code of t under the undithered round map with delta = 1 and Phi = 1:
    floor behind the half-bin dither 1/2."""
    qmap = Q.QuantizedMap(np.eye(1), np.full(1, 0.5), 1.0)
    return Q.apply_many(qmap, [[t]]).tolist()[0][0]


def test_quantize_examples():
    assert quantize(2.3, 1.0) == 2
    assert quantize(-0.1, 0.5) == -1
    assert rounded(0.49) == 0
    assert rounded(0.5) == 1  # half rounds up
    # the top of the exact range, |t| < 2^52 delta, also behind the half-bin shift
    assert quantize(2.0**52 - 1, 1.0) == 2**52 - 1
    assert quantize(-(2.0**52 - 1), 1.0) == -(2**52 - 1)
    assert rounded(2.0**52 - 1) == 2**52 - 1
    assert rounded(-(2.0**52 - 1)) == -(2**52 - 1)


def test_quantize_rejects_bad_input():
    for delta, t in ((1.0, float("nan")), (1.0, float("inf")), (1.0, -float("inf")),
                     (1.0, 2.0**52), (1.0, -(2.0**52)), (1.0, 2.0**53), (1.0, -(2.0**53)),
                     (0.5, 2.0**53 * 0.5), (1e-10, 1e300)):
        with pytest.raises(E.InvalidArgument):
            quantize(t, delta)
    # t + 1/2 rounds to even up there: 2^52 + 2 and -2^52, both outside the range
    for t in (2.0**52 + 1, -(2.0**52 + 1)):
        with pytest.raises(E.InvalidArgument):
            rounded(t)
    for delta in (0.0, -1.0):
        with pytest.raises(E.InvalidArgument):
            quantize(0.5, delta)
    with pytest.raises(E.InvalidArgument):
        Q.make_map(E.make_ensemble("gaussian"), 4, 2, 1.0, 0, variant="stochastic")


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0])
def test_lattice_exactness(delta):
    ks = np.arange(-1_000_000, 1_000_001, dtype=np.int64)
    t = ks * delta
    got = Q.quantize_array(t, delta)
    assert np.array_equal(got, ks)


@given(st.floats(-1e6, 1e6), st.sampled_from([0.1, 0.25, 1.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_floor_bracket_property(t, delta):
    k = quantize(t, delta)
    assert k * delta <= t < (k + 1) * delta


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.7])
def test_floor_bracket_at_lattice_neighbours(delta):
    # the float neighbours of k*delta on both sides; for many of them
    # t/delta rounds across an integer, and the fix-up steps must undo it
    lattice = np.arange(-200_000, 200_001) * delta
    for t in (np.nextafter(lattice, np.inf), np.nextafter(lattice, -np.inf)):
        k = Q.quantize_array(t, delta).astype(np.float64)
        assert np.all(k * delta <= t)
        assert np.all(t < (k + 1.0) * delta)


@pytest.mark.parametrize("delta", [0.1, 0.3, 7e-310, 1e260])
def test_floor_bracket_near_the_range_guard(delta):
    # lattice points fl(k*delta) with |k| in [2^51, 2^52), where an ulp of
    # t/delta is 1/2, and their float neighbours up to 4 ulp either way: the
    # bare floor is one bin off on many of them, one step each way is not
    rng = np.random.default_rng(52)
    k = rng.integers(2**51, 2**52 - 8, size=2500) * rng.choice([-1, 1], size=2500)
    lattice = k * delta
    ts = [lattice]
    for toward in (np.inf, -np.inf):
        t = lattice
        for _ in range(4):
            t = np.nextafter(t, toward)
            ts.append(t)
    t = np.concatenate(ts)
    t = t[np.abs(t) < 2.0**52 * delta]
    codes = Q.quantize_array(t, delta).astype(np.float64)
    assert np.all(codes * delta <= t)
    assert np.all(t < (codes + 1.0) * delta)
    assert np.any(np.floor(t / delta) < codes) and np.any(np.floor(t / delta) > codes)


def test_dither_law():
    # xi / delta ~ U[0, 1): the KS bound 0.02 at 20000 draws has a false-alarm
    # rate of 2 exp(-2 * 20000 * 0.02^2) = 2e-7; a half-range dither has KS 1/2
    delta = 0.5
    xi = Q.make_map(E.make_ensemble("gaussian"), 20_000, 2, delta, 11).xi
    assert np.all(xi >= 0.0) and np.all(xi < delta)
    assert kstest(xi / delta, "uniform").statistic <= 0.02
    undithered = Q.make_map(E.make_ensemble("gaussian"), 20_000, 2, delta, 11,
                            dithered=False, variant="round")
    assert np.all(undithered.xi == delta / 2)


def test_apply_zero_vector_gives_zero_codes():
    ens = E.make_ensemble("gaussian")
    qmap = Q.make_map(ens, 16, 3, 0.7, 1)
    code = Q.apply_many(qmap, np.zeros((3, 1)))
    assert np.all(code == 0)  # Q(xi) = 0 for xi in [0, delta)


def test_apply_rademacher_e1_codes():
    ens = E.make_ensemble("rademacher")
    qmap = Q.make_map(ens, 64, 5, 1.0, 2)
    x = np.zeros(5)
    x[0] = 1.0
    code = Q.apply_many(qmap, x[:, None])
    assert set(np.unique(code)) <= {-1, 1}


def test_apply_matches_scalar_recomputation():
    ens = E.make_ensemble("gaussian")
    qmap = Q.make_map(ens, 3, 2, 0.3, 9)
    x = np.array([0.4, -1.2])
    code = Q.apply_many(qmap, x[:, None])[:, 0]
    for i in range(3):
        z = float(qmap.phi[i] @ x + qmap.xi[i])
        assert code[i] == math.floor(z / 0.3) or code[i] * 0.3 <= z < (code[i] + 1) * 0.3


def test_apply_dimension_mismatch():
    ens = E.make_ensemble("gaussian")
    qmap = Q.make_map(ens, 4, 3, 1.0, 0)
    with pytest.raises(E.InvalidArgument):
        Q.apply_many(qmap, np.zeros((5, 1)))


def csc_columns(xs) -> Q.SparseColumns:
    """xs as SparseColumns laid out from scipy's csc_array(xs): each column's
    stored rows and values in scipy's order, padded at the end with 0.0 at
    row 0 up to the most stored entries of any column."""
    from scipy.sparse import csc_array

    ref = csc_array(np.asarray(xs, dtype=np.float64))
    k = max(1, int(np.diff(ref.indptr).max(initial=0)))
    rows, values = np.zeros((k, ref.shape[1]), np.intp), np.zeros((k, ref.shape[1]))
    for j in range(ref.shape[1]):
        stored = slice(ref.indptr[j], ref.indptr[j + 1])
        rows[: stored.stop - stored.start, j] = ref.indices[stored]
        values[: stored.stop - stored.start, j] = ref.data[stored]
    return Q.SparseColumns(rows, values, ref.shape[0])


def test_project_many_takes_a_sparse_batch():
    # the sparse product sums each column's terms in another order than
    # BLAS, so it agrees to a few ulps of the terms' magnitudes; with
    # columns of 1 to 8 stored entries padded with zeros, it keeps the bits
    # of scipy's sparse product
    from scipy.sparse import csc_array

    qmap = Q.make_map(E.make_ensemble("gaussian"), 64, 40, 0.5, 2)
    xs = np.random.default_rng(3).standard_normal((40, 30))
    xs[np.random.default_rng(4).random(xs.shape) < 0.9] = 0.0
    dense = qmap.project_many(xs)
    sparse = qmap.project_many(csc_columns(xs))
    assert type(sparse) is np.ndarray and sparse.shape == dense.shape == (64, 30)
    scale = np.abs(qmap.phi) @ np.abs(xs) + np.abs(qmap.xi)[:, None]
    assert np.all(np.abs(sparse - dense) <= 4 * np.finfo(float).eps * scale)
    reference = qmap.phi @ csc_array(xs) + qmap.xi[:, None]
    assert np.array_equal(sparse.view(np.uint64), reference.view(np.uint64))
    with pytest.raises(E.InvalidArgument):
        qmap.project_many(csc_columns(np.ones((41, 2))))


def test_sparse_columns_sort_slots_given_in_any_order():
    # each column's slots come out sorted by row, stably, with their values,
    # so the product is Phi @ csc_array of the dense columns bit for bit:
    # all 24 orders of one K = 4 column, csc_columns' row-0 zero padding
    # (after a stored row 0 too), a zero column and a one-nonzero column
    from itertools import permutations

    from scipy.sparse import csc_array

    rng = np.random.default_rng(23)
    rows, values = np.array([37, 5, 61, 18]), rng.standard_normal(4)
    slots = [(rows[list(order)], values[list(order)]) for order in permutations(range(4))]
    slots += [([12, 40, 0, 0], [*rng.standard_normal(2), 0.0, 0.0]),
              ([0, 33, 0, 0], [*rng.standard_normal(2), 0.0, 0.0]),
              ([3, 50, 7, 21], np.zeros(4)),
              ([44, 2, 60, 9], [0.0, 0.0, rng.standard_normal(), 0.0])]
    given_rows, given_values = (np.array(part).T for part in zip(*slots))
    batch = Q.SparseColumns(given_rows, given_values, 64)
    for j, (r, v) in enumerate(slots):
        order = sorted(range(4), key=lambda k: r[k])  # Python's sort is stable
        assert np.array_equal(batch.rows[:, j], np.asarray(r)[order])
        assert np.array_equal(batch.values[:, j].view(np.uint64),
                              np.asarray(v, dtype=float)[order].view(np.uint64))
    dense = np.zeros((64, len(slots)))
    np.add.at(dense, (given_rows, np.arange(len(slots))), given_values)
    assert np.count_nonzero(dense) == 24 * 4 + 2 + 2 + 0 + 1
    phi = rng.standard_normal((50, 64))
    expected = phi @ csc_array(dense)
    assert np.array_equal(Q.product(phi, batch).view(np.uint64), expected.view(np.uint64))


def test_sparse_columns_reject_rows_outside_the_vector():
    for rows in ([[0, 5]], [[-1, 2]]):
        with pytest.raises(E.InvalidArgument, match="support rows"):
            Q.SparseColumns(rows, np.ones((1, 2)), 5)
    assert Q.SparseColumns([[0, 4]], np.ones((1, 2)), 5).shape == (5, 2)


def test_sparse_columns_need_one_shape_and_a_slot():
    for rows, values in (([[0], [1]], np.ones((1, 2))), (np.zeros((0, 2)), np.zeros((0, 2)))):
        with pytest.raises(E.InvalidArgument, match="one shape"):
            Q.SparseColumns(rows, values, 5)


def test_dither_length_validation():
    ens = E.make_ensemble("gaussian")
    [mat] = E.sample_matrix(ens, 4, 2, 0)
    with pytest.raises(E.InvalidArgument):
        Q.QuantizedMap(mat, np.random.default_rng(0).random(3), 1.0)
    with pytest.raises(E.InvalidArgument):
        Q.QuantizedMap(mat, np.array([0.1, np.nan, 0.2, 0.3]), 1.0)
    with pytest.raises(E.InvalidArgument):
        Q.QuantizedMap(np.ones(3), np.zeros(3), 1.0)


def test_shift_covariance():
    # floor(t + k) = floor(t) + k: shifting the dither by k*delta shifts codes by k
    ens = E.make_ensemble("gaussian")
    [mat] = E.sample_matrix(ens, 8, 3, 4)
    base = np.random.default_rng(1).random(8) * 0.5
    shifted = base + 3 * 0.5
    x = np.array([0.3, -0.7, 1.1])
    c0 = Q.apply_many(Q.QuantizedMap(mat, base, 0.5), x[:, None])
    c1 = Q.apply_many(Q.QuantizedMap(mat, shifted, 0.5), x[:, None])
    assert np.array_equal(c1, c0 + 3)


def _dithered_floor_mean(x, y, samples, seed):
    """Monte Carlo (estimate, stderr) of E|floor(x + xi) - floor(y + xi)| with
    xi the package's dither at delta = 1."""
    xi = Q.make_map(E.make_ensemble("gaussian"), samples, 1, 1.0, seed).xi
    vals = np.abs(Q.quantize_array(x + xi, 1.0) - Q.quantize_array(y + xi, 1.0))
    return vals.mean(), vals.std(ddof=1) / math.sqrt(samples)


def test_dithered_floor_examples_through_the_package_dither():
    est, se = _dithered_floor_mean(0.3, 1.7, 100_000, 0)
    assert abs(est - 1.4) <= 3 * se
    # an integer gap is exact under any dither in [0, 1)
    est, se = _dithered_floor_mean(-2.6, 0.4, 100_000, 1)
    assert est == 3.0
    est, se = _dithered_floor_mean(1.25, 1.25, 100, 2)
    assert est == 0.0


@given(st.floats(-8, 8), st.floats(-8, 8))
@settings(max_examples=300, deadline=None)
def test_dithered_floor_exact_identity(x, y):
    assert Q.dithered_floor_exact(x, y) == pytest.approx(abs(x - y), abs=1e-12)


def test_code_serialization_roundtrip():
    codes = [np.array([1, -2, 3], dtype=np.int64), np.array([0, 0], dtype=np.int64)]
    assert Q.serialize_codes(codes) == "1 -2 3\n0 0\n"


def test_undithered_map_uses_zero_shift():
    ens = E.make_ensemble("gaussian")
    qmap = Q.make_map(ens, 6, 2, 1.0, 5, dithered=False)
    x = np.array([0.4, 0.2])
    z = qmap.phi @ x
    assert np.array_equal(Q.apply_many(qmap, x[:, None])[:, 0], np.floor(z).astype(np.int64))
