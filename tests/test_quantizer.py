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
    # t/delta rounds across an integer, and the fix-up loops must undo it
    lattice = np.arange(-200_000, 200_001) * delta
    for t in (np.nextafter(lattice, np.inf), np.nextafter(lattice, -np.inf)):
        k = Q.quantize_array(t, delta).astype(np.float64)
        assert np.all(k * delta <= t)
        assert np.all(t < (k + 1.0) * delta)


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


def test_project_many_takes_a_sparse_batch():
    # the sparse product sums each column's terms in another order than
    # BLAS, so it agrees to a few ulps of the terms' magnitudes
    from scipy.sparse import csc_array

    qmap = Q.make_map(E.make_ensemble("gaussian"), 64, 40, 0.5, 2)
    xs = np.random.default_rng(3).standard_normal((40, 30))
    xs[np.random.default_rng(4).random(xs.shape) < 0.9] = 0.0
    dense = qmap.project_many(xs)
    sparse = qmap.project_many(csc_array(xs))
    assert type(sparse) is np.ndarray and sparse.shape == dense.shape == (64, 30)
    scale = np.abs(qmap.phi) @ np.abs(xs) + np.abs(qmap.xi)[:, None]
    assert np.all(np.abs(sparse - dense) <= 4 * np.finfo(float).eps * scale)
    with pytest.raises(E.InvalidArgument):
        qmap.project_many(csc_array(np.ones((41, 2))))


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


def test_boundary_flags():
    flags = Q.boundary_flags(np.array([1.0, 1.0 + 1e-13, 1.4]), 1.0)
    assert flags.tolist() == [True, True, False]


def test_code_serialization_roundtrip():
    codes = [np.array([1, -2, 3], dtype=np.int64), np.array([0, 0], dtype=np.int64)]
    assert Q.serialize_codes(codes) == "1 -2 3\n0 0\n"


def test_undithered_map_uses_zero_shift():
    ens = E.make_ensemble("gaussian")
    qmap = Q.make_map(ens, 6, 2, 1.0, 5, dithered=False)
    x = np.array([0.4, 0.2])
    z = qmap.phi @ x
    assert np.array_equal(Q.apply_many(qmap, x[:, None])[:, 0], np.floor(z).astype(np.int64))
