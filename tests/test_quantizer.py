import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qembed import ensembles as E
from qembed import quantizer as Q


def quantize(cfg, t):
    return Q.quantize_array(cfg, [t]).tolist()[0]


def test_quantize_examples():
    assert quantize(Q.QuantizerConfig(1.0), 2.3) == 2
    assert quantize(Q.QuantizerConfig(0.5), -0.1) == -1
    r = Q.QuantizerConfig(1.0, "round")
    assert quantize(r, 0.49) == 0
    assert quantize(r, 0.5) == 1  # half rounds up
    # the top of the exact range, |t| < 2^53 delta, and 2^52 delta for round
    assert quantize(Q.QuantizerConfig(1.0), 2.0**53 - 1) == 2**53 - 1
    assert quantize(Q.QuantizerConfig(1.0), -(2.0**53 - 1)) == -(2**53 - 1)
    assert quantize(r, 2.0**52 - 1) == 2**52 - 1
    assert quantize(r, -(2.0**52 - 1)) == -(2**52 - 1)


def test_quantize_rejects_bad_input():
    for delta, t in ((1.0, float("nan")), (1.0, float("inf")), (1.0, 2.0**53),
                     (1.0, -(2.0**53)), (0.5, 2.0**53 * 0.5), (1e-10, 1e300)):
        with pytest.raises(E.InvalidArgument):
            quantize(Q.QuantizerConfig(delta), t)
    for t in (2.0**52 + 1, -(2.0**52 + 1)):
        with pytest.raises(E.InvalidArgument):
            quantize(Q.QuantizerConfig(1.0, "round"), t)
    with pytest.raises(E.InvalidArgument):
        Q.QuantizerConfig(0.0)
    with pytest.raises(E.InvalidArgument):
        Q.QuantizerConfig(1.0, "stochastic")


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0])
def test_lattice_exactness(delta):
    ks = np.arange(-1_000_000, 1_000_001, dtype=np.int64)
    t = ks * delta
    got = Q.quantize_array(Q.QuantizerConfig(delta), t)
    assert np.array_equal(got, ks)


@given(st.floats(-1e6, 1e6), st.sampled_from([0.1, 0.25, 1.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_floor_bracket_property(t, delta):
    k = quantize(Q.QuantizerConfig(delta), t)
    assert k * delta <= t < (k + 1) * delta


def test_dither_sampler_range():
    d = Q.Dither.uniform(0.5, 1000, 3)
    assert np.all(d.values >= 0.0) and np.all(d.values < 0.5)


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
        z = float(qmap.matrix.entries[i] @ x + qmap.dither.values[i])
        assert code[i] == math.floor(z / 0.3) or code[i] * 0.3 <= z < (code[i] + 1) * 0.3


def test_apply_dimension_mismatch():
    ens = E.make_ensemble("gaussian")
    qmap = Q.make_map(ens, 4, 3, 1.0, 0)
    with pytest.raises(E.InvalidArgument):
        Q.apply_many(qmap, np.zeros((5, 1)))


def test_dither_length_validation():
    ens = E.make_ensemble("gaussian")
    mat = E.sample_matrix(ens, 4, 2, 0)
    with pytest.raises(E.InvalidArgument):
        Q.QuantizedMap(matrix=mat, dither=Q.Dither.uniform(1.0, 3, 0),
                       quantizer=Q.QuantizerConfig(1.0))


def test_shift_covariance():
    # floor(t + k) = floor(t) + k: shifting the dither by k*delta shifts codes by k
    ens = E.make_ensemble("gaussian")
    mat = E.sample_matrix(ens, 8, 3, 4)
    cfg = Q.QuantizerConfig(0.5)
    base = Q.Dither.uniform(0.5, 8, 1)
    shifted = Q.Dither(values=base.values + 3 * 0.5)
    x = np.array([0.3, -0.7, 1.1])
    c0 = Q.apply_many(Q.QuantizedMap(mat, base, cfg), x[:, None])
    c1 = Q.apply_many(Q.QuantizedMap(mat, shifted, cfg), x[:, None])
    assert np.array_equal(c1, c0 + 3)


def test_dithered_floor_mean_examples():
    est, se = Q.dithered_floor_mean(0.3, 1.7, 100_000, 0)
    assert abs(est - 1.4) <= 3 * se
    est, se = Q.dithered_floor_mean(-2.6, 0.4, 100_000, 1)
    assert abs(est - 3.0) <= 3 * se
    est, se = Q.dithered_floor_mean(1.25, 1.25, 100, 2)
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
    z = qmap.matrix.entries @ x
    assert np.array_equal(Q.apply_many(qmap, x[:, None])[:, 0], np.floor(z).astype(np.int64))
