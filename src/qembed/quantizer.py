"""The uniform floor quantizer and the frozen quantized map x -> Q(Phi x + xi).

There is one lattice: Q(t) = delta * floor(t/delta). Rounding is the same
quantizer behind a constant half-bin shift, round(t) = floor(t + delta/2),
so a rounding map is a map whose dither carries an extra delta/2.

Codes are kept as integer bin indices; the bin width delta is reapplied only
when distances are computed, so code comparisons stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, InvalidArgument, as_seedseq, sample_matrix

VARIANTS = ("floor", "round")


def lend(work: dict[str, np.ndarray] | None, name: str, shape: tuple,
         dtype=np.float64) -> np.ndarray:
    """An array of shape (rows, ...): the first rows of the workspace work's
    array `name`, which is replaced by a fresh one only when it is too short
    or of another shape or dtype, or a fresh array where work is None.

    The calls handed a workspace write into its arrays through out=, so a
    caller that steps through many row blocks, of one map or of many,
    allocates each of their (rows, count) arrays once. An array that a call
    returns stays valid until the next call that lends its name; the others
    are free once the call returns. A workspace serves one thread."""
    if work is None:
        return np.empty(shape, dtype)
    held = work.get(name)
    if held is None or held.dtype != dtype or held.shape[1:] != shape[1:] or len(held) < shape[0]:
        held = work[name] = np.empty(shape, dtype)
    return held[:shape[0]]


def _floor_index(t: np.ndarray, delta: float, work: dict | None = None) -> np.ndarray:
    """The k with fl(k*delta) <= t < fl((k+1)*delta), for |t| < 2^52 delta.

    A bare floor(t/delta) can land one bin off when t/delta rounds across an
    integer (delta = 0.1 exhibits this), but never two. With x = t/delta,
    fl(t/delta) is within 1/4 of x, half an ulp of |x| < 2^52. And
    fl(k*delta)/delta is within 1/2 of k: a normal product is off by at most
    2^-53 |k| delta with |k| <= 2^52, a subnormal one by at most half the
    least subnormal, which is at most delta/2. So the bare floor and the
    answer both lie in {floor(x - 1/2), floor(x + 1/2)}, and one step up
    where fl((k+1)*delta) <= t, then one step down where fl(k*delta) > t,
    restore the bracket; each step is skipped where no entry moves. The
    temporaries and the int64 result are lent by work (see lend).
    """
    k = np.divide(t, delta, out=lend(work, "floor", t.shape))
    np.floor(k, out=k)
    wall = lend(work, "scratch", t.shape)
    moved = lend(work, "moved", t.shape, bool)
    np.add(k, 1.0, out=wall)
    wall *= delta
    if np.less_equal(wall, t, out=moved).any():
        np.add(k, 1.0, out=k, where=moved)
    np.multiply(k, delta, out=wall)
    if np.greater(wall, t, out=moved).any():
        np.subtract(k, 1.0, out=k, where=moved)
    del wall, moved  # without a workspace they are freed before the codes are allocated
    codes = lend(work, "codes", t.shape, np.int64)
    np.copyto(codes, k, casting="unsafe")
    return codes


def quantize_array(t, delta: float, work: dict | None = None) -> np.ndarray:
    """Bin indices k with fl(k*delta) <= t < fl((k+1)*delta) for an array of
    inputs with |t| < 2^52 delta (value = delta * index).

    The thresholds are the floats fl(k*delta), not the real k*delta: the
    bracket is exact against them on the whole range, but for a non-dyadic
    delta they drift from the real lattice as |k| grows (at delta = 0.1 the
    bins are off by 9.2e-5 delta at 2^40 delta and by 25% at 2^51 delta).
    The dither is not exact near the guard either: the float sum
    t = Phi x + xi rounds xi to the spacing of t, so at delta = 1 a quarter
    of the dithered codes are one bin off at 2^51 and an eighth at 2^50.
    From 2^52 delta on, neighbouring floats of t lie half a bin or more
    apart (a whole bin at delta = 1). The range check also rejects NaN (min
    and max propagate it) and infinities, and it allocates nothing: these
    arrays can be a trial's largest. The codes and the temporaries are lent
    by work (see lend).
    """
    if not (delta > 0):
        raise InvalidArgument("delta must be positive")
    t = np.asarray(t, dtype=np.float64)
    lim = 2.0**52 * delta
    if not (-lim < t.min(initial=0.0) and t.max(initial=0.0) < lim):
        raise InvalidArgument("quantizer input must be finite with |t| < 2^52 delta")
    return _floor_index(t, delta, work)


@dataclass(frozen=True)
class SparseColumns:
    """A batch of count column vectors of length n with K >= 1 slots each:
    column j is the sum over k of values[k, j] times the unit vector at row
    rows[k, j] (a slot may hold 0.0). product sums the slots in order, so
    each column's slots are sorted here by row, stably and with their
    values: slots given in any order then give scipy's bits. The rows are
    checked once, here, so product's gathers never clamp."""

    rows: np.ndarray    # (K, count) intp
    values: np.ndarray  # (K, count) float64
    n: int

    ndim = 2

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        values = np.asarray(self.values, dtype=np.float64)
        if rows.ndim != 2 or rows.shape != values.shape or len(rows) < 1:
            raise InvalidArgument(f"rows and values must be (K, count) arrays of one shape with "
                                  f"K >= 1, got {rows.shape} and {values.shape}")
        if rows.size and not (0 <= rows.min() and rows.max() < self.n):
            raise InvalidArgument(f"support rows must lie in [0, {self.n})")
        order = np.argsort(rows, axis=0, kind="stable")
        object.__setattr__(self, "rows", np.take_along_axis(rows, order, axis=0))
        object.__setattr__(self, "values", np.take_along_axis(values, order, axis=0))

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.rows.shape[1]


def as_batch(xs):
    """A batch of column vectors as a float64 ndarray, or unchanged when it
    is SparseColumns."""
    return xs if isinstance(xs, SparseColumns) else np.asarray(xs, dtype=np.float64)


def product(phi: np.ndarray, xs, shift=0.0, work: dict | None = None) -> np.ndarray:
    """phi @ xs + shift as a dense (rows, count) array, for shift >= +0.0 (a
    dither xi[:, None] or 0.0), lent by work (see lend). A SparseColumns batch
    costs K gathers of phi's columns: slot by slot, each column's terms are
    added to a sum that starts at +0.0 in the order of its sorted rows, which
    is the order and so the bits of scipy's sparse product (csr_matvecs). An
    entry depends on one row of phi and one column of xs alone, so its bits
    do not depend on the batch or the row block (dense BLAS products do)."""
    out = lend(work, "product", (len(phi), xs.shape[1]))
    if not isinstance(xs, SparseColumns):
        np.matmul(phi, xs, out=out)
    else:
        np.take(phi, xs.rows[0], axis=1, out=out, mode="clip")
        out *= xs.values[0]
        term = lend(work, "scratch", out.shape)
        for rows, values in zip(xs.rows[1:], xs.values[1:]):
            np.take(phi, rows, axis=1, out=term, mode="clip")
            term *= values
            out += term
    # also turns a sum of -0.0 terms into +0.0, as when it starts at +0.0
    out += shift
    return out


@dataclass(frozen=True)
class QuantizedMap:
    """A frozen instance of the quantized map x -> Q(Phi x + xi) with bin width delta."""

    phi: np.ndarray
    xi: np.ndarray
    delta: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise InvalidArgument("delta must be positive")
        if np.ndim(self.phi) != 2:
            raise InvalidArgument("phi must be a 2-d matrix")
        xi = np.asarray(self.xi, dtype=np.float64)
        if not np.all(np.isfinite(xi)):
            raise InvalidArgument("dither values must be finite")
        if xi.shape != (self.m,):
            raise InvalidArgument("dither length must equal the matrix row count")
        object.__setattr__(self, "xi", xi)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    def project_many(self, xs: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Phi x + xi for a batch of column vectors, (n, count) -> (m, count);
        xs may be SparseColumns, and work lends the output (see product)."""
        xs = as_batch(xs)
        if xs.ndim != 2 or xs.shape[0] != self.n:
            raise InvalidArgument(f"expected shape ({self.n}, count), got {xs.shape}")
        return product(self.phi, xs, self.xi[:, None], work)


def dither(m: int, delta: float, seed, dithered: bool = True, variant: str = "floor") -> np.ndarray:
    """The read-only dither xi of an m-row map, drawn from its own seed: M
    floats, uniform on [0, delta), or zero for the undithered map. The round
    variant adds delta/2 to it, since round(t) = floor(t + delta/2). A
    Generator as seed gives its next M floats, so consecutive calls on one
    Generator give, bit for bit, consecutive slices of the dither drawn whole."""
    if variant not in VARIANTS:
        raise InvalidArgument(f"unknown quantizer variant: {variant!r}")
    xi = np.random.default_rng(seed).random(m) * delta if dithered else np.zeros(m)
    if variant == "round":
        xi += 0.5 * delta
    xi.setflags(write=False)
    return xi


def map_blocks(ensemble: Ensemble, m: int, n: int, delta: float, seed, rows: int,
               dithered: bool = True, variant: str = "floor"):
    """The map make_map(ensemble, m, n, delta, seed, dithered, variant) as
    sub-maps over consecutive blocks of `rows` rows of Phi and xi.

    Each block of Phi is drawn only when the next sub-map is asked for, so a
    caller that reduces over rows (every row is quantized on its own) holds
    one block of Phi and xi, never all M rows; a sweep that asks for the next
    block while it folds the current one (experiments._drawn_ahead) holds
    two. Each block's dither is the next slice of the whole dither, drawn by
    dither from one Generator.
    """
    mat_seed, dither_seed = as_seedseq(seed).spawn(2)
    rng = np.random.default_rng(dither_seed)
    for phi in sample_matrix(ensemble, m, n, mat_seed, rows):
        yield QuantizedMap(phi, dither(len(phi), delta, rng, dithered, variant), delta)


def make_map(ensemble: Ensemble, m: int, n: int, delta: float, seed,
             dithered: bool = True, variant: str = "floor") -> QuantizedMap:
    """Draw a frozen map: matrix and dither from seeds derived from one root
    (map_blocks with all M rows in one block)."""
    [qmap] = map_blocks(ensemble, m, n, delta, seed, m, dithered, variant)
    return qmap


def apply_many(qmap: QuantizedMap, xs: np.ndarray, work: dict | None = None) -> np.ndarray:
    """A(x)/delta as integer codes for a batch of column vectors, shape (m, count),
    with the projection and the codes lent by work (see lend)."""
    return quantize_array(qmap.project_many(xs, work), qmap.delta, work)


def dithered_floor_exact(x: float, y: float) -> float:
    """Exact piecewise integral of |floor(x+xi) - floor(y+xi)| over xi in [0,1]."""
    fx = x - math.floor(x)
    fy = y - math.floor(y)
    cuts = sorted({0.0, 1.0 - fx, 1.0 - fy, 1.0})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        total += (hi - lo) * abs(math.floor(x + mid) - math.floor(y + mid))
    return total


def serialize_codes(codes) -> str:
    """One code per line (a row of codes, shape (count, m)), space-separated
    signed integers."""
    return "".join(" ".join(str(int(v)) for v in code) + "\n" for code in codes)
