"""The uniform floor quantizer and the frozen quantized map x -> Q(Phi x + xi).

There is one lattice: Q(t) = delta * floor(t/delta). Rounding is the same
quantizer behind a constant half-bin shift, round(t) = floor(t + delta/2),
so a rounding map is a map whose dither carries an extra delta/2.

Codes are kept as integer bin indices; the bin width delta is reapplied only
when distances are computed, so code comparisons stay exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, InvalidArgument, as_seedseq, sample_matrix

VARIANTS = ("floor", "round")

BOUNDARY_TOL = 1e-12

BLOCK_ENTRIES = 2**17  # float64 entries (1 MB) of each of one row block's arrays


class InternalConsistencyError(RuntimeError):
    """Two internal evaluation paths disagreed away from a bin boundary."""


def _floor_index(t: np.ndarray, delta: float) -> np.ndarray:
    """Largest integer k with k*delta <= t, exact on representable lattice points.

    A bare floor(t/delta) can land one bin off when t/delta rounds across an
    integer (delta = 0.1 exhibits this); the fix-up loops restore the bracket
    k*delta <= t < (k+1)*delta using correctly rounded products.
    """
    k = np.floor(t / delta)
    for _ in range(3):
        up = (k + 1.0) * delta <= t
        if not np.any(up):
            break
        k = np.where(up, k + 1.0, k)
    for _ in range(3):
        down = k * delta > t
        if not np.any(down):
            break
        k = np.where(down, k - 1.0, k)
    return k.astype(np.int64)


def quantize_array(t, delta: float) -> np.ndarray:
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
    arrays can be a trial's largest.
    """
    if not (delta > 0):
        raise InvalidArgument("delta must be positive")
    t = np.asarray(t, dtype=np.float64)
    lim = 2.0**52 * delta
    if not (-lim < t.min(initial=0.0) and t.max(initial=0.0) < lim):
        raise InvalidArgument("quantizer input must be finite with |t| < 2^52 delta")
    return _floor_index(t, delta)


def as_batch(xs):
    """A batch of column vectors as a float64 ndarray, or unchanged when it
    is a scipy sparse array: Phi @ xs then runs over its nonzeros only and
    still gives a dense ndarray. A sparse array exists only once
    scipy.sparse is imported, so this check imports nothing."""
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(xs):
        return xs
    return np.asarray(xs, dtype=np.float64)


def boundary_flags(t, delta: float) -> np.ndarray:
    """True where t sits within BOUNDARY_TOL*delta of a quantization threshold."""
    t = np.asarray(t, dtype=np.float64)
    r = t - np.round(t / delta) * delta
    return np.abs(r) <= BOUNDARY_TOL * delta


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

    def project_many(self, xs: np.ndarray) -> np.ndarray:
        """Phi x + xi for a batch of column vectors, (n, count) -> (m, count);
        xs may be a scipy sparse array (see as_batch)."""
        xs = as_batch(xs)
        if xs.ndim != 2 or xs.shape[0] != self.n:
            raise InvalidArgument(f"expected shape ({self.n}, count), got {xs.shape}")
        return self.phi @ xs + self.xi[:, None]


def block_rows(n: int, count: int) -> int:
    """Rows of a row block such that its part of Phi, (rows, n), and its
    projection of count vectors, (rows, count), each hold at most
    BLOCK_ENTRIES entries, whatever M is."""
    return max(1, BLOCK_ENTRIES // max(n, count))


def map_blocks(ensemble: Ensemble, m: int, n: int, delta: float, seed, rows: int,
               dithered: bool = True, variant: str = "floor"):
    """The map make_map(ensemble, m, n, delta, seed, dithered, variant) as
    sub-maps over consecutive blocks of `rows` rows of Phi and xi.

    Each block of Phi is drawn only when the next sub-map is asked for, so a
    caller that reduces over rows (every row is quantized on its own) holds
    one block of Phi, never all M rows. The dither is drawn whole from its
    own seed: M floats. xi is uniform on [0, delta), or zero for the
    undithered map; the round variant adds delta/2 to it, since
    round(t) = floor(t + delta/2).

    The rows of a map are i.i.d., so T fresh maps of m rows are the T
    consecutive m-row slices of one map of T*m rows: a check that needs many
    maps draws them here, in blocks of whole maps.
    """
    if variant not in VARIANTS:
        raise InvalidArgument(f"unknown quantizer variant: {variant!r}")
    mat_seed, dither_seed = as_seedseq(seed).spawn(2)
    phis = sample_matrix(ensemble, m, n, mat_seed, rows)
    xi = np.random.default_rng(dither_seed).random(m) * delta if dithered else np.zeros(m)
    if variant == "round":
        xi += 0.5 * delta
    xi.setflags(write=False)
    start = 0
    for phi in phis:
        yield QuantizedMap(phi, xi[start:start + len(phi)], delta)
        start += len(phi)


def make_map(ensemble: Ensemble, m: int, n: int, delta: float, seed,
             dithered: bool = True, variant: str = "floor") -> QuantizedMap:
    """Draw a frozen map: matrix and dither from seeds derived from one root
    (map_blocks with all M rows in one block)."""
    [qmap] = map_blocks(ensemble, m, n, delta, seed, m, dithered, variant)
    return qmap


def apply_many(qmap: QuantizedMap, xs: np.ndarray) -> np.ndarray:
    """A(x)/delta as integer codes for a batch of column vectors, shape (m, count)."""
    return quantize_array(qmap.project_many(xs), qmap.delta)


def dithered_floor_exact(x: float, y: float) -> float:
    """Exact piecewise integral of |floor(x+xi) - floor(y+xi)| over xi in [0,1]."""
    fx = x - math.floor(x)
    fy = y - math.floor(y)
    cuts = sorted({0.0, 1.0 - fx, 1.0 - fy, 1.0})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        total += (hi - lo) * abs(math.floor(x + mid) - math.floor(y + mid))
    return total


def serialize_codes(codes) -> str:
    """One code per line (a row of codes, shape (count, m)), space-separated
    signed integers."""
    return "".join(" ".join(str(int(v)) for v in code) + "\n" for code in codes)
