"""The l1 pseudo-distance D, softened variants D^t, and related diagnostics.

Per coordinate the distance counts quantization thresholds k*delta that
separate the two projected values; the softened count excludes (t > 0) or
widens (t < 0) a margin of size |t| around each threshold via the event
F^t(a, b) = {a > t, b <= -t} union {a < -t, b >= t}.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import Ensemble, InvalidArgument, block_rows
from .quantizer import QuantizedMap, apply_many, as_batch, lend, map_blocks


def soft_count_array(a, b, t, delta: float) -> np.ndarray:
    """Number of k with F^t(a - k*delta, b - k*delta), elementwise.

    Closed form as a union of two integer intervals. The strictness pattern
    of F^t (strict on the first coordinate of each branch, nonstrict on the
    second) maps to:

      S1 = [ceil((b+t)/delta), ceil((a-t)/delta) - 1]
      S2 = [floor((a+t)/delta) + 1, floor((b-t)/delta)]

    S1 and S2 are disjoint for t >= 0 and may overlap for t < 0; the
    intersection is subtracted so each k is counted once.
    """
    if not (delta > 0):
        raise InvalidArgument("delta must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(t))):
        raise InvalidArgument("inputs must be finite")
    lo1 = np.ceil((b + t) / delta)
    hi1 = np.ceil((a - t) / delta) - 1.0
    lo2 = np.floor((a + t) / delta) + 1.0
    hi2 = np.floor((b - t) / delta)
    n1 = np.maximum(0.0, hi1 - lo1 + 1.0)
    n2 = np.maximum(0.0, hi2 - lo2 + 1.0)
    overlap = np.maximum(0.0, np.minimum(hi1, hi2) - np.maximum(lo1, lo2) + 1.0)
    return (n1 + n2 - overlap).astype(np.int64)


def soft_count_enumerated(a, b, t, delta: float) -> np.ndarray:
    """Reference for soft_count_array on 1-d arrays of equal length: count k
    with F^t(a - k*delta, b - k*delta) by testing every k of one covering range.

    Works through the tuples in blocks of block_rows(len(k range), 1), so
    each (tuples, k) array holds at most BLOCK_ENTRIES entries.
    """
    a, b, t = (np.asarray(v, dtype=np.float64) for v in (a, b, t))
    pad = 2 + math.ceil(float(np.max(np.abs(t))) / delta)
    lo = math.floor(float(np.min(np.minimum(a, b))) / delta) - pad
    hi = math.ceil(float(np.max(np.maximum(a, b))) / delta) + pad
    ks = np.arange(lo, hi + 1, dtype=np.float64) * delta
    out = np.zeros(a.shape, dtype=np.int64)
    chunk = block_rows(len(ks), 1)
    for start in range(0, len(a), chunk):
        sl = slice(start, start + chunk)
        tt = t[sl, None]
        ak = a[sl, None] - ks
        above, below = ak > tt, ak < -tt
        del ak
        bk = b[sl, None] - ks
        out[sl] = ((above & (bk <= -tt)) | (below & (bk >= tt))).sum(axis=1)
    return out


def pair_counts(block: QuantizedMap, xs, t=None, work: dict | None = None) -> np.ndarray:
    """The one per-row count that every D and D^t sums: for each row of the
    sub-map `block` and each pair of columns x0, y0, x1, y1, ... of xs,
    |code difference|, shape (rows, pairs), or given t, the soft count at each
    of its values, shape t.shape + (rows, pairs). xs may be SparseColumns,
    which the block projects through its slots (see quantizer.product). The
    code difference, its projection and its codes are lent by work
    (quantizer.lend), so a caller that folds many blocks allocates them once."""
    xs = as_batch(xs)
    if xs.ndim != 2 or xs.shape[1] % 2:
        raise InvalidArgument(f"expected pairs of columns, shape (n, 2 * pairs), got {xs.shape}")
    if t is None:
        codes = apply_many(block, xs, work)
        diff = lend(work, "diff", (len(codes), xs.shape[1] // 2), np.int64)
        np.subtract(codes[:, 0::2], codes[:, 1::2], out=diff)
        return np.abs(diff, out=diff)
    z = block.project_many(xs)
    return soft_count_array(z[:, 0::2], z[:, 1::2], np.expand_dims(t, (-2, -1)), block.delta)


def pair_distances(blocks, xs, t=None) -> np.ndarray:
    """D for each pair of columns x0, y0, x1, y1, ... of xs, or given t, D^t
    at each of its values, shape t.shape + (pairs,): (delta/M) times
    pair_counts summed over rows, one block of rows at a time.

    blocks are the sub-maps of one map over its row blocks (map_blocks); a
    whole map is passed as the one block [qmap]."""
    total = m = 0
    for block in blocks:
        total = total + pair_counts(block, xs, t).sum(axis=-2)
        m += block.m
    return block.delta * total / m


def map_counts(ensemble: Ensemble, maps: int, m: int, n: int, delta: float, seed, xs, t=None,
               dithered: bool = True, variant: str = "floor") -> np.ndarray:
    """pair_counts summed over the rows of each of `maps` fresh m-row maps,
    ints of shape t.shape + (maps, pairs). The rows of a map are i.i.d., so T
    fresh maps of m rows are the T consecutive m-row slices of one map of T*m
    rows (map_blocks), drawn in blocks of max(1, block_rows(...) // m) maps,
    each block's sums written into the one output array."""
    xs = as_batch(xs)
    rows = m * max(1, block_rows(n, xs.shape[1]) // m)
    out = np.empty(np.shape(t) + (maps, xs.shape[1] // 2), dtype=np.int64)
    by_map = out.shape[:-2] + (-1, m, out.shape[-1])
    start = 0
    for block in map_blocks(ensemble, maps * m, n, delta, seed, rows, dithered, variant):
        stop = start + block.m // m
        pair_counts(block, xs, t).reshape(by_map).sum(axis=-2, out=out[..., start:stop, :])
        start = stop
    return out


def _pair(x, y) -> np.ndarray:
    if np.shape(x) != np.shape(y):
        raise InvalidArgument(f"x and y differ in shape: {np.shape(x)} and {np.shape(y)}")
    return np.column_stack([x, y])


def pseudo_distance(qmap: QuantizedMap, x, y) -> float:
    """D(x, y) = (delta/M) * l1 distance of the integer codes: pair_distances
    on the one pair."""
    return float(pair_distances([qmap], _pair(x, y))[0])


def soft_pseudo_distance(qmap: QuantizedMap, x, y, t):
    """D^t(x, y) = (delta/M) * sum of per-coordinate soft counts:
    pair_distances on the one pair. t is a scalar, giving a float, or an
    array, giving D^t for each of its values from one projection of the pair."""
    dists = pair_distances([qmap], _pair(x, y), t)[..., 0]
    return float(dists) if np.ndim(t) == 0 else dists


def lemma1_check(a, b, t, s, delta: float):
    """Elementwise (|d^t - d^s|, 4(delta+|t-s|), |d^t - |a-b||, 4(delta+|t|))
    with d^t = delta * soft count.

    The caller asserts lhs <= bound for both pairs.
    """
    a, b, t, s = (np.asarray(v, dtype=np.float64) for v in (a, b, t, s))
    dt = delta * soft_count_array(a, b, t, delta)
    ds = delta * soft_count_array(a, b, s, delta)
    return (np.abs(dt - ds), 4.0 * (delta + np.abs(t - s)),
            np.abs(dt - np.abs(a - b)), 4.0 * (delta + np.abs(t)))


class PreconditionFailed(RuntimeError):
    """A check's hypothesis does not hold; distinct from the check failing."""


def lemma3_check(qmap: QuantizedMap, x0, y0, xp, yp, t: float, eta: float, p_cap: float) -> bool:
    """Continuity of D^t under l2 perturbations.

    Requires ||Phi xp|| <= eta sqrt(M) and ||Phi yp|| <= eta sqrt(M); returns
    whether D^{t + eta sqrt(P)}(x0,y0) - 4(delta/P + eta/sqrt(P))
    <= D^t(x0+xp, y0+yp) <= D^{t - eta sqrt(P)}(x0,y0) + 4(delta/P + eta/sqrt(P)).
    """
    if p_cap < 1:
        raise InvalidArgument("p_cap must be >= 1")
    if eta <= 0:
        raise InvalidArgument("eta must be positive")
    phi = qmap.phi
    m = qmap.m
    lim = eta * math.sqrt(m) * (1.0 + 1e-12)
    if np.linalg.norm(phi @ np.asarray(xp, float)) > lim or np.linalg.norm(phi @ np.asarray(yp, float)) > lim:
        raise PreconditionFailed("projected perturbation exceeds eta*sqrt(M)")
    shift = eta * math.sqrt(p_cap)
    slack = 4.0 * (qmap.delta / p_cap + eta / math.sqrt(p_cap))
    mid = soft_pseudo_distance(qmap, np.asarray(x0, float) + np.asarray(xp, float),
                               np.asarray(y0, float) + np.asarray(yp, float), t)
    upper, lower = soft_pseudo_distance(qmap, x0, y0, [t - shift, t + shift]) + [slack, -slack]
    return bool(lower <= mid <= upper)
