"""The l1 pseudo-distance D, softened variants D^t, and related diagnostics.

Per coordinate the distance counts quantization thresholds k*delta that
separate the two projected values; the softened count excludes (t > 0) or
widens (t < 0) a margin of size |t| around each threshold via the event
F^t(a, b) = {a > t, b <= -t} union {a < -t, b >= t}.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import InvalidArgument
from .quantizer import (
    InternalConsistencyError,
    QuantizedMap,
    apply_many,
    as_batch,
    boundary_flags,
    quantize_array,
)


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


ENUMERATION_CHUNK = 4000  # tuples per block of the reference enumerator


def soft_count_enumerated(a, b, t, delta: float) -> np.ndarray:
    """Reference for soft_count_array on 1-d arrays of equal length: count k
    with F^t(a - k*delta, b - k*delta) by testing every k of one covering range.

    Works through the tuples in blocks of ENUMERATION_CHUNK, and holds one
    (tuples, k) float block at a time, so that the test arrays stay small.
    """
    a, b, t = (np.asarray(v, dtype=np.float64) for v in (a, b, t))
    pad = 2 + math.ceil(float(np.max(np.abs(t))) / delta)
    lo = math.floor(float(np.min(np.minimum(a, b))) / delta) - pad
    hi = math.ceil(float(np.max(np.maximum(a, b))) / delta) + pad
    ks = np.arange(lo, hi + 1, dtype=np.float64) * delta
    out = np.zeros(a.shape, dtype=np.int64)
    for start in range(0, len(a), ENUMERATION_CHUNK):
        sl = slice(start, start + ENUMERATION_CHUNK)
        tt = t[sl, None]
        ak = a[sl, None] - ks
        above, below = ak > tt, ak < -tt
        del ak
        bk = b[sl, None] - ks
        out[sl] = ((above & (bk <= -tt)) | (below & (bk >= tt))).sum(axis=1)
    return out


def pair_distances(blocks, xs) -> np.ndarray:
    """D for each pair of columns x0, y0, x1, y1, ... of xs:
    (delta/M) * l1 distance of the integer codes.

    blocks are the sub-maps of one map over its row blocks (map_blocks); a
    whole map is passed as the one block [qmap]. The l1 distance is a sum
    over rows, so it is summed block by block, holding one block's codes at
    a time. xs may be a scipy sparse array, which every block projects
    through its nonzeros (see quantizer.as_batch).
    """
    xs = as_batch(xs)
    if xs.ndim != 2 or xs.shape[1] % 2:
        raise InvalidArgument(f"expected pairs of columns, shape (n, 2 * pairs), got {xs.shape}")
    total = np.zeros(xs.shape[1] // 2, dtype=np.int64)
    m = 0
    for block in blocks:
        codes = apply_many(block, xs)
        total += np.abs(codes[:, 0::2] - codes[:, 1::2]).sum(axis=0)
        m += block.m
    return block.delta * total / m


def _projected_pair(qmap: QuantizedMap, x, y) -> np.ndarray:
    """Phi [x y] + xi from one projection, shape (M, 2)."""
    xs = np.column_stack([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)])
    if xs.shape[0] != qmap.n:
        raise InvalidArgument(f"expected vectors of dimension {qmap.n}")
    return qmap.project_many(xs)


def pseudo_distance(qmap: QuantizedMap, x, y) -> float:
    """D(x, y) = (delta/M) * l1 distance of the integer codes.

    Internally cross-checked against the t = 0 threshold count on every
    coordinate not flagged as sitting on a bin boundary.
    """
    z = _projected_pair(qmap, x, y)
    codes = quantize_array(z, qmap.delta)
    diff = np.abs(codes[:, 0] - codes[:, 1])
    za, zb = z.T
    counts0 = soft_count_array(za, zb, 0.0, qmap.delta)
    ok = boundary_flags(za, qmap.delta) | boundary_flags(zb, qmap.delta)
    if np.any((counts0 != diff) & ~ok):
        raise InternalConsistencyError("code distance and t=0 threshold count disagree off-boundary")
    return qmap.delta * float(np.sum(diff)) / qmap.m


def soft_pseudo_distance(qmap: QuantizedMap, x, y, t):
    """D^t(x, y) = (delta/M) * sum of per-coordinate soft counts.

    t is a scalar, giving a float, or an array, giving D^t for each of its
    values from one projection of the pair.
    """
    za, zb = _projected_pair(qmap, x, y).T
    t = np.asarray(t, dtype=np.float64)
    counts = soft_count_array(za, zb, t[..., None], qmap.delta)
    dists = qmap.delta * counts.sum(axis=-1) / qmap.m
    return float(dists) if t.ndim == 0 else dists


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
