"""Uniform scalar quantizer, uniform dithering, and the frozen quantized map.

Codes are kept as integer bin indices; the bin width delta is reapplied only
when distances are computed, so code comparisons stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensembles import Ensemble, InvalidArgument, SensingMatrix, sample_matrix

VARIANTS = ("floor", "round")

BOUNDARY_TOL = 1e-12


class InternalConsistencyError(RuntimeError):
    """Two internal evaluation paths disagreed away from a bin boundary."""


@dataclass(frozen=True)
class QuantizerConfig:
    delta: float
    variant: str = "floor"

    def __post_init__(self):
        if not (self.delta > 0):
            raise InvalidArgument("delta must be positive")
        if self.variant not in VARIANTS:
            raise InvalidArgument(f"unknown quantizer variant: {self.variant!r}")


@dataclass(frozen=True)
class Dither:
    """Per-coordinate additive shifts; the uniform sampler keeps them in [0, delta)."""

    values: np.ndarray

    @classmethod
    def uniform(cls, delta: float, m: int, seed) -> "Dither":
        if not (delta > 0):
            raise InvalidArgument("delta must be positive")
        if m < 1:
            raise InvalidArgument("m must be >= 1")
        rng = np.random.default_rng(seed)
        vals = rng.random(m) * delta
        vals.setflags(write=False)
        return cls(values=vals)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("dither values must be finite")
        object.__setattr__(self, "values", v)


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


def floor_argument(cfg: QuantizerConfig, t):
    """The value whose floor bin is the code of t: t itself for floor, and
    t + delta/2 for round (round half-up is floor(t/delta + 1/2)).

    Threshold counts taken on this value count the thresholds the variant
    actually uses.
    """
    return t if cfg.variant == "floor" else t + 0.5 * cfg.delta


def quantize_array(cfg: QuantizerConfig, t) -> np.ndarray:
    """Bin indices floor(t/delta), or floor(t/delta + 1/2) for round, for an
    array of inputs with |t| < 2^53 delta, or 2^52 delta for round
    (value = delta * index).

    Within that range every index and k*delta are exact in float64 and int64;
    from 2^52 delta on, the round variant's shift t + delta/2 rounds to even.
    The range check also rejects NaN (min and max propagate it) and
    infinities, and it allocates nothing: these arrays can be a trial's
    largest.
    """
    t = np.asarray(t, dtype=np.float64)
    bits = 53 if cfg.variant == "floor" else 52
    lim = 2.0**bits * cfg.delta
    if not (-lim < t.min(initial=0.0) and t.max(initial=0.0) < lim):
        raise InvalidArgument(f"quantizer input must be finite with |t| < 2^{bits} delta")
    return _floor_index(floor_argument(cfg, t), cfg.delta)


def boundary_flags(t, delta: float, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """True where t sits within tol*delta of a quantization threshold."""
    t = np.asarray(t, dtype=np.float64)
    r = t - np.round(t / delta) * delta
    return np.abs(r) <= tol * delta


@dataclass(frozen=True)
class QuantizedMap:
    """A frozen instance of the dithered quantized mapping x -> Q(Phi x + xi)."""

    matrix: SensingMatrix
    dither: Optional[Dither]
    quantizer: QuantizerConfig

    def __post_init__(self):
        if self.dither is not None and len(self.dither.values) != self.matrix.rows:
            raise InvalidArgument("dither length must equal the matrix row count")

    @property
    def m(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols

    @property
    def delta(self) -> float:
        return self.quantizer.delta

    def project_many(self, xs: np.ndarray) -> np.ndarray:
        """Phi x + xi (xi = 0 for undithered maps) for a batch of column
        vectors, (n, count) -> (m, count)."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[0] != self.n:
            raise InvalidArgument(f"expected shape ({self.n}, count), got {xs.shape}")
        z = self.matrix.entries @ xs
        if self.dither is not None:
            z = z + self.dither.values[:, None]
        return z


def make_map(ensemble: Ensemble, m: int, n: int, delta: float, seed,
             dithered: bool = True, variant: str = "floor") -> QuantizedMap:
    """Draw a frozen map: matrix and dither from seeds derived from one root."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    mat_seed, dither_seed = root.spawn(2)
    matrix = sample_matrix(ensemble, m, n, mat_seed)
    cfg = QuantizerConfig(delta=delta, variant=variant)
    dither = Dither.uniform(delta, m, dither_seed) if dithered else None
    return QuantizedMap(matrix=matrix, dither=dither, quantizer=cfg)


def apply_many(qmap: QuantizedMap, xs: np.ndarray) -> np.ndarray:
    """A(x)/delta as integer codes for a batch of column vectors, shape (m, count)."""
    return quantize_array(qmap.quantizer, qmap.project_many(xs))


def dithered_floor_mean(x: float, y: float, samples: int, seed) -> tuple[float, float]:
    """Monte Carlo (estimate, stderr) of E|floor(x+xi) - floor(y+xi)|, xi ~ U[0,1)."""
    if samples < 1:
        raise InvalidArgument("samples must be >= 1")
    rng = np.random.default_rng(seed)
    xi = rng.random(samples)
    vals = np.abs(np.floor(x + xi) - np.floor(y + xi))
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    return est, stderr


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
