"""Low-complexity sets: sampling, exact sup oracles, Gaussian mean width,
the anti-sparsity condition, and minimal measurement counts.

Width estimates are Monte Carlo over the outer Gaussian draw only; the inner
sup over the set has a closed form for every supported kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .ensembles import InvalidArgument


@dataclass(frozen=True)
class FiniteSet:
    points: np.ndarray  # (count, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidArgument("finite set needs a nonempty (count, dim) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgument("finite set points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class SparseBall:
    n: int
    k: int
    radius: float

    def __post_init__(self):
        if self.k < 1 or self.k > self.n:
            raise InvalidArgument("need 1 <= k <= n")
        if not (0 < self.radius < math.inf):
            raise InvalidArgument("radius must be positive and finite")


@dataclass(frozen=True)
class LowRankBall:
    n1: int
    n2: int
    r: int
    radius: float

    def __post_init__(self):
        if self.r < 1 or self.r > min(self.n1, self.n2):
            raise InvalidArgument("need 1 <= r <= min(n1, n2)")
        if not (0 < self.radius < math.inf):
            raise InvalidArgument("radius must be positive and finite")


@dataclass(frozen=True)
class EuclideanBall:
    n: int
    radius: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidArgument("n must be >= 1")
        if not (0 < self.radius < math.inf):
            raise InvalidArgument("radius must be positive and finite")


SetSpec = Union[FiniteSet, SparseBall, LowRankBall, EuclideanBall]


def ambient_dim(spec: SetSpec) -> int:
    if isinstance(spec, FiniteSet):
        return spec.points.shape[1]
    if isinstance(spec, SparseBall):
        return spec.n
    if isinstance(spec, LowRankBall):
        return spec.n1 * spec.n2
    if isinstance(spec, EuclideanBall):
        return spec.n
    raise InvalidArgument(f"unknown set spec: {spec!r}")


def diameter(spec: SetSpec) -> float:
    """max norm over the set (the radius for balls)."""
    if isinstance(spec, FiniteSet):
        return float(np.max(np.linalg.norm(spec.points, axis=1)))
    return float(spec.radius)


def sample_point(spec: SetSpec, seed) -> np.ndarray:
    """One point of the set. Accepts a seed or a numpy Generator."""
    rng = np.random.default_rng(seed)
    if isinstance(spec, FiniteSet):
        idx = rng.integers(0, spec.points.shape[0])
        return spec.points[idx].copy()
    if isinstance(spec, SparseBall):
        return sparse_ball_point(spec, rng)[0]
    if isinstance(spec, LowRankBall):
        a = rng.standard_normal((spec.n1, spec.r))
        b = rng.standard_normal((spec.r, spec.n2))
        mat = a @ b
        norm = np.linalg.norm(mat)
        target = spec.radius * rng.random()
        return (mat * (target / norm)).ravel()
    if isinstance(spec, EuclideanBall):
        g = rng.standard_normal(spec.n)
        norm = np.linalg.norm(g)
        target = spec.radius * rng.random() ** (1.0 / spec.n)
        return g * (target / norm)
    raise InvalidArgument(f"unknown set spec: {spec!r}")


def sparse_ball_point(spec: SparseBall, seed) -> tuple[np.ndarray, np.ndarray]:
    """sample_point on a sparse ball together with the K indices it drew as
    the support, in draw order: the point can be nonzero only there."""
    rng = np.random.default_rng(seed)
    support = rng.choice(spec.n, size=spec.k, replace=False)
    coeffs = rng.standard_normal(spec.k)
    norm = np.linalg.norm(coeffs)
    if norm == 0.0:
        coeffs[0] = 1.0
        norm = 1.0
    target = spec.radius * rng.random()
    c = np.zeros(spec.n)
    c[support] = coeffs * (target / norm)
    return c, support


def sup_oracle(spec: SetSpec, g: np.ndarray) -> float:
    """Exact sup over u in the set of |<g, u>|."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (ambient_dim(spec),):
        raise InvalidArgument(f"expected dimension {ambient_dim(spec)}, got {g.shape}")
    if isinstance(spec, FiniteSet):
        return float(np.max(np.abs(spec.points @ g)))
    if isinstance(spec, SparseBall):
        top = np.sort(np.abs(g))[-spec.k:]
        return spec.radius * float(np.linalg.norm(top))
    if isinstance(spec, LowRankBall):
        s = np.linalg.svd(g.reshape(spec.n1, spec.n2), compute_uv=False)
        return spec.radius * float(np.linalg.norm(s[: spec.r]))
    if isinstance(spec, EuclideanBall):
        return spec.radius * float(np.linalg.norm(g))
    raise InvalidArgument(f"unknown set spec: {spec!r}")


@dataclass(frozen=True)
class WidthEstimate:
    mean: float
    stderr: float
    draws: int


def width_estimate(spec: SetSpec, draws: int, seed) -> WidthEstimate:
    """Monte Carlo Gaussian mean width: E sup |<g, u>| with exact inner sup."""
    if draws < 2:
        raise InvalidArgument("draws must be >= 2")
    rng = np.random.default_rng(seed)
    dim = ambient_dim(spec)
    vals = np.empty(draws)
    for i in range(draws):
        vals[i] = sup_oracle(spec, rng.standard_normal(dim))
    return WidthEstimate(mean=float(vals.mean()),
                         stderr=float(vals.std(ddof=1) / math.sqrt(draws)),
                         draws=draws)


def structured_wbar_sq(spec: SetSpec) -> float:
    """Diameter-free squared width bound for structured kinds.

    SparseBall: K log(2N/K); LowRankBall: r (N1 + N2).
    """
    if isinstance(spec, SparseBall):
        return spec.k * math.log(2.0 * spec.n / spec.k)
    if isinstance(spec, LowRankBall):
        return spec.r * (spec.n1 + spec.n2)
    raise InvalidArgument("structured width bound needs a sparse or low-rank set")


def anti_sparse(u: np.ndarray, k0: float):
    """Whether u is nonzero and ||u||^2 >= k0 ||u||_inf^2, over the last axis:
    a bool for one vector, an array for a stack.

    The test compares and never divides, and it is skipped at k0 <= 1: a
    float sum of nonnegative squares is never below its largest square, so
    there every nonzero u passes and k0 <= 1 filters nothing.
    """
    u = np.asarray(u, dtype=np.float64)
    sup = np.max(np.abs(u), axis=-1)
    ok = sup > 0.0
    if k0 > 1.0:
        ok &= np.vecdot(u, u) >= k0 * sup**2
    return bool(ok) if u.ndim == 1 else ok


MINIMAL_M_KINDS = ("embed-general", "embed-structured", "width-general", "width-structured")


def minimal_m(spec: SetSpec, kind: str, eps: float, delta: float, c_const: float,
              draws: int = 4096, seed=0) -> int:
    """Measurement count sufficient for the target guarantee, up to c_const.

    General kinds use the Monte Carlo width of the set; structured kinds use
    the diameter-free closed-form width bound.
    """
    if kind not in MINIMAL_M_KINDS:
        raise InvalidArgument(f"unknown minimal-m kind: {kind!r}")
    if not (0.0 < eps < 1.0):
        raise InvalidArgument("eps must lie in (0, 1)")
    if not (0 < delta < math.inf):
        raise InvalidArgument("delta must be positive and finite")
    if not (0 < c_const < math.inf):
        raise InvalidArgument("c_const must be positive and finite")
    d = diameter(spec)
    try:
        if kind == "embed-general":
            w = width_estimate(spec, draws, seed).mean
            val = w**2 / (delta**2 * eps**5)
        elif kind == "embed-structured":
            wb = structured_wbar_sq(spec)
            val = wb / eps**2 * math.log(1.0 + d / (delta * math.sqrt(eps**3)))
        elif kind == "width-general":
            w = width_estimate(spec, draws, seed).mean
            val = (2.0 + delta) ** 4 * w**2 / (delta**2 * eps**4)
        else:
            wb = structured_wbar_sq(spec)
            val = (2.0 + delta) / eps * wb * math.log(
                1.0 + (2.0 + delta) ** 1.5 * d / (delta * eps**1.5))
    except ArithmeticError:  # a power underflows to a zero divisor, or overflows
        val = math.inf
    if not math.isfinite(c_const * val):
        raise InvalidArgument(f"the measurement count overflows at eps={eps}, delta={delta}")
    return int(math.ceil(c_const * val))


def ball_mesh(n: int, h: float, radius: float = 1.0) -> FiniteSet:
    """Deterministic grid mesh of the radius ball with spacing h."""
    if not (0 < h <= 2 * radius):
        raise InvalidArgument("need 0 < h <= 2*radius")
    axis = np.arange(-radius, radius + h / 2, h)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.linalg.norm(pts, axis=1) <= radius + 1e-12
    return FiniteSet(points=pts[keep])
