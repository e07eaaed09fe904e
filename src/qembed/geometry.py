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

from .ensembles import BLOCK_ENTRIES, InvalidArgument, block_rows

MESH_POINTS = BLOCK_ENTRIES  # the most grid points of a mesh; see ball_mesh


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
    """The dimension N of the set, which every draw for it asks for first: at
    most BLOCK_ENTRIES, since one row of Phi or of g already holds N entries."""
    if isinstance(spec, FiniteSet):
        n = spec.points.shape[1]
    elif isinstance(spec, SparseBall):
        n = spec.n
    elif isinstance(spec, LowRankBall):
        n = spec.n1 * spec.n2
    elif isinstance(spec, EuclideanBall):
        n = spec.n
    else:
        raise InvalidArgument(f"unknown set spec: {spec!r}")
    if n > BLOCK_ENTRIES:
        raise InvalidArgument(f"dimension {n} exceeds {BLOCK_ENTRIES}: one row of Phi or g "
                              "holds N entries, more than one block may")
    return n


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
        support, values = sparse_ball_slots(spec, rng)
        c = np.zeros(spec.n)
        c[support] = values
        return c
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


def sparse_ball_slots(spec: SparseBall, seed) -> tuple[np.ndarray, np.ndarray]:
    """A point of a sparse ball as its K slots: the indices it drew as the
    support, in draw order, and its coefficients there (the point is zero
    elsewhere). sample_point is the same draw as a dense vector."""
    rng = np.random.default_rng(seed)
    support = rng.choice(spec.n, size=spec.k, replace=False)
    coeffs = rng.standard_normal(spec.k)
    norm = math.sqrt(coeffs.dot(coeffs))  # np.linalg.norm's own formula, without its overhead
    if norm == 0.0:
        coeffs[0] = 1.0
        norm = 1.0
    target = spec.radius * rng.random()
    return support, coeffs * (target / norm)


def sup_oracle(spec: SetSpec, g: np.ndarray):
    """Exact sup over u in the set of |<g, u>|, over the last axis of g: a
    float for one vector, an array for a stack."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim == 0 or g.shape[-1] != ambient_dim(spec):
        raise InvalidArgument(f"expected dimension {ambient_dim(spec)}, got {g.shape}")
    if isinstance(spec, FiniteSet):
        sup = np.max(np.abs((spec.points @ g[..., None])[..., 0]), axis=-1)
    elif isinstance(spec, SparseBall):
        top = np.abs(g)
        top.sort(axis=-1)  # in place: a block holds one copy of g, not two
        top = top[..., -spec.k:]
        sup = spec.radius * np.sqrt(np.vecdot(top, top))
    elif isinstance(spec, LowRankBall):
        top = np.linalg.svd(g.reshape(*g.shape[:-1], spec.n1, spec.n2),
                            compute_uv=False)[..., : spec.r]
        sup = spec.radius * np.sqrt(np.vecdot(top, top))
    elif isinstance(spec, EuclideanBall):
        sup = spec.radius * np.sqrt(np.vecdot(g, g))
    else:
        raise InvalidArgument(f"unknown set spec: {spec!r}")
    return float(sup) if g.ndim == 1 else sup


@dataclass(frozen=True)
class WidthEstimate:
    mean: float
    stderr: float
    draws: int


def width_estimate(spec: SetSpec, draws: int, seed) -> WidthEstimate:
    """Monte Carlo Gaussian mean width: E sup |<g, u>| with exact inner sup.
    g is drawn in row blocks within BLOCK_ENTRIES, counting a finite set's
    (rows, points) products."""
    if draws < 2:
        raise InvalidArgument("draws must be >= 2")
    rng = np.random.default_rng(seed)
    dim = ambient_dim(spec)
    rows = block_rows(dim, spec.points.shape[0] if isinstance(spec, FiniteSet) else 1)
    vals = np.concatenate([sup_oracle(spec, rng.standard_normal((min(rows, draws - i), dim)))
                           for i in range(0, draws, rows)])
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
    """Deterministic grid mesh of the radius ball with spacing h.

    The grid may hold at most MESH_POINTS = BLOCK_ENTRIES points, counted
    before the points outside the ball are dropped. A sweep's codes and the
    width oracle's products hold at least one row of one entry per point, so
    a set of more points would leave the block budget; and the grid itself is
    drawn whole (at N = 5, h = 0.05 it would be 41^5 points, 4.6 GB).
    """
    if not (0 < h <= 2 * radius < math.inf):
        raise InvalidArgument("need 0 < h <= 2*radius < inf")
    if n < 1:
        raise InvalidArgument("a mesh needs n >= 1")
    # len(axis) below is ceil(span) >= 2 points, so past the bit length of
    # MESH_POINTS a grid has too many points whatever the spacing
    span = (radius + h / 2 + radius) / h
    if span > MESH_POINTS or math.ceil(span) ** min(n, MESH_POINTS.bit_length()) > MESH_POINTS:
        raise InvalidArgument(f"a mesh grid in {n} dimensions at spacing {h:g} exceeds "
                              f"{MESH_POINTS} points; raise h or lower n")
    axis = np.arange(-radius, radius + h / 2, h)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.linalg.norm(pts, axis=1) <= radius + 1e-12
    return FiniteSet(points=pts[keep])
