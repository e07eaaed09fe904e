"""Symmetric unit-variance sub-Gaussian ensembles and their analytic constants.

Supported kinds: "gaussian", "rademacher", "bounded-uniform" (uniform on
[-sqrt(3), sqrt(3)], the canonical bounded choice with unit variance).

Only kappa estimation reads special functions. scipy.special is imported
inside the Gaussian moment of _abs_moment and the three Gaussian tail
helpers, and scipy.integrate inside the bounded-uniform tail gap, so
`import qembed` and every Gaussian run load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

KINDS = ("gaussian", "rademacher", "bounded-uniform")
KAPPA_SOURCES = ("generic-bound", "estimated")

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# 9*sqrt(27); multiplies psi2^3 in the generic Berry-Esseen-style bound
GENERIC_KAPPA_FACTOR = 9.0 * math.sqrt(27.0)


class InvalidArgument(ValueError):
    """Raised when an operation precondition is violated."""


def as_seedseq(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


@dataclass(frozen=True)
class Ensemble:
    """A symmetric, zero-mean, unit-variance sub-Gaussian distribution family."""

    kind: str
    kappa_sg: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgument(f"unknown ensemble kind: {self.kind!r}")
        if self.kappa_sg < 0:
            raise InvalidArgument("kappa_sg must be nonnegative")


def _abs_moment(kind: str, p: int) -> float:
    """E|X|^p in closed form for the built-in kinds."""
    if kind == "gaussian":
        from scipy.special import gammaln

        # 2^(p/2) Gamma((p+1)/2) / sqrt(pi), evaluated in log space
        return math.exp(0.5 * p * math.log(2.0) + gammaln((p + 1) / 2.0) - 0.5 * math.log(math.pi))
    if kind == "rademacher":
        return 1.0
    if kind == "bounded-uniform":
        # |X| uniform on [0, sqrt(3)]
        return math.sqrt(3.0) ** p / (p + 1)
    raise InvalidArgument(f"unknown ensemble kind: {kind!r}")


def psi2_norm(kind: str) -> float:
    """sup over integer p in {1..64} of p^(-1/2) (E|X|^p)^(1/p).

    Closed-form moments are used for every built-in kind; the sup is attained
    at small p for all of them, so the integer grid is exact in practice.
    """
    best = 0.0
    for p in range(1, 65):
        val = _abs_moment(kind, p) ** (1.0 / p) / math.sqrt(p)
        best = max(best, val)
    return best


def make_ensemble(kind: str, kappa_source: str = "generic-bound") -> Ensemble:
    """Build an Ensemble with kappa per source: 0 for gaussian under either;
    "generic-bound" is 9 sqrt(27) psi2^3, and "estimated" refines it by exact
    tail-gap integration on flat sparse unit vectors.
    """
    if kind not in KINDS:
        raise InvalidArgument(f"unknown ensemble kind: {kind!r}")
    if kappa_source not in KAPPA_SOURCES:
        raise InvalidArgument(f"unknown kappa_source: {kappa_source!r}")
    if kind == "gaussian":
        kappa = 0.0
    elif kappa_source == "generic-bound":
        kappa = GENERIC_KAPPA_FACTOR * psi2_norm(kind) ** 3
    else:
        kappa = estimate_kappa(kind)
    return Ensemble(kind=kind, kappa_sg=kappa)


def sample_iid(ensemble: Ensemble, shape, seed) -> np.ndarray:
    """i.i.d. draws from the ensemble, deterministic given seed."""
    rng = np.random.default_rng(seed)
    if ensemble.kind == "gaussian":
        return rng.standard_normal(shape)
    if ensemble.kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if ensemble.kind == "bounded-uniform":
        s3 = math.sqrt(3.0)
        return rng.uniform(-s3, s3, size=shape)
    raise InvalidArgument(f"unknown ensemble kind: {ensemble.kind!r}")


def sample_matrix(ensemble: Ensemble, m: int, n: int, seed, rows: Optional[int] = None):
    """The M x N sensing matrix of i.i.d. ensemble draws, reproducible from
    (ensemble, m, n, seed), as read-only blocks of `rows` consecutive rows
    (all M rows in one block by default), each drawn only when it is asked for.

    Every block is drawn from one Generator, which fills arrays in C order, so
    the blocks stacked are bit for bit the matrix drawn whole, whatever rows
    is, and a caller that uses each block in turn holds one at a time.
    """
    if m < 1 or n < 1:
        raise InvalidArgument("matrix dimensions must be >= 1")
    rows = m if rows is None else rows
    if rows < 1:
        raise InvalidArgument("rows per block must be >= 1")
    return _row_blocks(ensemble, m, n, np.random.default_rng(seed), rows)


def _row_blocks(ensemble: Ensemble, m: int, n: int, rng: np.random.Generator, rows: int):
    for start in range(0, m, rows):
        block = sample_iid(ensemble, (min(rows, m - start), n), rng)
        block.setflags(write=False)
        yield block


def mu_sg(ensemble: Ensemble, u: np.ndarray, samples: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate (value, stderr) of E|<phi, u>|.

    The gaussian kind returns the exact sqrt(2/pi)*||u|| with stderr 0.
    """
    u = np.asarray(u, dtype=np.float64)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise InvalidArgument("u must be nonzero")
    if samples < 1:
        raise InvalidArgument("samples must be >= 1")
    if ensemble.kind == "gaussian":
        return SQRT_2_OVER_PI * norm, 0.0
    phi = sample_iid(ensemble, (samples, u.size), seed)
    vals = np.abs(phi @ u)
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    return est, stderr


def mu_sg_exact_binomial(k0: int) -> float:
    """Exact E|sum of k0 Rademacher signs| = 2 * MAD of Bin(k0, 1/2)."""
    if k0 < 1:
        raise InvalidArgument("k0 must be >= 1")
    return 2.0 * float(binomial_mad(k0))


def binomial_mad(n: int) -> Fraction:
    """Exact mean absolute deviation of Bin(n, 1/2) by enumeration."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    total = 0
    for j in range(n + 1):
        total += math.comb(n, j) * abs(2 * j - n)
    # E|beta - n/2| = sum comb(n,j)|j - n/2| / 2^n, doubled numerator keeps integers
    return Fraction(total, 2 ** (n + 1))


def binomial_mad_de_moivre(n: int) -> Fraction:
    """MAD of Bin(2m, 1/2) for even n = 2m via m * 2^(-2m) * C(2m, m)."""
    if n < 2 or n % 2 != 0:
        raise InvalidArgument("n must be even and >= 2")
    m = n // 2
    return Fraction(m * math.comb(n, m), 2**n)


# --- tail-gap machinery (distance between |<phi,u>| and |<g,u>| tails) ---


def _gauss_abs_tail(t):
    """P(|g| >= t) for standard normal g."""
    from scipy.special import ndtr

    return 2.0 * (1.0 - ndtr(t))


def _gauss_abs_tail_integral(t: float) -> float:
    """Integral of P(|g| >= s) ds over [0, t]; tends to sqrt(2/pi)."""
    from scipy.special import ndtr

    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    phit = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return 2.0 * (t * (1.0 - ndtr(t)) - phit + phi0)


def _gauss_abs_tail_inv(c: float) -> float:
    """t with P(|g| >= t) = c, for c in (0, 1]."""
    from scipy.special import erfcinv

    return math.sqrt(2.0) * float(erfcinv(c))


def exact_tail_gap_discrete(magnitudes: np.ndarray, probs: np.ndarray) -> float:
    """Exact integral of |P(|X| >= t) - P(|g| >= t)| dt for atomic |X|.

    magnitudes/probs describe the distribution of |X| (not necessarily sorted).
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    order = np.argsort(mags)
    # collapse duplicate atoms, adding their masses in sorted order
    uniq, inv = np.unique(mags[order], return_inverse=True)
    pu = np.zeros_like(uniq)
    np.add.at(pu, inv, p[order])
    # tail on (uniq[i-1], uniq[i]] is the mass at atoms >= uniq[i]
    tail_at = np.cumsum(pu[::-1])[::-1]
    integral = _gauss_abs_tail_integral
    total = 0.0
    lo = 0.0
    for hi, c in zip(uniq.tolist(), tail_at.tolist()):
        if hi <= lo:  # an atom at 0 bounds no piece
            continue
        if c >= _gauss_abs_tail(lo):
            pieces = [(lo, hi, 1.0)]
        elif c <= _gauss_abs_tail(hi):
            pieces = [(lo, hi, -1.0)]
        else:
            # G decreases through c: the tail of |X| sits below G left of t*
            t_star = min(max(_gauss_abs_tail_inv(c), lo), hi)
            pieces = [(lo, t_star, -1.0), (t_star, hi, 1.0)]
        for a, b, sign in pieces:
            total += sign * (c * (b - a) - (integral(b) - integral(a)))
        lo = hi
    # beyond the largest atom the empirical tail is 0 and the gap is the gaussian tail
    total += SQRT_2_OVER_PI - integral(float(uniq[-1]))
    return float(total)


def _uniform_sum_tail(t: float, k: int) -> float:
    """P(|S| >= t) for S a sum of k uniforms on [-sqrt(3), sqrt(3)] over sqrt(k).

    S is a scaled Irwin-Hall law on [-s, s], s = sqrt(3k):
    P(|S| >= t) = 2 F_k(y) with y = k (1 - t/s) / 2 and the Irwin-Hall cdf
    F_k(y) = (1/k!) sum_{j <= y} (-1)^j C(k, j) (y - j)^k.
    """
    s = math.sqrt(3.0 * k)
    if t >= s:
        return 0.0
    y = k * (1.0 - t / s) / 2.0
    total = 0.0
    for j in range(int(y) + 1):
        total += (-1) ** j * math.comb(k, j) * (y - j) ** k
    return 2.0 / math.factorial(k) * total


def _uniform_tail_gap(k: int) -> float:
    """Integral of |P(|S| >= t) - P(|g| >= t)| dt for the exact law of the
    flat bounded-uniform sum S of _uniform_sum_tail: one quadrature per
    polynomial piece between the knots t = s (1 - 2j/k), and the Gaussian
    tail beyond s."""
    from scipy.integrate import quad

    s = math.sqrt(3.0 * k)
    knots = sorted({0.0, *(s * (1.0 - 2.0 * j / k) for j in range(k // 2 + 1))})

    def f(t):
        return abs(_uniform_sum_tail(t, k) - _gauss_abs_tail(t))

    val = sum(quad(f, lo, hi, limit=200)[0] for lo, hi in zip(knots, knots[1:]))
    tail, _ = quad(_gauss_abs_tail, s, 12.0, limit=200)
    return float(val + tail)


def estimate_kappa(kind: str) -> float:
    """Refined kappa of a non-Gaussian kind: max over flat K-sparse unit
    vectors, K = 1..12, of sqrt(K) * tail gap.

    Both non-Gaussian kinds have exact laws on ones(K)/sqrt(K): binomial
    atoms for Rademacher sums and a scaled Irwin-Hall density for
    bounded-uniform ones, so kappa is deterministic.
    """
    best = 0.0
    for k in range(1, 13):
        if kind == "rademacher":
            j = np.arange(k + 1)
            mags = np.abs(2.0 * j - k) / math.sqrt(k)
            probs = np.array([math.comb(k, int(jj)) for jj in j], dtype=np.float64) / 2.0**k
            gap = exact_tail_gap_discrete(mags, probs)
        else:
            gap = _uniform_tail_gap(k)
        best = max(best, gap * math.sqrt(k))
    return best
