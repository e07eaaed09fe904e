"""Symmetric unit-variance sub-Gaussian ensembles and their analytic constants.

Supported kinds: "gaussian", "rademacher", "bounded-uniform" (uniform on
[-sqrt(3), sqrt(3)], the canonical bounded choice with unit variance).

Only kappa estimation reads scipy: scipy.special is imported inside the
Gaussian tail and its inverse, and scipy.integrate inside the
bounded-uniform tail gap, so `import qembed` and every Gaussian run load
numpy alone. The integral of the Gaussian tail, which the tail gaps and the
exact law of a Gaussian row's soft count share, reads `math.erfc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

KINDS = ("gaussian", "rademacher", "bounded-uniform")
KAPPA_SOURCES = ("generic-bound", "estimated")
BLOCK_ENTRIES = 2**17  # float64 entries (1 MB) of each array of any block the package holds

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


# psi2, the sup over p >= 1 of p^(-1/2) (E|X|^p)^(1/p), of the non-Gaussian
# kinds (a Gaussian's kappa is 0 without it). Both peak at p = 1, where it is
# E|X|: Rademacher's is p^(-1/2), and for |X| uniform on [0, sqrt(3)] it is
# sqrt(3) (p + 1)^(-1/p) p^(-1/2), whose log has derivative
# (ln(p + 1) - p/(p + 1) - p/2) / p^2 < 0 on p >= 1.
_PSI2 = {"rademacher": 1.0, "bounded-uniform": math.sqrt(3.0) / 2}


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
        kappa = GENERIC_KAPPA_FACTOR * _PSI2[kind] ** 3
    else:
        kappa = estimate_kappa(kind)
    return Ensemble(kind=kind, kappa_sg=kappa)


def sample_iid(ensemble: Ensemble, shape, seed) -> np.ndarray:
    """i.i.d. draws from the ensemble, deterministic given seed: sample_matrix's block kernel."""
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


def block_rows(n: int, count: int) -> int:
    """Rows of a row block whose part of an (M, n) matrix, (rows, n), and
    whose (rows, count) array each hold at most BLOCK_ENTRIES entries: the
    one rule by which every block the package holds is sized, whatever M is."""
    return max(1, BLOCK_ENTRIES // max(n, count))


def _row_blocks(ensemble: Ensemble, m: int, n: int, rng: np.random.Generator, rows: int):
    for start in range(0, m, rows):
        block = sample_iid(ensemble, (min(rows, m - start), n), rng)
        block.setflags(write=False)
        yield block


def mu_sg(ensemble: Ensemble, u: np.ndarray, samples: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate (value, stderr) of E|<phi, u>| over the rows of a
    samples x n matrix from sample_matrix, in blocks of the largest power of
    two rows within block_rows(n, 1): BLAS takes rows in groups of 4, so each
    |<phi, u>| keeps the whole product's bits, unless the last block is one row.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.linalg.norm(u) == 0.0:
        raise InvalidArgument("u must be nonzero")
    if samples < 1:
        raise InvalidArgument("samples must be >= 1")
    rows = 1 << (block_rows(u.size, 1).bit_length() - 1)
    blocks = sample_matrix(ensemble, samples, u.size, seed, rows)
    vals = np.concatenate([np.abs(phi @ u) for phi in blocks])
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


def _gauss_abs_tail_integral(c: float) -> float:
    """I(c), the integral of P(|g| >= x) dx over [0, c] for c >= 0; tends to
    sqrt(2/pi). I(c) = c erfc(c/sqrt 2) - 2 phi(c) + 2 phi(0), written as
    c erfc(c/sqrt 2) - sqrt(2/pi) expm1(-c^2/2), two terms >= 0 with no
    cancellation between them.

    Error budget (eps = 2^-52), given erfc and expm1 within 2 ulp: the first
    term carries (c^2 + 5) eps relative (c^2 + 1 from the rounded argument),
    and c (c^2 + 5) erfc(c/sqrt 2) < 1.93; the second, below 0.8, carries
    4 eps; their sum rounds by eps/4. So the float I is within 6 eps of I.
    Against 50 digits it was within 1.2 eps on 43,000 c in [0, 40].
    """
    return c * math.erfc(c / math.sqrt(2.0)) - SQRT_2_OVER_PI * math.expm1(-0.5 * c * c)


def gaussian_count_tails(dist: float, delta: float, t: float, k_max: int) -> np.ndarray:
    """P(count >= k), k = 0..k_max, for one Gaussian row's soft count at
    t >= 0 (distances.soft_count_array) of two points dist apart, under a
    dither uniform on [0, delta): the exact law of that count.

    The row's projected difference is dist*g, g standard normal, and the
    dither places the lattice uniformly, so the count is floor or ceil of
    L/delta, L = max(0, dist |g| - 2t), and P(count >= k | g) =
    clip(L/delta - (k - 1), 0, 1). Taking the mean over g,

        P(count >= k) = (dist/delta) (I(c_k + delta/dist) - I(c_k)),
        c_k = (2t + (k - 1) delta) / dist,

    with I = _gauss_abs_tail_integral, evaluated at the grid c_1, c_2, ...,
    so that c_k + delta/dist is c_{k+1}. The pmf is the differences of these
    tails.

    Error budget: each c_k is within 2 eps relative of its value, and I is
    1-Lipschitz with c erfc(c/sqrt 2) < 0.35, so each I value is within 7 eps
    and each tail within E = gaussian_count_error(dist, delta) =
    16 (1 + dist/delta) eps of the exact law; a pmf entry, a difference of
    two tails, is within 2E + eps. Against 50 digits the tails were within
    0.06 E on grids that cover c in [0, 40].
    """
    if not (dist > 0 and delta > 0 and t >= 0):
        raise InvalidArgument("need dist > 0, delta > 0 and t >= 0")
    if k_max < 0:
        raise InvalidArgument("k_max must be >= 0")
    integrals = [_gauss_abs_tail_integral((2.0 * t + k * delta) / dist) for k in range(k_max + 1)]
    tails = np.empty(k_max + 1)
    tails[0] = 1.0
    tails[1:] = np.clip((dist / delta) * np.diff(integrals), 0.0, 1.0)
    return tails


def gaussian_count_error(dist: float, delta: float) -> float:
    """E = 16 (1 + dist/delta) eps, the bound on each float tail of
    gaussian_count_tails(dist, delta, ...) that its docstring derives."""
    return 16.0 * (1.0 + dist / delta) * float(np.finfo(float).eps)


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
