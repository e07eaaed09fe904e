"""Symmetric unit-variance sub-Gaussian ensembles and their analytic constants.

Supported kinds: "gaussian", "rademacher", "bounded-uniform" (uniform on
[-sqrt(3), sqrt(3)], the canonical bounded choice with unit variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import erfcinv, gammaln, ndtr

KINDS = ("gaussian", "rademacher", "bounded-uniform")
KAPPA_SOURCES = ("exact-zero", "generic-bound", "estimated")

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# 9*sqrt(27); multiplies alpha^3 in the generic Berry-Esseen-style bound
GENERIC_KAPPA_FACTOR = 9.0 * math.sqrt(27.0)


class InvalidArgument(ValueError):
    """Raised when an operation precondition is violated."""


@dataclass(frozen=True)
class Ensemble:
    """A symmetric, zero-mean, unit-variance sub-Gaussian distribution family."""

    kind: str
    alpha: float
    kappa_sg: float
    kappa_source: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgument(f"unknown ensemble kind: {self.kind!r}")
        if self.kappa_source not in KAPPA_SOURCES:
            raise InvalidArgument(f"unknown kappa_source: {self.kappa_source!r}")
        if self.alpha < 1.0 / math.sqrt(2.0) - 1e-12:
            raise InvalidArgument("alpha must be >= 1/sqrt(2) for unit variance")
        if self.kappa_sg < 0:
            raise InvalidArgument("kappa_sg must be nonnegative")


@dataclass(frozen=True)
class SensingMatrix:
    """An M x N matrix of i.i.d. draws, reproducible from (ensemble, m, n, seed)."""

    entries: np.ndarray
    ensemble: Ensemble

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _abs_moment(kind: str, p: int) -> float:
    """E|X|^p in closed form for the built-in kinds."""
    if kind == "gaussian":
        # 2^(p/2) Gamma((p+1)/2) / sqrt(pi), evaluated in log space
        return math.exp(0.5 * p * math.log(2.0) + gammaln((p + 1) / 2.0) - 0.5 * math.log(math.pi))
    if kind == "rademacher":
        return 1.0
    if kind == "bounded-uniform":
        # |X| uniform on [0, sqrt(3)]
        return math.sqrt(3.0) ** p / (p + 1)
    raise InvalidArgument(f"unknown ensemble kind: {kind!r}")


def psi2_norm(kind_or_ensemble, p_max: int = 64) -> float:
    """sup over integer p in {1..p_max} of p^(-1/2) (E|X|^p)^(1/p).

    Closed-form moments are used for every built-in kind; the sup is attained
    at small p for all of them, so the integer grid is exact in practice.
    """
    kind = kind_or_ensemble.kind if isinstance(kind_or_ensemble, Ensemble) else kind_or_ensemble
    if p_max < 1:
        raise InvalidArgument("p_max must be >= 1")
    best = 0.0
    for p in range(1, p_max + 1):
        val = _abs_moment(kind, p) ** (1.0 / p) / math.sqrt(p)
        best = max(best, val)
    return best


def make_ensemble(kind: str, kappa_source: str = "default") -> Ensemble:
    """Build an Ensemble with alpha from the psi2 grid and kappa per source.

    kappa_source "default" resolves to exact-zero for gaussian and the
    generic bound otherwise; "estimated" refines the generic bound by
    numeric tail-gap integration on flat sparse unit vectors.
    """
    alpha = psi2_norm(kind)
    if kappa_source == "default":
        kappa_source = "exact-zero" if kind == "gaussian" else "generic-bound"
    if kappa_source == "exact-zero":
        if kind != "gaussian":
            raise InvalidArgument("exact-zero kappa is only valid for the gaussian kind")
        kappa = 0.0
    elif kappa_source == "generic-bound":
        kappa = 0.0 if kind == "gaussian" else GENERIC_KAPPA_FACTOR * alpha**3
    elif kappa_source == "estimated":
        kappa = 0.0 if kind == "gaussian" else estimate_kappa(kind)
    else:
        raise InvalidArgument(f"unknown kappa_source: {kappa_source!r}")
    return Ensemble(kind=kind, alpha=alpha, kappa_sg=kappa, kappa_source=kappa_source)


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def sample_iid(ensemble: Ensemble, shape, seed) -> np.ndarray:
    """i.i.d. draws from the ensemble, deterministic given seed."""
    rng = _rng(seed)
    if ensemble.kind == "gaussian":
        return rng.standard_normal(shape)
    if ensemble.kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if ensemble.kind == "bounded-uniform":
        s3 = math.sqrt(3.0)
        return rng.uniform(-s3, s3, size=shape)
    raise InvalidArgument(f"unknown ensemble kind: {ensemble.kind!r}")


def sample_matrix(ensemble: Ensemble, m: int, n: int, seed: int) -> SensingMatrix:
    """M x N sensing matrix of i.i.d. ensemble draws."""
    if m < 1 or n < 1:
        raise InvalidArgument("matrix dimensions must be >= 1")
    entries = sample_iid(ensemble, (m, n), seed)
    entries.setflags(write=False)
    return SensingMatrix(entries=entries, ensemble=ensemble)


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
    return 2.0 * (1.0 - ndtr(t))


def _gauss_abs_tail_integral(t: float) -> float:
    """Integral of P(|g| >= s) ds over [0, t]; tends to sqrt(2/pi)."""
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    phit = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return 2.0 * (t * (1.0 - ndtr(t)) - phit + phi0)


def _gauss_abs_tail_inv(c: float) -> float:
    """t with P(|g| >= t) = c, for c in (0, 1]."""
    return math.sqrt(2.0) * float(erfcinv(c))


def _segments_from_tail(breaks: np.ndarray, levels: np.ndarray):
    """Split [0, inf) at tail-level Gaussian crossings; yield (lo, hi, sign).

    breaks are the sorted magnitudes where the piecewise-constant tail drops,
    levels[i] is the tail value on (breaks[i-1], breaks[i]] with breaks[-1]
    extended to infinity at level 0.
    """
    segs = []
    lo = 0.0
    for i in range(len(breaks)):
        hi = float(breaks[i])
        c = float(levels[i])
        if hi <= lo:
            lo = max(lo, hi)
            continue
        g_lo = _gauss_abs_tail(lo)
        g_hi = _gauss_abs_tail(hi)
        if c >= g_lo:
            segs.append((lo, hi, 1.0))
        elif c <= g_hi:
            segs.append((lo, hi, -1.0))
        else:
            # G decreases through c: empirical tail sits below G on the left
            t_star = min(max(_gauss_abs_tail_inv(c), lo), hi)
            segs.append((lo, t_star, -1.0))
            segs.append((t_star, hi, 1.0))
        lo = hi
    return segs


def exact_tail_gap_discrete(magnitudes: np.ndarray, probs: np.ndarray) -> float:
    """Exact integral of |P(|X| >= t) - P(|g| >= t)| dt for atomic |X|.

    magnitudes/probs describe the distribution of |X| (not necessarily sorted).
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    order = np.argsort(mags)
    mags, p = mags[order], p[order]
    # collapse duplicate atoms
    uniq, inv = np.unique(mags, return_inverse=True)
    pu = np.zeros_like(uniq)
    np.add.at(pu, inv, p)
    # tail on (uniq[i-1], uniq[i]] is the mass at atoms >= uniq[i]
    tail_at = np.cumsum(pu[::-1])[::-1]
    total = 0.0
    for lo, hi, sign in _segments_from_tail(uniq, tail_at):
        piece = _gauss_abs_tail_integral(hi) - _gauss_abs_tail_integral(lo)
        # recover the constant level on this segment from its midpoint
        mid = 0.5 * (lo + hi)
        idx = np.searchsorted(uniq, mid)
        const = tail_at[idx] if idx < len(uniq) else 0.0
        total += sign * (const * (hi - lo) - piece)
    # beyond the largest atom the empirical tail is 0 and the gap is the gaussian tail
    total += SQRT_2_OVER_PI - _gauss_abs_tail_integral(float(uniq[-1]))
    return float(total)


def berry_esseen_gap(ensemble: Ensemble, u: np.ndarray, samples: int, seed) -> tuple[float, float]:
    """Estimate integral_0^inf |P(|<phi,u>| >= t) - P(|<g,u>| >= t)| dt.

    Requires ||u|| = 1. The gaussian kind returns (0, 0) exactly. Otherwise a
    two-stage moment-form estimator is used: half the draws fix the sign
    pattern s(t) of the tail difference, the other half give an unbiased
    estimate of integral (P_X - P_g) s dt = E S(|X|) - integral P_g s dt with
    S(x) = integral_0^x s. The estimate never exceeds the true gap in
    expectation and converges to it as the sign pattern is learned.
    """
    u = np.asarray(u, dtype=np.float64)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-9:
        raise InvalidArgument("u must be a unit vector (within 1e-9)")
    if samples < 4:
        raise InvalidArgument("samples must be >= 4")
    if ensemble.kind == "gaussian":
        return 0.0, 0.0

    phi = sample_iid(ensemble, (samples, u.size), seed)
    vals = np.abs(phi @ u)
    n_a = samples // 2
    half_a = np.sort(vals[:n_a])
    half_b = vals[n_a:]

    # empirical tail of half A: level (n_a - j)/n_a on (v_(j), v_(j+1)]
    breaks = np.concatenate([half_a, [np.inf]])
    levels = 1.0 - np.arange(0, n_a + 1) / n_a  # levels[j] on (v_(j-1), v_(j)]
    # build sign segments over [0, max|A|]
    finite_breaks = half_a
    seg_levels = levels[:n_a]  # tail value on (prev, v_(j)]
    segs = _segments_from_tail(finite_breaks, seg_levels)
    # beyond max|A| the empirical tail is 0 < gaussian tail, so sign = -1
    t_last = float(finite_breaks[-1]) if n_a else 0.0

    # S(x) = integral_0^x sign, piecewise linear; gaussian part integrated exactly
    starts = np.array([s[0] for s in segs])
    ends = np.array([s[1] for s in segs])
    signs = np.array([s[2] for s in segs])
    cum = np.concatenate([[0.0], np.cumsum(signs * (ends - starts))])

    def s_of(x):
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(ends, x, side="left")
        idx = np.minimum(idx, len(segs) - 1)
        base = cum[idx] + signs[idx] * (np.minimum(x, ends[idx]) - starts[idx])
        beyond = x > t_last
        return np.where(beyond, cum[-1] - (x - t_last), base)

    gauss_part = 0.0
    for (lo, hi, sign) in segs:
        gauss_part += sign * (_gauss_abs_tail_integral(hi) - _gauss_abs_tail_integral(lo))
    gauss_part += -1.0 * (SQRT_2_OVER_PI - _gauss_abs_tail_integral(t_last))

    y = s_of(half_b)
    n_b = len(half_b)
    gap = float(y.mean() - gauss_part)
    stderr = float(y.std(ddof=1) / math.sqrt(n_b)) if n_b > 1 else float("inf")
    return gap, stderr


def estimate_kappa(kind: str, k_grid=range(1, 13), mc_samples: int = 200_000, seed: int = 0) -> float:
    """Refined kappa: max over flat K-sparse unit vectors of sqrt(K) * tail gap.

    Rademacher sums on ones(K)/sqrt(K) have exact binomial atoms, so the gap
    integral is computed exactly; other kinds fall back to the Monte Carlo
    estimator (upper-confidence value).
    """
    if kind == "gaussian":
        return 0.0
    best = 0.0
    ens = None
    for k in k_grid:
        if kind == "rademacher":
            j = np.arange(k + 1)
            mags = np.abs(2.0 * j - k) / math.sqrt(k)
            probs = np.array([math.comb(k, int(jj)) for jj in j], dtype=np.float64) / 2.0**k
            gap = exact_tail_gap_discrete(mags, probs)
        elif kind == "bounded-uniform" and k == 1:
            # |X| uniform on [0, sqrt(3)]: piecewise-exact via the atomic helper
            # on a fine discretization is avoided; integrate directly
            gap = _uniform1_tail_gap()
        else:
            if ens is None:
                ens = Ensemble(kind=kind, alpha=psi2_norm(kind), kappa_sg=0.0, kappa_source="generic-bound")
            u = np.ones(k) / math.sqrt(k)
            g, se = berry_esseen_gap(ens, u, mc_samples, np.random.SeedSequence((seed, k)))
            gap = g + 3.0 * se
        best = max(best, gap * math.sqrt(k))
    return best


def _uniform1_tail_gap() -> float:
    """Exact gap for a single bounded-uniform coordinate: |X| ~ U[0, sqrt(3)]."""
    from scipy.integrate import quad

    s3 = math.sqrt(3.0)

    def f(t):
        emp = max(0.0, 1.0 - t / s3) if t <= s3 else 0.0
        return abs(emp - _gauss_abs_tail(t))

    val, _ = quad(f, 0.0, s3, limit=200)
    tail, _ = quad(_gauss_abs_tail, s3, 12.0, limit=200)
    return float(val + tail)

