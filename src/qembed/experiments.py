"""Monte Carlo experiment harness: distortion decay sweeps, consistency
width sweeps, concentration checks, deterministic counterexamples, and the
exact binomial/Stirling combinatorics.

Every trial consumes a seed derived from (master_seed, m-index, trial), so
results are bit-identical regardless of worker count.
"""

from __future__ import annotations

import io
import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ensembles import (
    SQRT_2_OVER_PI,
    Ensemble,
    InvalidArgument,
    as_seedseq,
    binomial_mad,
    binomial_mad_de_moivre,
    make_ensemble,
    mu_sg_exact_binomial,
    sample_iid,
)
from .distances import pair_distances, soft_count_array
from .geometry import (
    FiniteSet,
    LowRankBall,
    SetSpec,
    SparseBall,
    ambient_dim,
    anti_sparse,
    diameter,
    sample_point,
    sparse_ball_point,
)
from .quantizer import (BLOCK_ENTRIES, apply_many, block_rows, make_map, map_blocks,
                        quantize_array)

MAD_GAP_CONST = 1.0 / 7.0
MIN_FIT_POINTS = 3  # the log-log fit's slope and stderr need one residual degree of freedom


class SetFilterError(RuntimeError):
    """The anti-sparsity filter rejected every sampled pair."""


class InsufficientData(RuntimeError):
    """Too few usable points for a fit."""


@dataclass(frozen=True)
class TrialPlan:
    set_spec: SetSpec
    ensemble: Ensemble
    delta: float
    m_grid: Sequence[int]
    pairs_per_m: int
    trials_per_m: int
    k0: float
    master_seed: int

    def __post_init__(self):
        grid = list(self.m_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidArgument("m_grid must be strictly increasing")
        if self.pairs_per_m < 1 or self.trials_per_m < 1:
            raise InvalidArgument("pairs_per_m and trials_per_m must be >= 1")
        if not (self.delta > 0):
            raise InvalidArgument("delta must be positive")
        if not (0 <= self.k0 < math.inf):
            raise InvalidArgument(f"k0 must be finite and nonnegative (k0 <= 1 filters "
                                  f"nothing), got {self.k0}")


@dataclass(frozen=True)
class TrialRow:
    experiment: str
    m: int
    trial: int
    statistic: float
    censored: bool
    seed: int


@dataclass
class ExperimentResult:
    rows: list[TrialRow]
    fit_points: list[tuple[int, float]]  # (m, worst uncensored statistic) where positive
    slope: Optional[float]
    slope_stderr: Optional[float]
    verdict: Optional[bool]
    censored_total: int


def task_seed(master_seed: int, m_index: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(m_index, trial))


def seed_fingerprint(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _run_tasks(task_args, fn, jobs: int):
    """Run fn over task_args; output order fixed by input order, not workers."""
    if jobs < 1:
        raise InvalidArgument(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [fn(*args) for args in task_args]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda args: fn(*args), task_args))


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """OLS slope and stderr of log(statistic) against log(m)."""
    pts = [(m, s) for m, s in points if s > 0]
    if len(pts) < MIN_FIT_POINTS:
        raise InsufficientData(f"need >= {MIN_FIT_POINTS} positive points, got {len(pts)}")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    sigma2 = float(np.sum(resid**2) / max(n - 2, 1))
    return slope, math.sqrt(sigma2 / sxx)


def _sample_filtered_pair(spec: SetSpec, k0: float, rng):
    """Points x, y of the set whose difference passes the anti-sparsity
    filter, and their supports on a sparse ball (None on other sets)."""
    for _ in range(200):
        if isinstance(spec, SparseBall):
            (x, sx), (y, sy) = sparse_ball_point(spec, rng), sparse_ball_point(spec, rng)
        else:
            x, y, sx, sy = sample_point(spec, rng), sample_point(spec, rng), None, None
        if anti_sparse(x - y, k0):
            return x, y, sx, sy
    raise SetFilterError(f"no pair passed the k0={k0} anti-sparsity filter")


def _sparse_columns(xs: np.ndarray, supports: np.ndarray):
    """xs as a CSC array built from its columns' supports (one row of
    supports per column of xs), without scanning xs: the same indptr,
    indices and data as csc_array(xs). Each column's indices are sorted,
    since the sparse kernel sums in that order; explicit zeros are dropped;
    int32 supports give the int32 indices csc_array picks. scipy.sparse is
    imported here, so other runs do not pay for it."""
    from scipy.sparse import csc_array

    count, k = supports.shape
    rows = np.sort(supports, axis=1).ravel()
    batch = csc_array((xs[rows, np.repeat(np.arange(count), k)], rows,
                       np.arange(0, count * k + 1, k, dtype=rows.dtype)), shape=xs.shape)
    batch.eliminate_zeros()
    return batch


def _sweep(experiment: str, plan: TrialPlan, measure, slope_band, jobs: int) -> ExperimentResult:
    """Run one trial per (m, trial) task and aggregate the trials into rows,
    per-m fit points and the log-log fit.

    A trial splits its task seed into a map seed and a sample seed and calls
    measure(rng, blocks) with a Generator on the sample seed; blocks(count)
    yields the trial's map as row-block sub-maps sized for projecting count
    vectors. A statistic <= 0 is censored: it stays out of the fit points.
    A slope band on a grid too short to fit is a usage error, not a failed
    check.
    """
    if slope_band is not None and len(plan.m_grid) < MIN_FIT_POINTS:
        raise InvalidArgument(f"a slope band needs at least {MIN_FIT_POINTS} M values to fit, "
                              f"got {len(plan.m_grid)}")
    n = ambient_dim(plan.set_spec)

    def one(m_index: int, m: int, trial: int):
        ss = task_seed(plan.master_seed, m_index, trial)
        map_seed, sample_seed = ss.spawn(2)

        def blocks(count: int):
            return map_blocks(plan.ensemble, m, n, plan.delta, map_seed, block_rows(n, count))

        stat = measure(np.random.default_rng(sample_seed), blocks)
        return stat, stat <= 0, seed_fingerprint(ss)

    tasks = [(mi, m, t) for mi, m in enumerate(plan.m_grid) for t in range(plan.trials_per_m)]
    rows = [TrialRow(experiment, m, t, *res)
            for (_, m, t), res in zip(tasks, _run_tasks(tasks, one, jobs))]
    fit_points = []
    for m in plan.m_grid:
        vals = [r.statistic for r in rows if r.m == m and not r.censored]
        worst = float(np.max(vals)) if vals else math.nan
        if worst > 0:
            fit_points.append((m, worst))
    slope = stderr = None
    verdict = None
    try:
        slope, stderr = fit_loglog_slope(fit_points)
        if slope_band is not None:
            verdict = slope_band[0] <= slope <= slope_band[1]
    except InsufficientData:
        if slope_band is not None:
            verdict = False
    return ExperimentResult(rows=rows, fit_points=fit_points, slope=slope, slope_stderr=stderr,
                            verdict=verdict, censored_total=sum(r.censored for r in rows))


def quasi_isometry_sweep(plan: TrialPlan, slope_band: Optional[tuple[float, float]] = None,
                         jobs: int = 1) -> ExperimentResult:
    """Distortion decay of D against sqrt(2/pi) * distance over the m grid.

    Per (m, map trial): sample filtered pairs, record
    e(x, y) / (||x - y|| + delta) and take the max; the ensemble's
    kappa / sqrt(k0) allowance is subtracted from the per-m statistic. A
    positive allowance that censors every trial makes the plan vacuous, and
    raises InvalidArgument.
    """
    n = ambient_dim(plan.set_spec)
    allowance = plan.ensemble.kappa_sg / math.sqrt(max(plan.k0, 1.0))
    sparse = isinstance(plan.set_spec, SparseBall)

    def measure(rng, blocks) -> float:
        p = plan.pairs_per_m
        xs = np.empty((n, 2 * p))
        supports = np.empty((2 * p, plan.set_spec.k), dtype=np.int32) if sparse else None
        dists = np.empty(p)
        for j in range(p):
            x, y, sx, sy = _sample_filtered_pair(plan.set_spec, plan.k0, rng)
            xs[:, 2 * j] = x
            xs[:, 2 * j + 1] = y
            if sparse:
                supports[2 * j] = sx
                supports[2 * j + 1] = sy
            dists[j] = np.linalg.norm(x - y)
        # K nonzeros per column of a sparse ball: each block's Phi @ batch
        # runs over those alone. It sums in another order than the dense
        # product, so a code can move only where Phi x + xi is within an ulp
        # of a threshold.
        batch = _sparse_columns(xs, supports) if sparse else xs
        errs = np.abs(pair_distances(blocks(2 * p), batch) - SQRT_2_OVER_PI * dists)
        return float(np.max(errs / (dists + plan.delta))) - allowance

    res = _sweep("quasi-isometry", plan, measure, slope_band, jobs)
    if allowance > 0 and res.censored_total == len(res.rows):
        raise InvalidArgument(
            f"vacuous plan: the allowance kappa/sqrt(k0) = {allowance:.4g} censors every "
            "trial; lower kappa (--kappa estimated) or raise k0 (--k0)")
    return res


def _direction_for(spec: SetSpec, x: np.ndarray, k0: float, rng):
    """Unit direction u of a continuum set with x + r*u staying in the set
    for small r > 0 and u passing the anti-sparsity filter."""
    for _ in range(100):
        if isinstance(spec, SparseBall):
            support = np.flatnonzero(np.abs(x) > 1e-12)
            if len(support) == 0:
                support = rng.choice(spec.n, size=spec.k, replace=False)
            coeffs = rng.standard_normal(len(support))
            u = np.zeros(spec.n)
            u[support] = coeffs
        elif isinstance(spec, LowRankBall):
            mat = x.reshape(spec.n1, spec.n2)
            uu, _, _ = np.linalg.svd(mat, full_matrices=False)
            u = (uu[:, : spec.r] @ rng.standard_normal((spec.r, spec.n2))).ravel()
        else:
            u = rng.standard_normal(spec.n)
        if anti_sparse(u, k0):
            return u / np.linalg.norm(u)
    raise SetFilterError(f"no direction passed the k0={k0} anti-sparsity filter")


def _radial_cap(x: np.ndarray, u: np.ndarray, radius: float) -> float:
    """Largest r >= 0 with ||x + r u|| <= radius (u unit)."""
    xu = float(np.dot(x, u))
    disc = xu * xu + radius * radius - float(np.dot(x, x))
    if disc <= 0:
        return 0.0
    return -xu + math.sqrt(disc)


def _consistent_radii(z: np.ndarray, dz: np.ndarray, caps: np.ndarray,
                      delta: float) -> np.ndarray:
    """Per ray j, the supremum of r in [0, caps[j]] with
    Q(z[:, j] + r dz[:, j]) == Q(z[:, j]) for bin width delta.

    A code's cell is the intersection of the slabs k delta <= z < (k+1) delta
    that quantize_array brackets exactly, so it is convex: along a ray the
    code holds until the first wall ahead, (k+1) delta where a coordinate
    rises and k delta where it falls.
    """
    # in place: fewer temporaries of the (rows, rays) arrays
    k = quantize_array(z, delta)
    k += dz > 0  # index of the wall ahead
    gap = k * delta
    del k
    gap -= z
    moving = dz != 0
    np.divide(gap, dz, out=gap, where=moving)
    gap[~moving] = np.inf
    return np.minimum(caps, gap.min(axis=0))


def _ray_radii(blocks, anchors: np.ndarray, dirs: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """_consistent_radii of the rays anchors[:, j] + r dirs[:, j] under the
    map whose row-block sub-maps are blocks (a whole map is [qmap]), one
    block at a time: the cell is an intersection of per-row slabs, so each
    block's radii cap the next block's."""
    radii = caps
    for block in blocks:
        radii = _consistent_radii(block.project_many(anchors), block.phi @ dirs, radii,
                                  block.delta)
    return radii


def _max_filtered_distance(points: np.ndarray, k0: float) -> float:
    """Largest pairwise distance whose difference passes the k0 filter,
    comparing a chunk of points with all of them at a time: each chunk's
    (chunk, points, n) differences hold at most BLOCK_ENTRIES entries."""
    best = 0.0
    chunk = max(1, BLOCK_ENTRIES // points.size)
    for start in range(0, len(points), chunk):
        rows = points[start:start + chunk]
        diff = rows[:, None, :] - points[None, :, :]
        norms = np.linalg.norm(diff, axis=2)
        best = max(best, float(np.where(anti_sparse(diff, k0), norms, 0.0).max()))
    return best


def _shared_code_widths(blocks, points: np.ndarray, k0: float) -> np.ndarray:
    """Per group of points with one code under the map whose row-block
    sub-maps are blocks, the largest k0-filtered distance within the group.

    Each block refines an integer label per point: two points keep one label
    while their codes agree on every row so far. Once every point has a label
    of its own no later row can merge two groups, so the blocks left are not
    drawn and every width is 0.
    """
    label = np.zeros(len(points), dtype=np.int64)
    for block in blocks:
        _, label = np.unique(np.vstack([label, apply_many(block, points.T)]), axis=1,
                             return_inverse=True)
        if label.max() + 1 == len(points):
            return np.zeros(1)
    return np.array([_max_filtered_distance(points[label == g], k0)
                     for g in range(label.max() + 1)])


def consistency_width_sweep(plan: TrialPlan, slope_band: Optional[tuple[float, float]] = None,
                            jobs: int = 1) -> ExperimentResult:
    """Largest distance between vectors with identical codes, per m.

    Continuum sets: anchors plus admissible directions, each ray measured
    exactly to the edge of its anchor's quantizer cell or of the set;
    finite sets: the largest filtered distance among points sharing a code.
    A trial that sees no positive width is censored with statistic 0.
    """
    d = diameter(plan.set_spec)
    if d > 1.0 + 1e-9:
        raise InvalidArgument("consistency sweep requires the set inside the unit ball")
    n = ambient_dim(plan.set_spec)

    def measure(rng, blocks) -> float:
        if isinstance(plan.set_spec, FiniteSet):
            pts = plan.set_spec.points
            widths = _shared_code_widths(blocks(len(pts)), pts, plan.k0)
        else:
            p = plan.pairs_per_m
            anchors = np.empty((n, p))
            dirs = np.empty((n, p))
            caps = np.empty(p)
            for j in range(p):
                x = sample_point(plan.set_spec, rng)
                u = _direction_for(plan.set_spec, x, plan.k0, rng)
                anchors[:, j] = x
                dirs[:, j] = u
                caps[j] = _radial_cap(x, u, d)
            # dense even on a sparse ball: a radius is a float ratio of two
            # projections, so a sparse product would move it in the last digits
            widths = _ray_radii(blocks(p), anchors, dirs, caps)
        # max(0.0, ...) records a censored width as 0.0, never -0.0
        return max(0.0, float(np.max(widths)))

    return _sweep("consistency-width", plan, measure, slope_band, jobs)


# --- lemma-level Monte Carlo checks ---


def _sample_local_set(spec: SetSpec, eta: float, rng) -> np.ndarray:
    """A point of (K - K) inter eta B.

    Continuum kinds: a sampled difference radially shrunk to a uniform norm
    cap in [0, eta] (shrink only, so the point stays a difference); the draw
    is homogeneous in eta while the cap binds. Finite sets: rejection.
    """
    a = sample_point(spec, rng)
    b = sample_point(spec, rng)
    v = a - b
    cap = eta * rng.random()
    if isinstance(spec, FiniteSet):
        for _ in range(50):
            if np.linalg.norm(v) <= eta:
                return v
            a = sample_point(spec, rng)
            b = sample_point(spec, rng)
            v = a - b
        raise SetFilterError(f"no finite-set difference fits in the eta={eta} ball")
    norm = np.linalg.norm(v)
    if norm > cap and norm > 0:
        v = v * (cap / norm)
    return v


def lemma4_diameter_check(spec: SetSpec, eta: float, ensemble: Ensemble, m: int,
                          trials: int, seed, margin: float = 1.0) -> np.ndarray:
    """Projection stability of the local set (K - K) inter eta B: the
    per-trial pass flags.

    Per trial: fresh matrix, a sampled local-set point v, check
    ||Phi v|| <= sqrt(m) * eta. Points sitting exactly on the eta sphere fail
    about half the time by the CLT; the guarantee has slack only over the
    interior, so margin < 1 restricts sampling to (K - K) inter margin*eta B
    (still a subset of the local set) when a clean exponential pass rate is
    wanted.
    """
    if not (eta > 0):
        raise InvalidArgument("eta must be positive")
    if not (0 < margin <= 1):
        raise InvalidArgument("margin must lie in (0, 1]")
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    n = ambient_dim(spec)
    root = as_seedseq(seed)
    passed = np.empty(trials, dtype=bool)
    for i, sub in enumerate(root.spawn(trials)):
        rng = np.random.default_rng(sub)
        v = _sample_local_set(spec, margin * eta, rng)
        mat = sample_iid(ensemble, (m, n), rng)
        passed[i] = np.linalg.norm(mat @ v) <= math.sqrt(m) * eta * (1 + 1e-12)
    return passed


@dataclass(frozen=True)
class Lemma5Report:
    p_hat: float
    empirical: float
    chernoff_bound: float
    bound_vacuous: bool
    bound_holds: bool
    p_lower_bound: Optional[float]
    p_lower_holds: Optional[bool]
    p_lower_skipped_reason: Optional[str]


def lemma5_chernoff_check(u, v, k0: float, t: float, ensemble: Ensemble, delta: float, m: int,
                          r: int, trials: int, seed, p_samples: int = 100_000) -> Lemma5Report:
    """Tail bound P[D^t <= (delta/M) r] <= exp(-(Mp-r)^2 / (2Mp)) by Monte Carlo.

    p is the per-coordinate nonzero probability of the soft count, estimated
    on the rows of one map of p_samples rows; when sqrt(k0) >= 16 kappa the
    closed-form lower bound on p is also checked. The trials are the
    consecutive m-row slices of one map of trials * m rows, drawn in blocks
    of whole trials.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if t < 0:
        raise InvalidArgument("t must be nonnegative")
    if trials < 1 or p_samples < 1:
        raise InvalidArgument("trials and p_samples must be >= 1")
    w = u - v
    if not np.any(w):
        raise InvalidArgument("u and v must differ")
    if not anti_sparse(w, k0):
        raise InvalidArgument("u - v fails the anti-sparsity precondition")
    dist = float(np.linalg.norm(w))
    n = u.size
    uv = np.column_stack([u, v])
    s_p, s_trials = as_seedseq(seed).spawn(2)

    def soft_counts(qmap):
        z = qmap.project_many(uv)
        return soft_count_array(z[:, 0], z[:, 1], t, delta)

    # per-coordinate nonzero probability
    p_hat = float(np.mean(soft_counts(make_map(ensemble, p_samples, n, delta, s_p)) != 0))
    p_se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / p_samples)

    # full-map left probability
    rows = m * max(1, block_rows(n, 2) // m)
    hits = sum(int(np.count_nonzero(soft_counts(block).reshape(-1, m).sum(axis=1) <= r))
               for block in map_blocks(ensemble, trials * m, n, delta, s_trials, rows))
    emp = hits / trials
    emp_se = math.sqrt(max(emp * (1 - emp), 1e-12) / trials)

    mp = m * p_hat
    vacuous = r >= mp
    bound = 1.0 if vacuous else float(math.exp(-((mp - r) ** 2) / (2.0 * mp)))
    holds = emp <= bound + 3.0 * emp_se

    lb = lb_holds = reason = None
    if math.sqrt(max(k0, 0.0)) >= 16.0 * ensemble.kappa_sg:
        if p_hat == 0.0:
            reason = "p_hat is zero; lower bound not certifiable"
        else:
            lb = dist / (16.0 * (delta + dist)) - 2.0 * t / (delta + dist)
            lb_holds = p_hat + 3.0 * p_se >= lb
    else:
        reason = "sqrt(k0) < 16 kappa"
    return Lemma5Report(p_hat=p_hat, empirical=emp, chernoff_bound=bound,
                        bound_vacuous=vacuous, bound_holds=holds, p_lower_bound=lb,
                        p_lower_holds=lb_holds, p_lower_skipped_reason=reason)


# --- deterministic counterexamples and exact combinatorics ---


def no_dither_counterexample(k0: int, s: float, m: int, trials: int, seed) -> float:
    """Undithered rounding map collapsing two distinct sparse vectors: the
    share of trials, the m-row slices of one map, whose codes agree.

    u is all-ones on k0 coordinates and v = (1 + s/k0) u, so ||u - v|| =
    s / sqrt(k0); Bernoulli rows give integer projections, the relative shift
    stays below one half, so the rounded codes agree deterministically.
    """
    if k0 < 1:
        raise InvalidArgument("k0 must be >= 1")
    if not (0.0 < s < 0.5):
        raise InvalidArgument("s must lie in (0, 1/2)")
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    u = np.ones(k0)
    v = (1.0 + s / k0) * u
    bern = make_ensemble("rademacher")
    passes = 0
    for qmap in map_blocks(bern, trials * m, k0, 1.0, seed, m, dithered=False, variant="round"):
        codes = apply_many(qmap, np.column_stack([u, v]))
        passes += np.array_equal(codes[:, 0], codes[:, 1])
    return passes / trials


@dataclass(frozen=True)
class BinomialMadReport:
    n: int
    mad: float
    sigma: float
    gap: float     # sqrt(2/pi) sigma - mad
    bound: float   # (1/7) sigma / n
    gap_ok: bool
    distortion_lhs: float  # |E D - sqrt(2/pi)||w|| | for w = ones(n), delta = 1
    distortion_rhs: float  # (1/7) ||w|| / n
    distortion_ok: bool


def bernoulli_floor_distortion(k0_even: int) -> BinomialMadReport:
    """Exact binomial-MAD gap and its distortion consequence for flat vectors.

    The deviation of the binomial MAD from sqrt(2/pi) times its standard
    deviation is at least sigma/(7n) for even n, which forces a residual
    relative distortion of at least ||w||/(7 n) on w = ones(n).
    """
    if k0_even < 2 or k0_even % 2 != 0:
        raise InvalidArgument("k0 must be even and >= 2")
    n = k0_even
    mad = binomial_mad(n)
    sigma = math.sqrt(n) / 2.0
    gap = SQRT_2_OVER_PI * sigma - float(mad)
    bound = MAD_GAP_CONST * sigma / n
    w_norm = math.sqrt(n)
    lhs = abs(mu_sg_exact_binomial(n) - SQRT_2_OVER_PI * w_norm)
    rhs = MAD_GAP_CONST * w_norm / n
    return BinomialMadReport(n=n, mad=float(mad), sigma=sigma, gap=gap, bound=bound,
                             gap_ok=gap >= bound, distortion_lhs=lhs, distortion_rhs=rhs,
                             distortion_ok=lhs >= rhs)


def de_moivre_agreement(n_even: int) -> float:
    """|enumerated MAD - De Moivre MAD| for even n (exact rationals)."""
    return abs(float(binomial_mad(n_even) - binomial_mad_de_moivre(n_even)))


def stirling_gosper_check(n_max: int) -> np.ndarray:
    """Per-n booleans for the factorial sandwich

      n^n e^-n sqrt(2 pi (n + 1/6)) <= n! <= n^n e^-n sqrt(2 pi (n + 1/5))

    checked in log space. The lower margin shrinks like 1/n^2, far below
    double precision at n ~ 1e4, so the running log-factorial and the bounds
    are evaluated in high-precision arithmetic.
    """
    if n_max < 1:
        raise InvalidArgument("n_max must be >= 1")
    import mpmath as mp

    ok = np.zeros(n_max, dtype=bool)
    with mp.workdps(40):
        log_fact = mp.mpf(0)
        two_pi = 2 * mp.pi
        for n in range(1, n_max + 1):
            log_fact += mp.log(n)
            base = n * mp.log(n) - n
            lower = base + mp.log(two_pi * (n + mp.mpf(1) / 6)) / 2
            upper = base + mp.log(two_pi * (n + mp.mpf(1) / 5)) / 2
            ok[n - 1] = bool(lower <= log_fact <= upper)
    return ok


def section2_bernoulli_floor(m: int, trials: int, seed) -> bool:
    """Whether D(e1, 0) = 1 exactly in every trial (an m-row slice of one
    map) for Bernoulli rows at delta = 1, dithered floor, where Gaussian rows
    make D concentrate near sqrt(2/pi) instead."""
    if m < 1:
        raise InvalidArgument("m must be >= 1")
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    bern = make_ensemble("rademacher")
    n = 2
    pair = np.array([[1.0, 0.0], [0.0, 0.0]])  # columns e1 and 0
    return all(pair_distances([qmap], pair)[0] == 1.0
               for qmap in map_blocks(bern, trials * m, n, 1.0, seed, m))


# --- CSV emission (RFC 4180, header row mandatory) ---

ROW_HEADER = ("experiment", "m", "trial", "statistic", "censored", "seed")
SUMMARY_HEADER = ("experiment", "slope", "stderr", "verdict")


def rows_to_csv(rows: Sequence[TrialRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(ROW_HEADER)
    for r in rows:
        w.writerow([r.experiment, r.m, r.trial, repr(r.statistic), int(r.censored), r.seed])
    return buf.getvalue()


def summary_to_csv(entries) -> str:
    """entries: iterable of (experiment, slope|None, stderr|None, verdict)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(SUMMARY_HEADER)
    for name, slope, stderr, verdict in entries:
        w.writerow([name,
                    "" if slope is None else repr(slope),
                    "" if stderr is None else repr(stderr),
                    {True: "pass", False: "fail", None: "info"}[verdict]])
    return buf.getvalue()


def gnuplot_data(result: ExperimentResult) -> str:
    """Two columns, log10(m) and log10(worst statistic), one line per fit point."""
    return "".join(f"{math.log10(m):.12g} {math.log10(worst):.12g}\n"
                   for m, worst in result.fit_points) or "\n"
