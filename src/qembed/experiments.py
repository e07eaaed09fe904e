"""Monte Carlo experiment harness: distortion decay sweeps, consistency
width sweeps, concentration checks (Lemma 5's on the exact law of a
Gaussian row's count), deterministic counterexamples, the exact binomial
combinatorics, and the float64 Stirling check with its stated error budget.

Every trial consumes a seed derived from (master_seed, m-index, trial), so
results are bit-identical regardless of worker count.
"""

from __future__ import annotations

import io
import csv
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .ensembles import (
    SQRT_2_OVER_PI,
    Ensemble,
    InvalidArgument,
    as_seedseq,
    binomial_mad,
    block_rows,
    gaussian_count_error,
    gaussian_count_tails,
    make_ensemble,
    mu_sg_exact_binomial,
    sample_matrix,
)
from .distances import map_counts, pair_counts
from .geometry import (
    FiniteSet,
    LowRankBall,
    SetSpec,
    SparseBall,
    ambient_dim,
    anti_sparse,
    diameter,
    sample_point,
    sparse_ball_slots,
)
from .quantizer import SparseColumns, apply_many, map_blocks, product, quantize_array

MAD_GAP_CONST = 1.0 / 7.0
MIN_FIT_POINTS = 3  # the log-log fit's slope and stderr need one residual degree of freedom
# a sweep's pairs and rays are drawn until they pass the k0 filter
# (_first_passing); it runs only where the filter passes at least 1 in
# MAX_FILTER_DRAWS draws, a share that is exact where it is known and else
# estimated from RATE_DRAWS draws. A low-rank ray's share depends on its
# anchor, and some anchors pass no direction, so each pair or ray gives up
# after MAX_DRAWS draws: one whose own share is 1 in MAX_FILTER_DRAWS reaches
# it with probability about e^-100
MAX_FILTER_DRAWS = 1000
RATE_DRAWS = 4000
MAX_DRAWS = 100 * MAX_FILTER_DRAWS


class SetFilterError(InvalidArgument):
    """The anti-sparsity filter passes too few of a plan's pairs or rays."""


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
    fit_points: list[tuple[int, float]]  # (m, worst uncensored statistic) where there is one
    slope: Optional[float]
    slope_stderr: Optional[float]
    verdict: Optional[bool]
    censored_total: int


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> Optional[tuple[float, float]]:
    """OLS slope and stderr of log(statistic) against log(m), or None with
    fewer than MIN_FIT_POINTS positive points."""
    pts = [(m, s) for m, s in points if s > 0]
    if len(pts) < MIN_FIT_POINTS:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    sigma2 = float(np.sum(resid**2) / (n - 2))
    return slope, math.sqrt(sigma2 / sxx)


def _draw(spec: SetSpec, rng):
    """A point of the set as a sweep draws it: on a sparse ball its slots
    (support, values) from sparse_ball_slots, elsewhere sample_point's."""
    return (sparse_ball_slots if isinstance(spec, SparseBall) else sample_point)(spec, rng)


def _pair_draw(spec: SetSpec, k0: float, rng):
    """Points x, y of the set (see _draw) and the norm of their difference,
    or None where the difference fails the anti-sparsity filter. On a sparse
    ball the dense difference is built from the slots with the bits of
    subtracting the dense points; its norm is np.linalg.norm's formula
    sqrt(d . d)."""
    x, y = _draw(spec, rng), _draw(spec, rng)
    if isinstance(spec, SparseBall):
        d = np.zeros(spec.n)
        d[x[0]] = x[1]
        d[y[0]] -= y[1]
    else:
        d = x - y
    return (x, y, math.sqrt(d.dot(d))) if anti_sparse(d, k0) else None


def _first_passing(draw, what: str, k0: float):
    """The first true result of draw(), which draws a pair or a direction
    and gives a false one where the k0 filter rejects it (decay_sweeps has
    checked that the filter passes such draws), or SetFilterError after
    MAX_DRAWS rejected draws."""
    for _ in range(MAX_DRAWS):
        if got := draw():
            return got
    raise SetFilterError(f"no {what} passed the k0={k0:g} anti-sparsity filter in {MAX_DRAWS} "
                         "draws; lower k0 (--k0)")


def _columns(spec: SetSpec, points):
    """The batch a fold projects, its drawn points (see _draw) as columns: on
    a sparse ball SparseColumns of their slots, with no dense point, and the
    dense points in C order on other sets (a dense product's bits depend on
    its layout: ROADMAP item 8). Each block's Phi @ batch then runs over the
    K slots of a column alone, in scipy's order (see SparseColumns), not the
    dense product's: a code can move only where Phi x + xi is within an ulp
    of a threshold."""
    if not isinstance(spec, SparseBall):
        return np.column_stack(points)
    supports, values = map(np.array, zip(*points))
    return SparseColumns(supports.T, values.T, spec.n)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or os.cpu_count()
    where the platform keeps none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drawn_ahead(blocks, helpers: ThreadPoolExecutor):
    """The blocks in order, each drawn on a helper thread while the caller
    folds the one before it; the first is submitted before this returns, so
    it is drawn while the caller prepares its folds. A draw is submitted only
    once the one before it has returned, so one thread at a time advances
    blocks and every block keeps its bits."""
    drawn = helpers.submit(next, blocks, None)

    def handed():
        nonlocal drawn
        while (block := drawn.result()) is not None:
            drawn = helpers.submit(next, blocks, None)
            yield block

    return handed()


class _Statistic(NamedTuple):
    """A decay statistic of _sweep. start(plan, rng, work) draws a trial's
    pairs or rays from rng and returns their fold, which may lend its arrays
    from the workspace work (quantizer.lend); projects(plan) gives, from the
    plan alone, the columns that fold projects and whether it may stop, and
    start takes both from it."""

    start: Callable
    projects: Callable


def _sweep(plan: TrialPlan, statistics, jobs: int) -> dict[str, ExperimentResult]:
    """Each statistic's result, by experiment, from one trial per (m, trial)
    task: rows, per-m fit points and the log-log fit.

    statistics are (experiment, _Statistic, slope band) triples. A trial
    splits its seed into a map seed and a sample seed. Each start draws pairs
    or rays from a Generator of its own on the sample seed and returns a fold
    over the map's row blocks: fold.step(block) folds in one sub-map and
    returns False once no later block can change the statistic (never,
    unless projects says the fold may stop), and fold.finish() gives it. The
    map is drawn once, in blocks of block_rows(n, the most columns) rows,
    until no fold can change. A statistic <= 0 is censored: it stays out of
    the fit points. A slope band on a grid too short to fit is a usage error.

    jobs trials run at once, each worker with one workspace that its trials'
    folds reuse. When no fold may stop and the CPUs number at least twice the
    workers, a helper thread draws each trial's next block while the trial
    folds the current one, and its first block while the folds draw their
    pairs or rays (_drawn_ahead), so a sweep may hold two blocks of Phi per
    worker. Neither changes an output; every helper is joined before the
    sweep returns or raises.
    """
    if any(band is not None for *_, band in statistics) and len(plan.m_grid) < MIN_FIT_POINTS:
        raise InvalidArgument(f"a slope band needs at least {MIN_FIT_POINTS} M values to fit, "
                              f"got {len(plan.m_grid)}")
    n = ambient_dim(plan.set_spec)
    columns, stops = zip(*(stat.projects(plan) for _, stat, _ in statistics))
    rows = block_rows(n, max(columns))
    workspaces = threading.local()  # one per worker thread, for this sweep alone

    def one(m_index: int, m: int, trial: int):
        ss = np.random.SeedSequence(plan.master_seed, spawn_key=(m_index, trial))
        map_seed, sample_seed = ss.spawn(2)
        blocks = map_blocks(plan.ensemble, m, n, plan.delta, map_seed, rows)
        if draw_ahead:
            blocks = _drawn_ahead(blocks, helpers)
        if not hasattr(workspaces, "work"):
            workspaces.work = {}
        folds = [stat.start(plan, np.random.default_rng(sample_seed), workspaces.work)
                 for _, stat, _ in statistics]
        changing = folds
        for block in blocks:
            changing = [fold for fold in changing if fold.step(block)]
            if not changing:
                break
        return [fold.finish() for fold in folds], int(ss.generate_state(1, np.uint64)[0])

    if jobs < 1:
        raise InvalidArgument(f"jobs must be >= 1, got {jobs}")
    tasks = [(mi, m, t) for mi, m in enumerate(plan.m_grid) for t in range(plan.trials_per_m)]
    workers = max(1, min(jobs, len(tasks)))
    # drawing ahead pays only on an idle CPU: on busy ones it slows the folds
    draw_ahead = 2 * workers <= _cpus() and not any(stops)
    with ThreadPoolExecutor(max_workers=workers) as helpers:
        if jobs == 1:  # in line: on a one-thread pool qi-sparse peaked 1.5 MB higher, no faster
            trials = [one(*task) for task in tasks]
        else:  # pool.map keeps the order of the tasks, whatever the workers
            with ThreadPoolExecutor(max_workers=workers) as pool:
                trials = list(pool.map(lambda task: one(*task), tasks))
    results = {}
    for i, (experiment, _, slope_band) in enumerate(statistics):
        rows = [TrialRow(experiment, m, t, stats[i], stats[i] <= 0, fingerprint)
                for (_, m, t), (stats, fingerprint) in zip(tasks, trials)]
        fit_points = [(m, float(np.max(vals))) for m in plan.m_grid
                      if (vals := [r.statistic for r in rows if r.m == m and not r.censored])]
        slope, stderr = fit_loglog_slope(fit_points) or (None, None)
        verdict = None if slope_band is None else (
            slope is not None and slope_band[0] <= slope <= slope_band[1])
        results[experiment] = ExperimentResult(rows=rows, fit_points=fit_points, slope=slope,
                                               slope_stderr=stderr, verdict=verdict,
                                               censored_total=sum(r.censored for r in rows))
    return results


def _allowance(plan: TrialPlan) -> float:
    """The ensemble's kappa / sqrt(k0) allowance, subtracted from the distortion."""
    return plan.ensemble.kappa_sg / math.sqrt(max(plan.k0, 1.0))


def _distortion_projects(plan: TrialPlan) -> tuple[int, bool]:
    """The points x, y of each of pairs_per_m pairs; every row counts."""
    return 2 * plan.pairs_per_m, False


class _Distortion:
    """The distortion statistic's fold: on pairs_per_m filtered pairs, each
    pair's code difference summed over the rows so far (pair_counts, with its
    arrays lent by work), then the largest
    |D - sqrt(2/pi) ||x - y||| / (||x - y|| + delta), less the allowance."""

    def __init__(self, plan: TrialPlan, rng, work: Optional[dict] = None):
        columns, _ = _distortion_projects(plan)
        draw = partial(_pair_draw, plan.set_spec, plan.k0, rng)
        pairs = [_first_passing(draw, "pair", plan.k0) for _ in range(columns // 2)]
        self.dists = np.array([dist for *_, dist in pairs])
        self.batch = _columns(plan.set_spec, [p for x, y, _ in pairs for p in (x, y)])
        self.delta, self.allowance, self.work = plan.delta, _allowance(plan), work
        self.counts = self.m = 0

    def step(self, block) -> bool:
        self.counts = self.counts + pair_counts(block, self.batch, work=self.work).sum(axis=0)
        self.m += block.m
        return True

    def finish(self) -> float:
        errs = np.abs(self.delta * self.counts / self.m - SQRT_2_OVER_PI * self.dists)
        return float(np.max(errs / (self.dists + self.delta))) - self.allowance


def _direction_basis(spec: SetSpec, x):
    """What every direction draw for the drawn anchor x (see _draw) reads: on
    a sparse ball x's support in sorted order, on a low-rank ball the first r
    left singular vectors of x as a matrix."""
    if isinstance(spec, SparseBall):
        return np.sort(x[0])
    if isinstance(spec, LowRankBall):
        uu, _, _ = np.linalg.svd(x.reshape(spec.n1, spec.n2), full_matrices=False)
        return uu[:, : spec.r]
    return None


def _direction_draw(spec: SetSpec, basis, k0: float, rng, u: np.ndarray):
    """Writes into u (zeros on a sparse ball) one draw of a direction with
    x + r*u in the set for small r > 0, not yet of unit norm, from x's
    _direction_basis, and returns whether it passes the anti-sparsity filter."""
    if isinstance(spec, SparseBall):
        u[basis] = rng.standard_normal(spec.k)
    elif isinstance(spec, LowRankBall):
        u[:] = (basis @ rng.standard_normal((spec.r, spec.n2))).ravel()
    else:
        rng.standard_normal(out=u)
    return anti_sparse(u, k0)


def _radial_caps(xs: np.ndarray, us: np.ndarray, radius: float) -> np.ndarray:
    """Per row j, the largest r >= 0 with ||xs[j] + r us[j]|| <= radius, then
    with ||xs[j] - r us[j]|| <= radius (us unit rows): shape (2, rows)."""
    xu = np.vecdot(xs, us)
    disc = xu * xu + radius * radius - np.vecdot(xs, xs)
    root = np.sqrt(np.maximum(disc, 0.0))
    return np.where(disc > 0, [root - xu, root + xu], 0.0)


def _chord_radii(z: np.ndarray, dz: np.ndarray, caps: np.ndarray, delta: float) -> np.ndarray:
    """Per ray j, how far the code Q(z[:, j]) holds ahead and behind: the
    suprema of r in [0, caps[0, j]] with Q(z[:, j] + r dz[:, j]) == Q(z[:, j])
    and of r in [0, caps[1, j]] with Q(z[:, j] - r dz[:, j]) == Q(z[:, j]),
    for bin width delta, shape (2, rays).

    A code's cell is the intersection of the slabs k delta <= z < (k+1) delta
    that quantize_array brackets exactly, so it is convex: along a line the
    code holds between the nearest wall ahead, (k+1) delta where a coordinate
    rises and k delta where it falls, and the nearest wall behind, the other
    wall of each slab. Rows with dz = 0 bound neither end.
    """
    k = quantize_array(z, delta)
    rising, falling = dz > 0, dz < 0
    moving = rising | falling
    still = ~moving
    reach = np.empty_like(caps)
    r = np.empty(z.shape)  # one buffer for both ends: fewer (rows, rays) temporaries
    for end, upper in enumerate((rising, falling)):  # the wall ahead, then the wall behind
        np.add(k, upper, out=r)
        r *= delta
        r -= z
        np.divide(r, dz, out=r, where=moving)  # where the line through z meets the wall
        if end == 0:
            r[still] = np.inf
            reach[0] = r.min(axis=0)
        else:
            r[still] = -np.inf
            reach[1] = -r.max(axis=0)
    return np.minimum(caps, reach)


class _Rays:
    """The consistency width of the chords anchors[:, j] + r dirs[:, j],
    -caps[1, j] <= r <= caps[0, j], as a fold: a cell is an intersection of
    per-row slabs, so each block's _chord_radii cap the next block's; the
    width is the longest chord, r ahead + r behind. The anchors are projected
    with the dither and the directions without it."""

    def __init__(self, anchors, dirs, caps: np.ndarray):
        self.anchors, self.dirs, self.radii = anchors, dirs, caps

    def step(self, block) -> bool:
        self.radii = _chord_radii(block.project_many(self.anchors), product(block.phi, self.dirs),
                                  self.radii, block.delta)
        return True

    def finish(self) -> float:
        # max(0.0, ...) records a censored width as 0.0, never -0.0
        return max(0.0, float(np.max(self.radii.sum(axis=0))))


def _max_filtered_distance(points: np.ndarray, k0: float) -> float:
    """Largest pairwise distance whose difference passes the k0 filter,
    comparing a chunk of points with all of them at a time: each chunk's
    (chunk, points, n) differences hold at most BLOCK_ENTRIES entries."""
    best = 0.0
    chunk = block_rows(points.size, 1)
    for start in range(0, len(points), chunk):
        rows = points[start:start + chunk]
        diff = rows[:, None, :] - points[None, :, :]
        norms = np.linalg.norm(diff, axis=2)
        best = max(best, float(np.where(anti_sparse(diff, k0), norms, 0.0).max()))
    return best


class _SharedCodes:
    """The consistency width of a finite set as a fold: each block refines a
    label per point, two points keeping one while their codes agree on every
    row so far. Once every point is alone no later row can merge two, so the
    fold stops at width 0; else the width is the largest k0-filtered distance
    within a group."""

    def __init__(self, points: np.ndarray, k0: float):
        self.points, self.k0 = points, k0
        self.label = np.zeros(len(points), dtype=np.int64)

    def step(self, block) -> bool:
        _, self.label = np.unique(np.vstack([self.label, apply_many(block, self.points.T)]),
                                  axis=1, return_inverse=True)
        return self.label.max() + 1 < len(self.points)

    def finish(self) -> float:
        groups = self.label.max() + 1
        if groups == len(self.points):
            return 0.0
        return max(0.0, *(_max_filtered_distance(self.points[self.label == g], self.k0)
                          for g in range(groups)))


def _width_projects(plan: TrialPlan) -> tuple[int, bool]:
    """A finite set's points, which its fold may stop refining, or the
    pairs_per_m rays."""
    if isinstance(plan.set_spec, FiniteSet):
        return len(plan.set_spec.points), True
    return plan.pairs_per_m, False


def _consistency_width(plan: TrialPlan, rng, work: Optional[dict] = None):
    """The consistency width statistic's fold, which lends no arrays from
    work: _SharedCodes of a finite set's points, or _Rays of drawn anchors
    and admissible directions. Their dense rows feed the formulas that read
    all N entries, the direction norms and _radial_caps; on a sparse ball
    the batches are built from the anchors' slots and the directions'
    entries on the same supports."""
    columns, refines = _width_projects(plan)
    if refines:
        return _SharedCodes(plan.set_spec.points, plan.k0)
    spec, n = plan.set_spec, ambient_dim(plan.set_spec)
    sparse = isinstance(spec, SparseBall)
    anchors, dirs, points = np.zeros((columns, n)), np.zeros((columns, n)), []
    for x, u in zip(anchors, dirs):  # one ray at a time: the draws keep their order
        point = _draw(spec, rng)
        if sparse:
            x[point[0]] = point[1]
        else:
            x[:] = point
        basis = _direction_basis(spec, point)
        _first_passing(partial(_direction_draw, spec, basis, plan.k0, rng, u), "direction", plan.k0)
        points.append(point)
    dirs /= np.sqrt(np.vecdot(dirs, dirs))[:, None]
    directions = [(s, u[s]) for (s, _), u in zip(points, dirs)] if sparse else dirs
    return _Rays(_columns(spec, points), _columns(spec, directions),
                 _radial_caps(anchors, dirs, diameter(spec)))


# the decay sweeps by experiment name
STATISTICS = {
    "quasi-isometry": _Statistic(_Distortion, _distortion_projects),
    "consistency-width": _Statistic(_consistency_width, _width_projects),
}


def _check_filter(plan: TrialPlan, what: str, passes) -> None:
    """SetFilterError unless the k0 filter passes at least 1 in
    MAX_FILTER_DRAWS of the plan's `what` draws, so that each can be drawn
    until it passes. At k0 <= 1 every nonzero vector passes: the share is 1
    off a finite set, where a draw is nonzero almost surely, and for a
    finite set's pairs the share of ordered pairs of unequal points. Above
    k0 = 1 it is the share of RATE_DRAWS calls passes(rng) that return True,
    on a seed of the plan's own."""
    spec = plan.set_spec
    if plan.k0 > 1.0:
        # a one-word spawn key: no trial's (m index, trial) key
        rng = np.random.default_rng(np.random.SeedSequence(plan.master_seed, spawn_key=(0,)))
        rate = sum(passes(rng) for _ in range(RATE_DRAWS)) / RATE_DRAWS
    elif isinstance(spec, FiniteSet):
        _, counts = np.unique(spec.points, axis=0, return_counts=True)
        rate = 1.0 - float(np.sum((counts / len(spec.points)) ** 2))
    else:
        return
    if rate * MAX_FILTER_DRAWS < 1.0:
        raise SetFilterError(
            f"the k0={plan.k0:g} anti-sparsity filter passes {rate:.3g} of the {what} draws, "
            f"fewer than 1 in {MAX_FILTER_DRAWS}; lower k0 (--k0)")


def decay_sweeps(plan: TrialPlan, slope_bands: dict, jobs: int = 1) -> dict[str, ExperimentResult]:
    """The sweeps named by slope_bands, each against its band (None: no verdict),
    from one draw of each trial's map (see _sweep). A positive allowance that
    censors every distortion trial makes the plan vacuous: InvalidArgument,
    and one whose pairs or directions the k0 filter passes too rarely
    SetFilterError, before any trial runs (_check_filter)."""
    spec, n = plan.set_spec, ambient_dim(plan.set_spec)
    if "consistency-width" in slope_bands and diameter(spec) > 1.0 + 1e-9:
        raise InvalidArgument("consistency sweep requires the set inside the unit ball")
    if "quasi-isometry" in slope_bands:
        _check_filter(plan, "pair", lambda rng: _pair_draw(spec, plan.k0, rng) is not None)
    if "consistency-width" in slope_bands and not isinstance(spec, FiniteSet):
        def passes(rng):  # each direction drawn for an anchor of its own
            basis = _direction_basis(spec, _draw(spec, rng))
            return _direction_draw(spec, basis, plan.k0, rng, np.zeros(n))

        _check_filter(plan, "direction", passes)
    results = _sweep(plan, [(name, STATISTICS[name], band) for name, band in slope_bands.items()],
                     jobs)
    qi = results.get("quasi-isometry")
    if qi is not None and _allowance(plan) > 0 and qi.censored_total == len(qi.rows):
        raise InvalidArgument(
            f"vacuous plan: the allowance kappa/sqrt(k0) = {_allowance(plan):.4g} censors every "
            "trial; lower kappa (--kappa estimated) or raise k0 (--k0)")
    return results


def quasi_isometry_sweep(plan: TrialPlan, slope_band: Optional[tuple[float, float]] = None,
                         jobs: int = 1) -> ExperimentResult:
    """Distortion decay over the m grid: decay_sweeps with _Distortion alone."""
    return decay_sweeps(plan, {"quasi-isometry": slope_band}, jobs)["quasi-isometry"]


def consistency_width_sweep(plan: TrialPlan, slope_band: Optional[tuple[float, float]] = None,
                            jobs: int = 1) -> ExperimentResult:
    """Consistency width decay over the m grid: decay_sweeps with its statistic alone."""
    return decay_sweeps(plan, {"consistency-width": slope_band}, jobs)["consistency-width"]


# --- lemma-level Monte Carlo checks ---


def _sample_local_set(spec: SetSpec, eta: float, rng) -> np.ndarray:
    """A point of (K - K) inter eta B of a set that is no FiniteSet: a
    sampled difference radially shrunk to a uniform norm cap in [0, eta]
    (shrink only, so the point stays a difference); the draw is homogeneous
    in eta while the cap binds."""
    v = sample_point(spec, rng) - sample_point(spec, rng)
    cap = eta * rng.random()
    norm = np.linalg.norm(v)
    if norm > cap and norm > 0:
        v = v * (cap / norm)
    return v


def lemma4_diameter_check(spec: SetSpec, eta: float, ensemble: Ensemble, m: int,
                          trials: int, seed) -> np.ndarray:
    """Projection stability of the local set (K - K) inter eta B: the
    per-trial pass flags.

    Per trial: fresh matrix, a sampled point v of (K - K) inter (eta/2) B,
    check ||Phi v|| <= sqrt(m) * eta. Points sitting exactly on the eta
    sphere fail about half the time by the CLT; the guarantee has slack only
    over the interior, so sampling within half of eta (still a subset of the
    local set) gives a clean exponential pass rate. A finite set is refused:
    a shrunk difference of its points is no difference of them.
    """
    if isinstance(spec, FiniteSet):
        raise InvalidArgument("Lemma 4 samples a continuum set, not a finite one")
    if not (eta > 0):
        raise InvalidArgument("eta must be positive")
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    n = ambient_dim(spec)
    root = as_seedseq(seed)
    passed = np.empty(trials, dtype=bool)
    for i, sub in enumerate(root.spawn(trials)):
        rng = np.random.default_rng(sub)
        v = _sample_local_set(spec, 0.5 * eta, rng)
        [mat] = sample_matrix(ensemble, m, n, rng)
        passed[i] = np.linalg.norm(mat @ v) <= math.sqrt(m) * eta * (1 + 1e-12)
    return passed


@dataclass(frozen=True)
class Lemma5Report:
    p: float
    tail: float
    budget: float
    empirical: float
    agreement_p: float
    chernoff_bound: float
    bound_vacuous: bool
    bound_holds: bool
    p_lower_bound: float
    p_lower_holds: bool


def _binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value min(1, 2 min(P[X <= k], P[X >= k])) of k
    successes for X ~ Bin(n, p): rejecting at p-value <= alpha has a
    false-alarm rate of at most alpha. The nearer tail is summed in log space
    (math.lgamma), so no scipy module is loaded."""
    if not 0.0 < p < 1.0:
        return float(k == n * p)  # X is 0 or n surely
    below = k <= n * p
    log_pmf = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
               + j * math.log(p) + (n - j) * math.log1p(-p)
               for j in (range(k + 1) if below else range(k, n + 1))]
    near = math.fsum(map(math.exp, log_pmf))
    at_k = math.exp(log_pmf[-1] if below else log_pmf[0])
    return min(1.0, 2.0 * min(near, 1.0 - near + at_k))


def lemma5_chernoff_check(u, v, t: float, delta: float, m: int, r: int, trials: int,
                          seed) -> Lemma5Report:
    """Tail bound P[D^t <= (delta/M) r] <= exp(-(Mp-r)^2 / (2Mp)) on the exact
    law of a Gaussian map's count, where p is the chance that one row's soft
    count is nonzero.

    p and the tail P[sum of the m rows' counts <= r] come from
    gaussian_count_tails: the pmf's first r + 1 entries convolved m times, by
    squaring (at most 2 bit_length(m) convolutions). The bound holds when
    tail + budget <= bound, budget = 4 m (r + 2) (E + eps), with
    E = gaussian_count_error(dist, delta) the law's error per tail. To first
    order in eps, the pmf's error moves the tail by at most
    m (r + 1) (2E + eps), the convolutions' rounding by
    (bit_length(m) + 1) (r + 1) eps <= 2 m (r + 1) eps, and the bound,
    evaluated at the float p, moves by at most m (E + eps) / 2 + 2 eps; the
    factor 4 leaves room for the higher orders.
    The closed-form lower bound on p, which holds where sqrt(k0) >= 16 kappa,
    so for every k0 at a Gaussian's kappa = 0, is checked against p + E.

    `trials` fresh m-row Gaussian maps of the package's own path (map_counts)
    give the empirical tail, and agreement_p is the exact two-sided binomial
    p-value of their count of tail events against the exact tail.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if t < 0:
        raise InvalidArgument("t must be nonnegative")
    if trials < 1 or m < 1 or r < 0:
        raise InvalidArgument("need trials >= 1, m >= 1 and r >= 0")
    w = u - v
    if not np.any(w):
        raise InvalidArgument("u and v must differ")
    dist = float(np.linalg.norm(w))
    eps = np.finfo(float).eps
    err = gaussian_count_error(dist, delta)

    tails = gaussian_count_tails(dist, delta, t, r + 1)
    p = float(tails[1])
    pmf, law = -np.diff(tails), np.array([1.0])
    for bit in bin(m)[:1:-1]:  # m's bits, lowest first
        if bit == "1":
            law = np.convolve(law, pmf)[: r + 1]
        pmf = np.convolve(pmf, pmf)[: r + 1]
    tail = float(law.sum())
    budget = 4.0 * m * (r + 2) * (err + eps)

    counts = map_counts(make_ensemble("gaussian"), trials, m, u.size, delta, seed,
                        np.column_stack([u, v]), t)
    hits = int(np.count_nonzero(counts <= r))

    mp = m * p
    vacuous = r >= mp
    bound = 1.0 if vacuous else float(math.exp(-((mp - r) ** 2) / (2.0 * mp)))
    lb = dist / (16.0 * (delta + dist)) - 2.0 * t / (delta + dist)
    return Lemma5Report(p=p, tail=tail, budget=budget, empirical=hits / trials,
                        agreement_p=_binomial_two_sided_p(hits, trials, tail),
                        chernoff_bound=bound, bound_vacuous=vacuous,
                        bound_holds=tail + budget <= bound, p_lower_bound=lb,
                        p_lower_holds=p + err >= lb)


# --- deterministic counterexamples and exact combinatorics ---


def no_dither_counterexample(k0: int, s: float, m: int, trials: int, seed) -> float:
    """Undithered rounding map collapsing two distinct sparse vectors: the
    share of trials, each a fresh m-row map, whose codes agree.

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
    counts = map_counts(make_ensemble("rademacher"), trials, m, k0, 1.0, seed,
                        np.column_stack([u, v]), dithered=False, variant="round")
    return int(np.count_nonzero(counts == 0)) / trials


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


def stirling_gosper_margins(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 log margins (lower, upper) of the factorial sandwich
    n^n e^-n sqrt(2 pi (n + 1/6)) <= n! <= n^n e^-n sqrt(2 pi (n + 1/5)),
    2 L_n - ln(n + 1/6) and ln(n + 1/5) - 2 L_n with L_n = ln n! - n ln n + n
    - ln(2 pi)/2, for n = 1..n_max, and the budget 16 n eps (eps = 2^-52)
    that bounds their error. L_n sums L_1 and the increments 1 - x,
    x = k log1p(1/k) in [ln 2, 1). 1 - x is exact (Sterbenz); x is off by at
    most 2 eps (1/k and the product round by eps/2, log1p is within 1 ulp,
    and x < 1). Each partial sum, below 8 for n < 8e6, rounds by at most half
    its ulp, 2 eps, so 2 L_n is off by at most 8 n eps. Each log, below 16,
    is off by at most 8.5 eps, and the last subtraction is exact, so a margin
    is off by less than 16 n eps (n >= 2; at n = 1 every term is below 1).
    """
    if n_max < 1:
        raise InvalidArgument("n_max must be >= 1")
    n = np.arange(1.0, n_max + 1)
    k = n[:-1]
    steps = np.concatenate(([1.0 - math.log(2.0 * math.pi) / 2.0], 1.0 - k * np.log1p(1.0 / k)))
    two_l = 2.0 * np.cumsum(steps)
    return two_l - np.log(n + 1 / 6), np.log(n + 1 / 5) - two_l, 16.0 * n * np.finfo(float).eps


def stirling_gosper_check(n_max: int) -> np.ndarray:
    """Per-n booleans for the factorial sandwich of stirling_gosper_margins:
    True only where both float margins exceed the error budget, so an n the
    float pass cannot resolve reads False. The lower margin shrinks like
    1/(72 n^2), so the check certifies every n up to about 15,760 and no n
    past it."""
    lower, upper, budget = stirling_gosper_margins(n_max)
    return (lower > budget) & (upper > budget)


def section2_bernoulli_floor(m: int, trials: int, seed) -> bool:
    """Whether D(e1, 0) = 1 exactly, a count of m, in every trial (a fresh
    m-row map) for Bernoulli rows at delta = 1, dithered floor, where Gaussian
    rows make D concentrate near sqrt(2/pi) instead."""
    if m < 1:
        raise InvalidArgument("m must be >= 1")
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    pair = np.array([[1.0, 0.0], [0.0, 0.0]])  # columns e1 and 0
    counts = map_counts(make_ensemble("rademacher"), trials, m, 2, 1.0, seed, pair)
    return bool(np.all(counts == m))


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
