"""Acceptance checks runnable as one suite, shared by the CLI and the tests.

Each criterion is a function (seed, scale) -> CriterionResult; `run_selftest`
executes them in order, prints one pass/fail line per criterion, and renders
the deterministic summary CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import distances, ensembles, experiments, geometry, quantizer
from .ensembles import SQRT_2_OVER_PI, InvalidArgument

FULL = "full"
QUICK = "quick"


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    slope: Optional[float] = None
    slope_stderr: Optional[float] = None


def _seed(seed: int, cid: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(100 + cid,))


def criterion_1(seed: int, scale: str = FULL) -> CriterionResult:
    """Dithered-floor identity: Monte Carlo vs |x - y| and the exact integral."""
    rng = np.random.default_rng(_seed(seed, 1))
    draws = 100_000
    worst_z = 0.0
    worst_exact = 0.0
    ok = True
    for _ in range(20):
        x, y = rng.uniform(-5, 5, size=2)
        est, se = quantizer.dithered_floor_mean(x, y, draws, rng)
        target = abs(x - y)
        if se > 0:
            worst_z = max(worst_z, abs(est - target) / se)
        ok &= abs(est - target) <= 3 * se + 1e-12
        exact_gap = abs(quantizer.dithered_floor_exact(x, y) - target)
        worst_exact = max(worst_exact, exact_gap)
        ok &= exact_gap <= 1e-12
    return CriterionResult(1, "dithered-floor-identity", ok,
                           {"worst_z": worst_z, "worst_exact_gap": worst_exact})


def _random_tuples(seed: int, count: int = 100_000):
    rng = np.random.default_rng(_seed(seed, 2))
    a = rng.uniform(-20, 20, count)
    b = rng.uniform(-20, 20, count)
    t = rng.uniform(-3, 3, count)
    s = rng.uniform(-3, 3, count)
    deltas = rng.choice([0.1, 1.0, 2.0], count)
    return a, b, t, s, deltas


def criterion_2(seed: int, scale: str = FULL) -> CriterionResult:
    """Closed-form soft counts equal brute-force enumeration on random tuples."""
    count = 100_000 if scale == FULL else 20_000
    a, b, t, _, deltas = _random_tuples(seed, count)
    mismatches = 0
    for d in (0.1, 1.0, 2.0):
        mask = deltas == d
        closed = distances.soft_count_array(a[mask], b[mask], t[mask], d)
        brute = distances.soft_count_enumerated(a[mask], b[mask], t[mask], d)
        mismatches += int(np.count_nonzero(closed != brute))
    return CriterionResult(2, "soft-count-closed-form", mismatches == 0,
                           {"tuples": count, "mismatches": mismatches})


def criterion_3(seed: int, scale: str = FULL) -> CriterionResult:
    """Both local softening bounds hold on the criterion-2 tuples."""
    count = 100_000 if scale == FULL else 20_000
    a, b, t, s, deltas = _random_tuples(seed, count)
    violations = 0
    for d in (0.1, 1.0, 2.0):
        mask = deltas == d
        lhs_ts, bound_ts, lhs_abs, bound_abs = distances.lemma1_check(
            a[mask], b[mask], t[mask], s[mask], d)
        violations += int(np.count_nonzero(lhs_ts > bound_ts))
        violations += int(np.count_nonzero(lhs_abs > bound_abs))
    return CriterionResult(3, "soft-vs-soft-and-abs-bounds", violations == 0,
                           {"tuples": count, "violations": violations})


def criterion_4(seed: int, scale: str = FULL) -> CriterionResult:
    """Sandwich D^|t| <= D <= D^-|t| and monotonicity in t on random maps."""
    instances = 1000 if scale == FULL else 200
    rng = np.random.default_rng(_seed(seed, 4))
    gauss = ensembles.make_ensemble("gaussian")
    rade = ensembles.make_ensemble("rademacher")
    violations = 0
    for i in range(instances):
        ens = gauss if i % 2 == 0 else rade
        m = int(rng.integers(4, 33))
        n = int(rng.integers(2, 17))
        delta = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        qmap = quantizer.make_map(ens, m, n, delta, rng.integers(2**63))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        d0 = distances.pseudo_distance(qmap, x, y)
        grid = np.linspace(-2 * delta, 2 * delta, 13)
        vals = distances.soft_pseudo_distance(qmap, x, y, grid)
        for tt, v in zip(grid, vals):
            if tt >= 0 and v > d0 + 1e-12:
                violations += 1
            if tt <= 0 and v < d0 - 1e-12:
                violations += 1
        if np.any(np.diff(vals) > 1e-12):
            violations += 1
    return CriterionResult(4, "sandwich-and-monotonicity", violations == 0,
                           {"instances": instances, "violations": violations})


def criterion_5(seed: int, scale: str = FULL) -> CriterionResult:
    """Mean of D equals sqrt(2/pi)||x-y|| for gaussian maps (fresh map per trial)."""
    rng = np.random.default_rng(_seed(seed, 5))
    trials = 10_000 if scale == FULL else 2000
    m, n, delta = 4, 16, 1.0
    ok = True
    worst_z = 0.0
    for _ in range(10):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        target = SQRT_2_OVER_PI * np.linalg.norm(x - y)
        phi = rng.standard_normal((trials * m, n))
        xi = rng.random(trials * m) * delta
        ca = quantizer.quantize_array(phi @ x + xi, delta)
        cb = quantizer.quantize_array(phi @ y + xi, delta)
        d_vals = delta * np.abs(ca - cb).reshape(trials, m).sum(axis=1) / m
        mean = float(d_vals.mean())
        se = float(d_vals.std(ddof=1) / math.sqrt(trials))
        z = abs(mean - target) / se
        worst_z = max(worst_z, z)
        ok &= z <= 3.0
    return CriterionResult(5, "expectation-identity", ok, {"worst_z": worst_z})


def criterion_6(seed: int, scale: str = FULL) -> CriterionResult:
    """Rademacher first-moment envelope with the generic constant 47."""
    rng = np.random.default_rng(_seed(seed, 6))
    rade = ensembles.make_ensemble("rademacher")
    samples = 20_000 if scale == FULL else 5000
    ok = True
    worst_margin = math.inf
    for _ in range(10):
        n = int(rng.integers(4, 33))
        u = rng.standard_normal(n)
        est, se = ensembles.mu_sg(rade, u, samples, rng)
        lhs = abs(est - SQRT_2_OVER_PI * np.linalg.norm(u))
        rhs = 47.0 * float(np.max(np.abs(u))) + 3 * se
        worst_margin = min(worst_margin, rhs - lhs)
        ok &= lhs <= rhs
    return CriterionResult(6, "berry-esseen-envelope", ok, {"worst_margin": worst_margin})


def criterion_7(seed: int, scale: str = FULL) -> CriterionResult:
    """Bernoulli distance floor: D(e1, 0) = 1 exactly, every trial."""
    root = _seed(seed, 7)
    trials = 100 if scale == FULL else 25
    ok = True
    for i, m in enumerate((16, 256, 4096)):
        rep = experiments.section2_bernoulli_floor(m, trials, root.spawn(3)[i])
        ok &= rep.all_exact
    floor = 1.0 - SQRT_2_OVER_PI
    ok &= floor > 0.202
    return CriterionResult(7, "bernoulli-floor-exact", ok, {"implied_floor": floor})


def criterion_8(seed: int, scale: str = FULL) -> CriterionResult:
    """Undithered rounding counterexample: codes collide in every trial."""
    trials = 1000 if scale == FULL else 200
    rep = experiments.no_dither_counterexample(64, 0.4, 512, trials, _seed(seed, 8))
    return CriterionResult(8, "no-dither-counterexample", rep.pass_rate == 1.0,
                           {"pass_rate": rep.pass_rate, "width": rep.width})


def criterion_9(seed: int, scale: str = FULL) -> CriterionResult:
    """Factorial sandwich, binomial MAD gap and its distortion floor, and
    De Moivre agreement."""
    n_max = 10_000 if scale == FULL else 2000
    stirling_ok = bool(np.all(experiments.stirling_gosper_check(n_max)))
    mad_ok = True
    for n in range(2, 41, 2):
        rep = experiments.bernoulli_floor_distortion(n)
        mad_ok &= rep.gap_ok and rep.distortion_ok
    dm_worst = max(experiments.de_moivre_agreement(n) for n in range(2, 61, 2))
    ok = stirling_ok and mad_ok and dm_worst <= 1e-12
    return CriterionResult(9, "stirling-and-binomial-mad", ok,
                           {"stirling_n_max": n_max, "de_moivre_worst": dm_worst})


def _embed_plan(seed: int, scale: str) -> experiments.TrialPlan:
    gauss = ensembles.make_ensemble("gaussian")
    if scale == FULL:
        spec = geometry.SparseBall(n=512, k=4, radius=1.0)
        grid = (128, 256, 512, 1024, 2048, 4096, 8192)
        pairs, trials = 200, 20
    else:
        spec = geometry.SparseBall(n=128, k=4, radius=1.0)
        grid = (64, 128, 256, 512)
        pairs, trials = 50, 6
    return experiments.TrialPlan(set_spec=spec, ensemble=gauss, delta=0.5, m_grid=grid,
                                 pairs_per_m=pairs, trials_per_m=trials, k0=1.0,
                                 master_seed=seed)


def criterion_10(seed: int, scale: str = FULL, jobs: int = 1) -> CriterionResult:
    """Embedding distortion decay on a structured set; target slope -1/2."""
    band = (-0.65, -0.35) if scale == FULL else (-0.75, -0.25)
    plan = _embed_plan(seed, scale)
    res = experiments.quasi_isometry_sweep(plan, slope_band=band, jobs=jobs)
    return CriterionResult(10, "quasi-isometry-decay", bool(res.verdict),
                           {"band": band, "scale": scale},
                           slope=res.slope, slope_stderr=res.slope_stderr)


def criterion_11(seed: int, scale: str = FULL, jobs: int = 1) -> CriterionResult:
    """Consistency width decay on the same structured set; target slope -1."""
    band = (-1.25, -0.75) if scale == FULL else (-1.45, -0.55)
    res = experiments.consistency_width_sweep(_embed_plan(seed, scale), slope_band=band,
                                              jobs=jobs)
    return CriterionResult(11, "consistency-width-decay", bool(res.verdict),
                           {"band": band, "scale": scale},
                           slope=res.slope, slope_stderr=res.slope_stderr)


def criterion_12(seed: int, scale: str = FULL) -> CriterionResult:
    """Five tail-bound configurations plus the per-coordinate lower bound."""
    gauss = ensembles.make_ensemble("gaussian")
    rng = np.random.default_rng(_seed(seed, 12))
    trials = 1500 if scale == FULL else 400
    p_samples = 100_000 if scale == FULL else 20_000
    configs = [
        # (delta, dist, t, m)
        (1.0, 0.5, 0.0, 64),
        (0.5, 0.3, 0.0, 128),
        (1.0, 1.0, 0.0, 64),
        (2.0, 0.8, 0.01, 96),
        (1.0, 0.25, 0.02, 256),
    ]
    ok = True
    details = []
    for i, (delta, dist, t, m) in enumerate(configs):
        n = 16
        u = rng.standard_normal(n)
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        v = u - dist * direction
        probe = experiments.lemma5_chernoff_check(
            u, v, k0=1.0, t=t, ensemble=gauss, delta=delta, m=m, r=0, trials=2,
            seed=np.random.SeedSequence(seed, spawn_key=(12, i, 0)),
            p_samples=p_samples // 10)
        r = max(1, int(math.ceil(m * probe.p_hat / 2.0)))
        rep = experiments.lemma5_chernoff_check(
            u, v, k0=1.0, t=t, ensemble=gauss, delta=delta, m=m, r=r, trials=trials,
            seed=np.random.SeedSequence(seed, spawn_key=(12, i, 1)),
            p_samples=p_samples)
        ok &= rep.bound_holds and not rep.bound_vacuous
        if rep.p_lower_holds is not None:
            ok &= rep.p_lower_holds
        details.append({"delta": delta, "dist": dist, "t": t, "m": m, "r": r,
                        "empirical": rep.empirical, "bound": rep.chernoff_bound,
                        "p_hat": rep.p_hat, "p_lower": rep.p_lower_bound})
    return CriterionResult(12, "chernoff-tail-bound", ok, {"configs": details})


def criterion_13(seed: int, scale: str = FULL) -> CriterionResult:
    """Width oracles: sparse sup vs enumeration, ball and singleton widths."""
    from itertools import combinations

    rng = np.random.default_rng(_seed(seed, 13))
    ok = True
    worst = 0.0
    for n in range(4, 11):
        for k in (1, 2, 3):
            if k > n:
                continue
            spec = geometry.SparseBall(n=n, k=k, radius=1.3)
            for _ in range(5):
                g = rng.standard_normal(n)
                brute = max(1.3 * np.linalg.norm(g[list(sup)])
                            for sup in combinations(range(n), k))
                gap = abs(geometry.sup_oracle(spec, g) - brute)
                worst = max(worst, gap)
                ok &= gap <= 1e-9
    draws = 20_000 if scale == FULL else 5000
    ball = geometry.width_estimate(geometry.EuclideanBall(2, 1.0), draws, rng)
    target = math.sqrt(math.pi / 2.0)
    ok &= abs(ball.mean - target) <= 3 * ball.stderr
    u = rng.standard_normal(7)
    single = geometry.width_estimate(geometry.FiniteSet(points=u[None, :]), draws, rng)
    ok &= abs(single.mean - SQRT_2_OVER_PI * np.linalg.norm(u)) <= 3 * single.stderr
    return CriterionResult(13, "width-oracles", ok,
                           {"sparse_sup_worst_gap": worst, "ball_width": ball.mean,
                            "ball_target": target})


def criterion_14(seed: int, scale: str = FULL) -> CriterionResult:
    """Worker-count independence: sweep CSVs agree byte-for-byte for jobs 1 vs 8."""
    plan = _embed_plan(seed, QUICK)
    a = experiments.quasi_isometry_sweep(plan, jobs=1)
    b = experiments.quasi_isometry_sweep(plan, jobs=8)
    csv_a = experiments.rows_to_csv(a.rows)
    csv_b = experiments.rows_to_csv(b.rows)
    wa = experiments.consistency_width_sweep(plan, jobs=1)
    wb = experiments.consistency_width_sweep(plan, jobs=8)
    ok = csv_a == csv_b and experiments.rows_to_csv(wa.rows) == experiments.rows_to_csv(wb.rows)
    return CriterionResult(14, "determinism-across-jobs", ok, {})


def criterion_15(seed: int, scale: str = FULL) -> CriterionResult:
    """Continuity of D^t under small perturbations (Lemma 3) on random maps."""
    maps = 100 if scale == FULL else 20
    rng = np.random.default_rng(_seed(seed, 15))
    gauss = ensembles.make_ensemble("gaussian")
    n, m = 8, 32
    violations = 0
    for _ in range(maps):
        qmap = quantizer.make_map(gauss, m, n, 1.0, rng.integers(2**63))
        x0 = rng.standard_normal(n)
        y0 = rng.standard_normal(n)
        xp = 0.01 * rng.standard_normal(n)
        yp = 0.01 * rng.standard_normal(n)
        phi = qmap.phi
        # the smallest eta the lemma's precondition admits for these perturbations
        eta = max(np.linalg.norm(phi @ xp), np.linalg.norm(phi @ yp)) / math.sqrt(m)
        eta = max(eta, 1e-9)
        if not distances.lemma3_check(qmap, x0, y0, xp, yp, t=0.0, eta=eta, p_cap=4.0):
            violations += 1
    return CriterionResult(15, "soft-distance-continuity", violations == 0,
                           {"maps": maps, "violations": violations})


def criterion_16(seed: int, scale: str = FULL) -> CriterionResult:
    """Projection stability of the local set (K - K) inter eta B (Lemma 4)."""
    trials = 1000 if scale == FULL else 200
    rep = experiments.lemma4_diameter_check(
        geometry.SparseBall(n=32, k=3, radius=1.0), eta=0.5,
        ensemble=ensembles.make_ensemble("gaussian"), m=128, trials=trials,
        seed=_seed(seed, 16), margin=0.5)
    return CriterionResult(16, "projection-stability", rep.failures == 0,
                           {"trials": trials, "failures": rep.failures})


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13, 14: criterion_14, 15: criterion_15, 16: criterion_16,
}


def run_selftest(seed: int = 0, jobs: int = 1, scale: str = FULL, cids=None):
    """Run the criteria numbered in cids (default: all) in order; returns
    (results, summary CSV text)."""
    if scale not in (FULL, QUICK):
        raise InvalidArgument(f"scale must be {FULL!r} or {QUICK!r}, got {scale!r}")
    if jobs < 1:
        raise InvalidArgument(f"jobs must be >= 1, got {jobs}")
    results = []
    for cid in sorted(CRITERIA) if cids is None else cids:
        fn = CRITERIA[cid]
        if cid in (10, 11):
            res = fn(seed, scale, jobs=jobs)
        else:
            res = fn(seed, scale)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        slope_txt = "" if res.slope is None else f" slope={res.slope:.4f}"
        print(f"criterion {res.cid:2d} [{status}] {res.name}{slope_txt}")
    entries = [(f"criterion-{r.cid:02d}-{r.name}", r.slope, r.slope_stderr, r.passed)
               for r in results]
    return results, experiments.summary_to_csv(entries)
