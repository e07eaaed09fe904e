"""Checks of a sweep's output files against properties of the method.

Nothing here imports qembed. The slope is refitted from the per-trial CSV
with this module's own least-squares code, so a fault in the program's
aggregation or fit shows as a mismatch instead of being repeated.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REFIT_TOL = 1e-9


def read_rows(path: Path) -> list[tuple[int, int, float, bool]]:
    """(m, trial, statistic, censored) for every row of a per-trial CSV."""
    with open(path, newline="") as fh:
        return [(int(r["m"]), int(r["trial"]), float(r["statistic"]), r["censored"] == "1")
                for r in csv.DictReader(fh)]


def read_summary(path: Path) -> tuple[float | None, str]:
    """(slope or None, verdict) from a one-experiment summary CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one summary row, got {len(rows)}")
    slope = rows[0]["slope"]
    return (float(slope) if slope else None), rows[0]["verdict"]


def fit_points(rows) -> list[tuple[int, float]]:
    """Per M, the worst finite uncensored statistic, where it is positive."""
    worst: dict[int, float] = {}
    for m, _trial, stat, censored in rows:
        if not censored and math.isfinite(stat):
            worst[m] = max(worst.get(m, -math.inf), stat)
    return sorted((m, s) for m, s in worst.items() if s > 0)


def loglog_slope(points) -> float | None:
    """Ordinary least-squares slope of log(statistic) on log(M)."""
    if len(points) < 3:
        return None
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(s) for _, s in points]
    xm = sum(xs) / len(xs)
    ym = sum(ys) / len(ys)
    sxx = sum((x - xm) ** 2 for x in xs)
    return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sxx


def check_sweep(out: Path, command: str, band: tuple[float, float], n_rows: int,
                stat_upper: float | None = None) -> tuple[list[str], int]:
    """Problems found in one sweep's outputs, and the number of failed trials.

    A trial fails when its statistic is not finite. The summary must pass
    with a slope inside `band` that equals the refit from the per-trial CSV,
    and the gnuplot file must hold the refit's points. With `stat_upper`,
    no trial may be censored and every statistic must lie in (0, stat_upper].
    """
    rows = read_rows(out / f"{command}.csv")
    slope, verdict = read_summary(out / f"{command}-summary.csv")
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} trial rows, expected {n_rows}")
    failed = sum(not math.isfinite(stat) for _, _, stat, _ in rows)
    if verdict != "pass":
        problems.append(f"summary verdict is {verdict!r}")
    if slope is None or not band[0] <= slope <= band[1]:
        problems.append(f"slope {slope} outside [{band[0]}, {band[1]}]")
    points = fit_points(rows)
    refit = loglog_slope(points)
    if slope is None or refit is None or abs(refit - slope) > REFIT_TOL:
        problems.append(f"summary slope {slope} does not match the refit {refit}")
    dat = [tuple(float(v) for v in line.split())
           for line in (out / f"{command}.dat").read_text().splitlines() if line.strip()]
    expected = [(math.log10(m), math.log10(s)) for m, s in points]
    if len(dat) != len(expected) or any(
            abs(a - c) > REFIT_TOL or abs(b - d) > REFIT_TOL
            for (a, b), (c, d) in zip(dat, expected)):
        problems.append("gnuplot points do not match the per-trial CSV")
    if stat_upper is not None:
        censored = sum(c for *_, c in rows)
        if censored:
            problems.append(f"{censored} censored trials")
        outside = sum(not 0.0 < stat <= stat_upper for _, _, stat, _ in rows)
        if outside:
            problems.append(f"{outside} statistics outside (0, {stat_upper}]")
    return problems, failed
