"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 10 and 11 each run one full-scale sweep on its own, in about 1.7 s
with 2 jobs on a 2-core machine; `qembed selftest` runs the two as one
paired sweep that draws each map once (4.3 s for both at 1 job, against
5.5 s run apart). Criterion 14 runs two quick selftests and two quick
paired sweeps in about 1.3 s, and every other criterion takes under half a
second. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import os
import subprocess
import sys
import time

from qembed import selftest

SEED = 7
JOBS = min(8, os.cpu_count() or 1)


def _report(res):
    print(f"criterion {res.cid:2d} [{'PASS' if res.passed else 'FAIL'}] {res.name} "
          f"{res.detail if not res.passed else ''}")
    assert res.passed, f"criterion {res.cid} failed: {res.detail}"


def _timed(fn, limit):
    t0 = time.perf_counter()
    res = fn(SEED)
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {res.cid} took {elapsed:.1f}s, limit {limit}s"
    return res


def test_criterion_01_dithered_floor_identity():
    _report(_timed(selftest.criterion_1, 5.0))


def test_criterion_02_soft_count_closed_form():
    _report(_timed(selftest.criterion_2, 10.0))


def test_criterion_03_local_bounds():
    _report(selftest.criterion_3(SEED))


def test_criterion_04_sandwich_monotonicity():
    _report(selftest.criterion_4(SEED))


def test_criterion_05_expectation_identity():
    _report(_timed(selftest.criterion_5, 30.0))


def test_criterion_06_berry_esseen_envelope():
    _report(selftest.criterion_6(SEED))


def test_criterion_07_bernoulli_floor():
    _report(selftest.criterion_7(SEED))


def test_criterion_08_no_dither_counterexample():
    _report(selftest.criterion_8(SEED))


def test_criterion_09_stirling_and_mad():
    _report(selftest.criterion_9(SEED))


def test_criterion_10_quasi_isometry_decay():
    res = selftest.criterion_10(SEED, selftest.FULL, jobs=JOBS)
    print(f"criterion 10 slope {res.slope:.4f} +/- {res.slope_stderr:.4f} "
          f"band {res.detail['band']}")
    _report(res)


def test_criterion_11_consistency_width_decay():
    res = selftest.criterion_11(SEED, selftest.FULL, jobs=JOBS)
    print(f"criterion 11 slope {res.slope:.4f} +/- {res.slope_stderr:.4f} "
          f"band {res.detail['band']}")
    _report(res)


def test_criterion_12_chernoff_tail():
    _report(selftest.criterion_12(SEED))


def test_criterion_13_width_oracles():
    _report(selftest.criterion_13(SEED))


def test_criterion_14_selftest_determinism(tmp_path):
    """CLI-level: selftest summary CSVs are byte-identical for jobs 1 vs 8."""
    outs = []
    for jobs, sub in ((1, "a"), (8, "b")):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "qembed.cli", "selftest", "--scale", "quick",
             "--seed", "7", "--jobs", str(jobs), "--out", str(out)],
            capture_output=True, text=True, timeout=1200)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append((out / "selftest-summary.csv").read_bytes())
    identical = outs[0] == outs[1]
    print(f"criterion 14 [{'PASS' if identical else 'FAIL'}] determinism-across-jobs")
    assert identical
    _report(selftest.criterion_14(SEED))


def test_criterion_15_soft_distance_continuity():
    _report(selftest.criterion_15(SEED))


def test_criterion_16_projection_stability():
    _report(selftest.criterion_16(SEED))
