"""Tests of the benchmark itself: its checks reject wrong outputs, tracing
leaves the program unchanged, and it refuses to run without the package.

    python3 -m pytest qbench -q
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import qembed  # noqa: E402
from qembed import cli, quantizer, selftest  # noqa: E402

SMALL = ["--set", "sparse:N=64,K=4,d=1", "--ensemble", "gaussian", "--delta", "0.5",
         "--m-grid", "16,32,64,128", "--pairs", "10", "--trials", "2", "--seed", "3"]
SMALL_ROWS = 4 * 2


def small_sweep(out: Path, command: str, jobs: int = 1) -> Path:
    assert cli.main([command, *SMALL, "--jobs", str(jobs), "--slope-band=-5,5",
                     "--out", str(out)]) == 0
    return out


def rewrite_rows(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


@pytest.fixture(scope="module")
def qi_out(tmp_path_factory):
    return small_sweep(tmp_path_factory.mktemp("qi"), "quasi-isometry")


@pytest.fixture(scope="module")
def cw_out(tmp_path_factory):
    return small_sweep(tmp_path_factory.mktemp("cw"), "consistency-width")


def copy_out(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in bench.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb",
                                                       "setup_s"}


def test_check_accepts_a_correct_sweep(qi_out, cw_out):
    assert checks.check_sweep(qi_out, "quasi-isometry", (-5, 5), SMALL_ROWS) == ([], 0)
    assert checks.check_sweep(cw_out, "consistency-width", (-5, 5), SMALL_ROWS, 2.0) == ([], 0)


def test_check_rejects_a_slope_outside_its_band(qi_out):
    slope, _ = checks.read_summary(qi_out / "quasi-isometry-summary.csv")
    problems, _ = checks.check_sweep(qi_out, "quasi-isometry", (slope + 0.01, 5), SMALL_ROWS)
    assert any("outside" in p for p in problems)


def test_check_rejects_a_summary_slope_that_differs_from_the_refit(qi_out, tmp_path):
    out = copy_out(qi_out, tmp_path / "out")

    def nudge(rows):
        rows[1][1] = repr(float(rows[1][1]) + 1e-7)

    rewrite_rows(out / "quasi-isometry-summary.csv", nudge)
    problems, _ = checks.check_sweep(out, "quasi-isometry", (-5, 5), SMALL_ROWS)
    assert any("does not match the refit" in p for p in problems)


def test_check_rejects_a_failed_verdict_and_a_moved_gnuplot_point(qi_out, tmp_path):
    out = copy_out(qi_out, tmp_path / "out")
    rewrite_rows(out / "quasi-isometry-summary.csv", lambda rows: rows[1].__setitem__(3, "fail"))
    lines = (out / "quasi-isometry.dat").read_text().splitlines()
    x, y = lines[0].split()
    lines[0] = f"{x} {float(y) + 1e-6}"
    (out / "quasi-isometry.dat").write_text("\n".join(lines) + "\n")
    problems, _ = checks.check_sweep(out, "quasi-isometry", (-5, 5), SMALL_ROWS)
    assert any("verdict" in p for p in problems)
    assert any("gnuplot" in p for p in problems)


def test_check_counts_a_trial_without_a_finite_statistic(cw_out, tmp_path):
    out = copy_out(cw_out, tmp_path / "out")
    rewrite_rows(out / "consistency-width.csv", lambda rows: rows[1].__setitem__(3, "nan"))
    problems, failed = checks.check_sweep(out, "consistency-width", (-5, 5), SMALL_ROWS, 2.0)
    assert failed == 1
    assert any("outside (0, 2.0]" in p for p in problems)


@pytest.mark.parametrize("column,value,message", [(4, "1", "censored"),
                                                  (3, "2.5", "outside (0, 2.0]"),
                                                  (3, "0.0", "outside (0, 2.0]")])
def test_check_rejects_censoring_and_statistics_beyond_the_diameter(cw_out, tmp_path,
                                                                    column, value, message):
    out = copy_out(cw_out, tmp_path / "out")
    rewrite_rows(out / "consistency-width.csv",
                 lambda rows: rows[-1].__setitem__(column, value))
    problems, _ = checks.check_sweep(out, "consistency-width", (-5, 5), SMALL_ROWS, 2.0)
    assert any(message in p for p in problems)


def test_check_rejects_missing_trial_rows(qi_out):
    problems, _ = checks.check_sweep(qi_out, "quasi-isometry", (-5, 5), SMALL_ROWS + 1)
    assert any("trial rows" in p for p in problems)


def test_loglog_slope_recovers_a_power_law():
    points = [(m, 3.0 * m ** -0.5) for m in (128, 256, 512, 1024)]
    assert math.isclose(checks.loglog_slope(points), -0.5, abs_tol=1e-12)
    assert checks.loglog_slope(points[:2]) is None


def test_a_failed_criterion_counts_as_a_failed_operation(monkeypatch):
    monkeypatch.setattr(selftest, "criterion_2",
                        lambda seed, scale: selftest.CriterionResult(2, "forced", False))
    monkeypatch.setattr(selftest, "criterion_3",
                        lambda seed, scale: selftest.CriterionResult(3, "forced", True))
    passed = bench.run_criteria(0, (2, 3))
    assert passed == [False, True]
    assert bench.LabWorkload(0).check(passed) == (2, 1, [])


def _namespace_snapshot():
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == "qembed" or n.startswith("qembed."))]
    holders.append(quantizer.QuantizedMap)
    return {(id(h), k): v for h in holders for k, v in vars(h).items()}


def test_tracer_wraps_every_binding_and_restores_it():
    before = _namespace_snapshot()
    tracer = spans.Tracer()
    with tracer:
        during = _namespace_snapshot()
        # every binding of a target, also the package-level re-exports, is wrapped
        assert qembed.sample_matrix is not before[(id(qembed), "sample_matrix")]
        assert quantizer.sample_matrix is qembed.ensembles.sample_matrix
        assert quantizer.QuantizedMap.project_many is not \
            before[(id(quantizer.QuantizedMap), "project_many")]
    after = _namespace_snapshot()
    changed = {key for key in before if during[key] is not before[key]}
    assert len(changed) >= len(spans.TARGETS)
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("command", ["quasi-isometry", "consistency-width"])
def test_traced_sweep_writes_the_same_files(command, tmp_path):
    plain = small_sweep(tmp_path / "plain", command, jobs=2)
    tracer = spans.Tracer()
    with tracer:
        traced = small_sweep(tmp_path / "traced", command, jobs=2)
    for name in (f"{command}.csv", f"{command}-summary.csv", f"{command}.dat"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    sweep = f"experiments.{command.replace('-', '_')}_sweep"
    # spans opened on the two worker threads nest under the sweep span
    assert spans.count_under(tracer.spans, "ensembles.sample_matrix", sweep) == SMALL_ROWS
    summary = spans.summarize(tracer.spans)
    assert summary[sweep]["calls"] == 1
    assert 0 <= summary[sweep]["self_s"] <= summary[sweep]["s"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    recorded = [["parent", 0.0, 10.0, -1, 1, 0],
                ["child", 1.0, 4.0, 0, 2, 0],
                ["child", 2.0, 6.0, 0, 3, 0],
                ["grandchild", 2.5, 3.0, 2, 3, 0]]
    summary = spans.summarize(recorded)
    assert summary["parent"]["self_s"] == pytest.approx(5.0)
    assert summary["child"]["s"] == pytest.approx(7.0)
    assert summary["child"]["self_s"] == pytest.approx(6.5)
    assert spans.count_under(recorded, "grandchild", "parent") == 1


def test_run_refuses_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "lab-checks",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
