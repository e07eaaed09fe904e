"""Benchmark of the qembed lab: the two decay sweeps and the acceptance lab.

    python3 qbench/run.py --workload qi-sparse --seed 1 --seconds 30 --trace 0
    python3 qbench/run.py --seed 1            # every workload, one after another

Run from anywhere; the package is imported from the `src` directory next to
this one. Each workload runs in fresh processes started with BLAS and OpenMP
pinned to one thread, so the program's own --jobs fan-out is its only
parallelism. Set-up time is measured in SETUP_SAMPLES fresh processes and
reported as their median.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones
(wall_s, cpu_s, peak_rss_mb, setup_s); with --trace 1 they are the per-layer
ones. The full record of a run, with its environment and every round, is
written to qbench/out/<workload>/result-trace<0|1>.json.

Exit codes: 0 when every check passed, 1 when a check failed or a workload
process did not finish, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qi-sparse", "cw-sparse", "lab-checks")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                              "NUMEXPR_NUM_THREADS")}


class WorkloadFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PIN)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run bench.py once and return the JSON object it printed."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "bench.py"), *args],
                              env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkloadFailed(f"bench.py {' '.join(args)} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"bench.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []
    if not trace:
        setups = [run_child(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    record = run_child(common, deadline)
    if not trace:
        setups.append(record["setup_s"])
        record["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record["setup_samples"] = setups
    record["workload"], record["seed"], record["seconds"] = name, seed, seconds
    out = HERE / "out" / name
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qembed" / "__init__.py").is_file():
        print(f"error: no qembed package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{metric}": value for name, r in results.items()
                            for metric, value in r["metrics"].items()}}
        for name, r in results.items():
            print(json.dumps({"workload": name, **r}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
