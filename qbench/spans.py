"""In-memory span recorder for the traced benchmark run.

`Tracer.install` replaces each listed public qembed function, in every
qembed module namespace that binds it, with a wrapper that records a span:
name, start, end, parent span and thread. `Tracer.uninstall` puts every
original back. Nothing is written while spans are recorded; `write_csv`
dumps them once the measured work is over.

A span opened on a worker thread with no open span of its own takes as
parent the innermost open span of the thread that created the tracer. The
sweeps fan trials out from inside the sweep call while the calling thread
waits, so worker spans nest under the sweep span that started them.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); the span name is where the function lives.
# Calls of the function from any module that imported it are recorded too.
TARGETS = (
    ("qembed.ensembles", "sample_matrix", "ensembles.sample_matrix"),
    ("qembed.ensembles", "sample_iid", "ensembles.sample_iid"),
    ("qembed.quantizer", "quantize_array", "quantizer.quantize_array"),
    ("qembed.quantizer.QuantizedMap", "project_many", "quantizer.project_many"),
    ("qembed.distances", "pseudo_distance", "distances.pseudo_distance"),
    ("qembed.distances", "soft_pseudo_distance", "distances.soft_pseudo_distance"),
    ("qembed.geometry", "sample_point", "geometry.sample_point"),
    ("qembed.geometry", "sup_oracle", "geometry.sup_oracle"),
    ("qembed.geometry", "width_estimate", "geometry.width_estimate"),
    ("qembed.experiments", "quasi_isometry_sweep", "experiments.quasi_isometry_sweep"),
    ("qembed.experiments", "consistency_width_sweep", "experiments.consistency_width_sweep"),
    ("qembed.experiments", "lemma5_chernoff_check", "experiments.lemma5_chernoff_check"),
    ("qembed.experiments", "stirling_gosper_check", "experiments.stirling_gosper_check"),
    ("qembed.experiments", "rows_to_csv", "cli.emit"),
    ("qembed.experiments", "summary_to_csv", "cli.emit"),
    ("qembed.experiments", "gnuplot_data", "cli.emit"),
) + tuple(("qembed.selftest", f"criterion_{cid}", f"selftest.criterion_{cid:02d}")
          for cid in range(1, 15))


def _matrix_entries(args, kwargs) -> int:
    """Entry count m * n of a sample_matrix(ensemble, m, n, seed) call."""
    bound = dict(zip(("ensemble", "m", "n", "seed"), args), **kwargs)
    return int(bound["m"]) * int(bound["n"])


SIZES = {"ensembles.sample_matrix": _matrix_entries}


def _resolve(path: str):
    """Module or class object for a dotted path such as qembed.quantizer.QuantizedMap."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        owner, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(owner), attr)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, thread id, size]
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return -1

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, 0.0, None, self._parent(stack), threading.get_ident(),
                      size(args, kwargs) if size else 0]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(record)
            stack.append(idx)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every target in every qembed namespace that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qembed" or n.startswith("qembed."))]
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, SIZES.get(name))
            holders = [owner] + [m for m in modules
                                 if m is not owner and getattr(m, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start", "end", "parent", "thread", "size"))
            for idx, (name, start, end, parent, thread, size) in enumerate(self.spans):
                w.writerow((idx, name, repr(start), repr(end), parent, thread, size))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (summed duration), self_s and size.

    Self time is a span's duration minus the part of its interval that its
    direct child spans cover, so children on two worker threads that overlap
    in time are not subtracted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent, _thread, _size in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0})
    for idx, (name, start, end, _parent, _thread, size) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += (end - start) - _covered(children.get(idx, ()), start, end)
        rec["size"] += size
    return dict(out)


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span somewhere above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count
