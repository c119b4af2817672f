"""Span recording around minleg's public functions, and per-layer arithmetic.

The tracer replaces each function at the attribute where its callers look it
up (``minleg.verify.point_data``, ``ImmersionChart.jet_eval``, ...) with a
wrapper, and puts the original back on exit, so the program itself carries no
tracing code.  A span is ``(id, name, start, end, thread, parent, op)``.
Every thread keeps its own stack of open spans.  A span opened on a worker
thread of the sweep pool with an empty stack takes as parent the innermost
open span of the main thread: the grid driver (``verify_chart``,
``integral_p1`` or ``pinching_scan``) waiting on the pool.

A layer's self time is its span's duration minus the union of the intervals
its child spans cover, so children running on two pool threads at once are
not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

import minleg.cli
import minleg.geometry
import minleg.lu_inequality
import minleg.verify

# (owner, attribute, span name).  Owners are the modules or classes whose
# attribute the calling code reads at call time.
TARGETS = (
    (minleg.cli, "main", "cli.main"),
    (minleg.cli, "verify_chart", "verify.verify_chart"),
    (minleg.cli, "integral_p1", "verify.integral_p1"),
    (minleg.cli, "pinching_scan", "verify.pinching_scan"),
    (minleg.cli, "scan_to_csv", "verify.scan_to_csv"),
    (minleg.cli, "extremal_search", "lu_inequality.extremal_search"),
    (minleg.verify.VerificationReport, "to_text", "verify.to_text"),
    (minleg.verify, "point_data", "geometry.point_data"),
    (minleg.verify, "legendrian_residual", "geometry.legendrian_residual"),
    (minleg.verify, "minimality_residual", "geometry.minimality_residual"),
    (minleg.verify, "sigma_symmetry_defect", "geometry.sigma_symmetry_defect"),
    (minleg.verify, "scalar_curvature_intrinsic", "geometry.scalar_curvature_intrinsic"),
    (minleg.geometry, "fundamental_matrix", "geometry.fundamental_matrix"),
    (minleg.geometry, "spectrum_of", "geometry.spectrum_of"),
    (minleg.geometry, "sym_eigen", "symmat.sym_eigen"),
    (minleg.geometry.ImmersionChart, "jet_eval", "jets.jet_eval"),
    (minleg.lu_inequality, "objective_value", "lu_inequality.objective_value"),
    (minleg.lu_inequality, "objective_gradients", "lu_inequality.objective_gradients"),
)

DRIVERS = ("verify.verify_chart", "verify.integral_p1", "verify.pinching_scan")
RESIDUALS = (
    "geometry.legendrian_residual",
    "geometry.minimality_residual",
    "geometry.sigma_symmetry_defect",
)
RENDERERS = ("verify.to_text", "verify.scan_to_csv")


class Tracer:
    """Wraps every target while installed; spans=False only counts calls."""

    def __init__(self, spans: bool = True):
        self.record = spans
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, name, fn):
        if not self.record:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with self._lock:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, threading.get_ident(), parent, self.op))
        return traced

    def __enter__(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def call_counts(spans) -> Counter:
    return Counter(span[1] for span in spans)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
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


def layer_times(spans) -> tuple[dict, dict]:
    """Per span name: (total seconds, self seconds)."""
    children = defaultdict(list)
    for sid, _, start, end, _, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    total, own = defaultdict(float), defaultdict(float)
    for sid, name, start, end, *_ in spans:
        total[name] += end - start
        own[name] += end - start - _covered(children.get(sid, ()), start, end)
    return total, own


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def layer_metrics(spans, grid_points: int) -> dict:
    """Per-layer numbers of one traced pass, keyed by BENCHMARK.json names.

    grid_points is the number of grid points the pass's drivers swept.  A
    layer the workload never calls reports 0.
    """
    n = call_counts(spans)
    total, own = layer_times(spans)
    steps = n["lu_inequality.objective_gradients"]
    evals = n["lu_inequality.objective_value"]
    return {
        "jets.eval_us_per_point": 1e6 * _per(own["jets.jet_eval"], n["jets.jet_eval"]),
        "jets.points_evaluated": n["jets.jet_eval"],
        "geometry.frame_sigma_us_per_point":
            1e6 * _per(own["geometry.point_data"], n["geometry.point_data"]),
        "geometry.fundamental_matrix_us":
            1e6 * _per(own["geometry.fundamental_matrix"], n["geometry.fundamental_matrix"]),
        "geometry.spectrum_us": 1e6 * _per(own["geometry.spectrum_of"], n["geometry.spectrum_of"]),
        "geometry.residuals_us_per_point":
            1e6 * _per(sum(own[r] for r in RESIDUALS), n["geometry.legendrian_residual"]),
        "geometry.curvature_oracle_ms": 1e3 * _per(
            total["geometry.scalar_curvature_intrinsic"], n["geometry.scalar_curvature_intrinsic"]),
        "geometry.curvature_oracle_self_ms": 1e3 * _per(
            own["geometry.scalar_curvature_intrinsic"], n["geometry.scalar_curvature_intrinsic"]),
        "symmat.jacobi_us": 1e6 * _per(own["symmat.sym_eigen"], n["symmat.sym_eigen"]),
        "symmat.jacobi_calls": n["symmat.sym_eigen"],
        "verify.sweep_overhead_us_per_point": 1e6 * _per(sum(own[d] for d in DRIVERS), grid_points),
        "verify.render_ms":
            1e3 * _per(sum(own[r] for r in RENDERERS), sum(n[r] for r in RENDERERS)),
        "lu_inequality.steps": steps,
        "lu_inequality.objective_evals": evals,
        "lu_inequality.evals_per_step": _per(evals, steps),
        "lu_inequality.step_us": 1e6 * _per(total["lu_inequality.extremal_search"], steps),
        "cli.overhead_ms": 1e3 * _per(own["cli.main"], n["cli.main"]),
    }


def write_spans(path, passes) -> None:
    """Tab-separated spans of every traced pass, one line each, in end order."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("pass\tid\tname\tstart\tend\tthread\tparent\top\n")
        for k, spans in enumerate(passes):
            for sid, name, start, end, thread, parent, op in spans:
                parent = "" if parent is None else parent
                fh.write(f"{k}\t{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{thread}\t{parent}\t{op}\n")
