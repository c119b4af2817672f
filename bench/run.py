#!/usr/bin/env python3
"""minleg benchmark: end-to-end and per-layer numbers for three workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a source checkout; minleg is imported from ``src``.
A workload is a fixed list of minleg command lines (see workloads.py), run
in this process through ``minleg.cli.main(argv)``, the code path of the
console script, with ``MINLEG_WORKERS`` removed from the environment so the
default thread count is measured.  A pass runs every command line once.  The
first pass is the reference: every later pass must print the same bytes,
and every output is checked against the zoo's known answers.

--trace 0 times untraced passes for --seconds and reports the end-to-end
metrics.  --trace 1 alternates untraced and traced passes for --seconds,
then makes one pass with MINLEG_WORKERS=1, and reports the per-layer
metrics from the spans (see spans.py); the call counts of the traced passes
must repeat exactly.  Either way the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}, and the full
record goes to bench/out/.  --workload all runs every workload in its own
child process and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
NAMES = ("sweep", "verify-zoo", "lu-search")
SETUP_SAMPLES = 9
MIN_PASSES = 2
CHILD_TIMEOUT_S = 180
WORKERS_ENV = "MINLEG_WORKERS"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import minleg.cli\n"
    "minleg.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
UNITS = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
    "curvature_gap": "1", "fail_frac": "1",
    "jets.eval_us_per_point": "us", "jets.points_evaluated": "count",
    "geometry.frame_sigma_us_per_point": "us", "geometry.fundamental_matrix_us": "us",
    "geometry.spectrum_us": "us", "geometry.residuals_us_per_point": "us",
    "geometry.curvature_oracle_ms": "ms", "geometry.curvature_oracle_self_ms": "ms",
    "geometry.curvature_gap": "1",
    "symmat.jacobi_us": "us", "symmat.jacobi_calls": "count",
    "verify.sweep_overhead_us_per_point": "us", "verify.threads_speedup": "1",
    "verify.render_ms": "ms",
    "lu_inequality.steps": "count", "lu_inequality.objective_evals": "count",
    "lu_inequality.evals_per_step": "1", "lu_inequality.step_us": "us",
    "cli.overhead_ms": "ms", "bench.tracing_overhead_s": "s",
}
E2E = ("setup_s", "items_per_s", "peak_rss_mb")
PER_LAYER = tuple(k for k in UNITS if "." in k)


def parse_args(argv):
    p = argparse.ArgumentParser(description="minleg benchmark")
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def setup_seconds() -> float:
    """import minleg.cli plus build_parser() in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def call(argv) -> tuple:
    """(exit code or None if it raised, stdout, stderr or the exception)."""
    import minleg.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = minleg.cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # counted as a failed operation, never a crash
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def run_pass(ops, tracer=None) -> tuple[float, list]:
    results = []
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            results.append(call(op.argv))
        wall = time.perf_counter() - start
    return wall, results


class Tally:
    """Attempted and failed operations over every pass of a run."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, results) -> None:
        if self.reference is None:
            self.reference = [out for _, out, _ in results]
        for op, (rc, out, err), ref in zip(self.ops, results, self.reference):
            self.attempted += 1
            reason = self._judge(op, rc, out, err, ref)
            if reason:
                self.failures.append(f"{' '.join(op.argv)}: {reason}")

    @staticmethod
    def _judge(op, rc, out, err, ref):
        if rc is None:
            return f"raised {err}"
        if out != ref:
            return "output differs from the first pass"
        try:
            return op.check(rc, out, err)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"


def curvature_gap(outputs) -> float:
    """Largest scalar_curvature residual over the verify reports (0 if none)."""
    gap = 0.0
    for out in outputs:
        try:
            checks = json.loads(out).get("checks", [])
        except (ValueError, AttributeError):
            continue  # not a report; its check has already failed or it is not verify
        for c in checks:
            if c["name"] == "scalar_curvature":
                gap = max(gap, c["max_residual"])
    return gap


def measure_e2e(wl, seconds, tally) -> tuple[dict, dict]:
    from spans import Tracer

    with Tracer(spans=False) as counter:
        _, results = run_pass(wl.ops)
    tally.add(results)
    # Set-up samples are spread between the passes: the host's speed drifts
    # over seconds, and samples taken back to back would all see one state.
    walls, setup = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, results = run_pass(wl.ops)
        walls.append(wall)
        tally.add(results)
        setup.append(setup_seconds())
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds())
    # Workloads with a grid count grid points; lu-search counts gradient steps.
    items = sum(op.points for op in wl.ops) or counter.counts["lu_inequality.objective_gradients"]
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "curvature_gap": curvature_gap(tally.reference),
        "fail_frac": len(tally.failures) / tally.attempted,
    }
    record = {"setup_samples_s": setup, "pass_walls_s": walls, "items_per_pass": items,
              "item": wl.item, "call_counts": dict(counter.counts)}
    return metrics, record


def measure_traced(wl, seconds, tally, spans_path) -> tuple[dict, dict]:
    from spans import Tracer, call_counts, layer_metrics, write_spans

    grid_points = sum(op.points for op in wl.ops)
    plain, traced, span_sets = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or not plain or time.perf_counter() - start < seconds:
        # Traced and untraced passes alternate, so drift hits both alike.
        tracer = Tracer() if len(traced) <= len(plain) else None
        wall, results = run_pass(wl.ops, tracer)
        tally.add(results)
        if tracer is None:
            plain.append(wall)
        else:
            traced.append(wall)
            span_sets.append(tracer.spans)
    os.environ[WORKERS_ENV] = "1"
    try:
        single, results = run_pass(wl.ops)
    finally:
        del os.environ[WORKERS_ENV]
    tally.add(results)

    counts = [call_counts(s) for s in span_sets]
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        tally.failures.append("call counts differ between traced passes of one seed")
    per_pass = [layer_metrics(s, grid_points) for s in span_sets]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["geometry.curvature_gap"] = curvature_gap(tally.reference)
    metrics["verify.threads_speedup"] = single / statistics.median(plain)
    metrics["bench.tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    write_spans(spans_path, span_sets)
    record = {"untraced_walls_s": plain, "traced_walls_s": traced, "single_worker_wall_s": single,
              "call_counts": dict(counts[0]), "counts_repeat": counts_repeat,
              "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, record


def show(name, value, note="") -> None:
    print(f"  {name:<36} {value:>16.6g} {UNITS[name]:<6} {note}")


def run_one(args) -> int:
    from workloads import WORKLOADS

    env = environment(args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    tally = Tally(wl.ops)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")

    print(f"minleg benchmark: workload {wl.name} ({wl.why})")
    print(f"  seed {args.seed}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, blas thread env {env['blas_thread_env']}")
    for op in wl.ops:
        grid = "x".join(map(str, op.grid)) if op.grid else "none"
        print(f"  minleg {' '.join(op.argv)}   [grid {grid}]")

    if args.trace:
        metrics, record = measure_traced(wl, args.seconds, tally, stem + ".spans.tsv")
        reported = PER_LAYER
        n_t, n_p = len(record["traced_walls_s"]), len(record["untraced_walls_s"])
        print(f"per-layer metrics (medians of {n_t} traced passes; overhead against "
              f"{n_p} untraced passes; grid points per pass {sum(op.points for op in wl.ops)}):")
        for k in reported:
            show(k, metrics[k])
        print(f"  counts repeat exactly between traced passes: {record['counts_repeat']}")
    else:
        metrics, record = measure_e2e(wl, args.seconds, tally)
        reported = E2E
        n = len(record["pass_walls_s"])
        print("end-to-end metrics:")
        show("setup_s", metrics["setup_s"], f"median of {len(record['setup_samples_s'])} fresh interpreters")
        show("wall_s", metrics["wall_s"], f"median of {n} passes")
        show("items_per_s", metrics["items_per_s"],
             f"{wl.item} per second, {record['items_per_pass']} per pass")
        show("peak_rss_mb", metrics["peak_rss_mb"], "this process")
        if wl.name == "verify-zoo":
            show("curvature_gap", metrics["curvature_gap"], "max scalar_curvature residual")
        show("fail_frac", metrics["fail_frac"], f"{len(tally.failures)} of {tally.attempted}")
    for reason in tally.failures[:20]:
        print(f"  FAILED {reason}")

    correct = not tally.failures
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
                   "environment": env,
                   "ops": [{"argv": list(op.argv), "grid": list(op.grid)} for op in wl.ops],
                   "correct": correct, "attempted": tally.attempted, "failures": tally.failures,
                   "metrics": metrics, "record": record}, fh, indent=2)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in reported},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, then one table."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  encoding="ascii") as fh:
            summary[name] = json.load(fh)["metrics"]
    keys = list(dict.fromkeys(k for m in summary.values() for k in m))
    print(f"\n{'metric':<36} {'unit':<6}" + "".join(f"{n:>16}" for n in NAMES))
    for k in keys:
        print(f"{k:<36} {UNITS[k]:<6}" + "".join(
            f"{summary[n][k]:>16.6g}" if k in summary[n] else f"{'-':>16}" for n in NAMES))
    with open(os.path.join(OUT, f"all-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="ascii") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {f"{n}:{k}": {"value": v, "unit": UNITS[k]}
                                  for n, m in summary.items() for k, v in m.items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop(WORKERS_ENV, None)
    sys.path.insert(0, SRC)
    try:
        import minleg.cli
    except ImportError as exc:
        print(f"error: cannot import minleg from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(minleg.cli.__file__))) != SRC:
        # An installed copy would be measured instead of this checkout.
        print(f"error: minleg imported from {minleg.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
