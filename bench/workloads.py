"""The benchmark's workloads: minleg command lines and the check of each output.

Every operation is an argv for ``minleg.cli.main``.  The workload seed goes
to the program only as its ``--seed`` flag.  Each check takes the exit code,
stdout and stderr of one call and returns None when the output is right, or
a one-line reason when it is not.  The expected values come from the zoo's
known answers and the ``Tolerances`` ladder; the reference volume of an
``integral`` check is computed once here, before anything is timed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable

from minleg.verify import GridSpec, Tolerances, chart_volume
from minleg.zoo import PARAMETRIC, default_entries, get_entry

# Stalled restarts (MAX_ITERS steps at a gap near 0.59, about 6 % of restarts
# at n=4, profile 1,1,1) must show up on almost every seed: the chance of none
# in 48 restarts is about 4 %, where with the default of 20 it is a third.
# More restarts would push a seed with many stalls past the run time limit.
LU_RESTARTS = 48
LU_GAP = 1e-6
SWEEP_CASES = (("equivariant-s3", None, 10), ("calabi", 4, 5))
ZOO_GRID = 4


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[int, str, str], str | None]
    grid: tuple = ()  # resolved points per dimension; empty when no grid

    @property
    def points(self) -> int:
        return math.prod(self.grid) if self.grid else 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # what items_per_s counts
    ops: tuple


def _example_args(example: str, n: int | None) -> list[str]:
    return ["--example", example] + ([] if n is None else ["--n", str(n)])


def _zoo_args(entry) -> tuple[str, int | None]:
    """CLI --example/--n that rebuild a default_entries() member."""
    m = re.fullmatch(r"(.+)-n(\d+)", entry.name)
    if m and m.group(1) in PARAMETRIC:
        return m.group(1), int(m.group(2))
    return entry.name, None


def _exit_ok(rc: int) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def _integral_check(entry, spec: GridSpec):
    n = entry.chart.dim
    lam = entry.lambdas
    # The zoo's spectra are constant, so p1 is the constant integrand times
    # the volume: -32/3 vol on equivariant-s3 and 0 on the Calabi tori.
    volume = chart_volume(entry.chart, spec)
    expected = lam[0] * (n + 1.0 - entry.normB2 - lam[1]) * volume
    tol = Tolerances.quadrature * volume

    def check(rc, out, err):
        bad = _exit_ok(rc)
        if bad:
            return bad
        p1 = float(out)
        if not abs(p1 - expected) <= tol:
            return f"p1 = {p1!r}, expected {expected!r} within {tol:.3g}"
        return None
    return check


def _scan_check(entry, points: int):
    def check(rc, out, err):
        bad = _exit_ok(rc)
        if bad:
            return bad
        rows = out.count("\n") - 1
        if rows != points:
            return f"scan printed {rows} rows for a {points}-point grid"
        m = re.fullmatch(r"pinch: min=(\S+) max=(\S+)\n", err)
        if not m:
            return f"unexpected stderr {err!r}"
        for value in map(float, m.groups()):
            if not abs(value - entry.pinch) <= entry.value_tol:
                return f"pinch {value!r} not within {entry.value_tol} of {entry.pinch}"
        return None
    return check


def _verify_check(grid: tuple):
    def check(rc, out, err):
        bad = _exit_ok(rc)
        if bad:
            return bad
        doc = json.loads(out)
        if doc["pass"] is not True:
            return "report does not pass"
        if tuple(doc["grid"]["points_per_dim"]) != grid:
            return f"echoed grid {doc['grid']['points_per_dim']} != resolved {list(grid)}"
        return None
    return check


def _lu_check(rc, out, err):
    bad = _exit_ok(rc)
    if bad:
        return bad
    gap = json.loads(out)["gap"]
    return None if gap <= LU_GAP else f"gap {gap!r} > {LU_GAP}"


def sweep(seed: int) -> Workload:
    ops = []
    for example, n, grid in SWEEP_CASES:
        entry = get_entry(example, n)
        spec = GridSpec(points_per_dim=grid, seed=seed)
        res = spec.resolve(entry.chart.dim)
        args = _example_args(example, n) + ["--grid", str(grid), "--seed", str(seed)]
        ops.append(Op(("integral", *args), _integral_check(entry, spec), res))
        ops.append(Op(("scan", *args, "--quantity", "pinch"),
                      _scan_check(entry, math.prod(res)), res))
    return Workload(
        "sweep",
        "per-point pipeline at fine grids: jets, frame, sigma, Jacobi and the thread pool; "
        "no curvature oracle, no optimizer",
        "grid points", tuple(ops))


def verify_zoo(seed: int) -> Workload:
    ops = []
    for entry in default_entries():
        example, n = _zoo_args(entry)
        if get_entry(example, n).name != entry.name:
            raise RuntimeError(f"cannot rebuild zoo entry {entry.name} from the CLI")
        res = GridSpec(points_per_dim=ZOO_GRID, seed=seed).resolve(entry.chart.dim)
        argv = ("verify", "--no-timing", *_example_args(example, n),
                "--grid", str(ZOO_GRID), "--seed", str(seed))
        ops.append(Op(argv, _verify_check(res), res))
    return Workload(
        "verify-zoo",
        "every zoo entry at a coarse grid: mostly the curvature oracle and sample-point "
        "extras, which call jets one point at a time",
        "grid points", tuple(ops))


def lu_search(seed: int) -> Workload:
    argv = ("lu", "search", "--n", "4", "--profile", "1,1,1",
            "--restarts", str(LU_RESTARTS), "--seed", str(seed))
    return Workload(
        "lu-search",
        "projected-gradient extremal search only (no chart), with restarts that stall "
        "to MAX_ITERS",
        "gradient steps", (Op(argv, _lu_check),))


WORKLOADS = {"sweep": sweep, "verify-zoo": verify_zoo, "lu-search": lu_search}
