"""Grid verification, quadrature and scan drivers.

verify_chart sweeps a chart on an offset grid, evaluates every pointwise
check (contact conditions, minimality, symmetry of the cubic form, positive
semidefiniteness, expected spectral data, Gauss-rank stability), runs the
per-chart extras (Simons-type identity where the example has parallel cubic
form, the intrinsic scalar-curvature oracle at seeded points), and emits a
deterministic report: fixed key order, floats at 17 significant digits, and
a wall-time field that can be omitted so reports compare byte-for-byte.

integral_p1 evaluates the integral obstruction

    int_M lambda_1 (n + 1 - |B|^2 - lambda_2) dM <= 0

by product quadrature: offset grids give the midpoint rule transverse to the
periodic directions and an equally-weighted (spectrally accurate) rule along
them, with the volume factor sqrt(det G) from the analytic metric.  The
omitted gradient term of the full inequality is non-negative, so dropping it
only strengthens the <= 0 assertion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .geometry import (
    ImmersionChart,
    gauss_rank,
    induced_metric,
    legendrian_residual,
    minimality_residual,
    point_data,
    scalar_curvature_intrinsic,
    sigma_symmetry_defect,
    simons_residual,
)
from .zoo import ZooEntry

# d2F entries per batched evaluation.  A batch of B points holds B (2n+2) n^2
# of them, so low-dimensional charts get larger batches, and n >= 5 stays at
# the floor of SWEEP_MIN_BATCH points.  Every point is computed independently
# of its batch, so the batch size bounds memory and never changes results.
SWEEP_ENTRIES = 2**15
SWEEP_MIN_BATCH = 128
SAMPLE_MARGIN = 0.05


@dataclass(frozen=True)
class Tolerances:
    """The tolerance ladder; one knob per error class, never per check."""

    algebra: float = 1e-10       # closed-form linear algebra
    geometry: float = 1e-9       # analytic-derivative geometry on grids
    curvature: float = 1e-4      # curvature oracle (exact metric, differenced Christoffels)
    quadrature: float = 1e-6     # grid-dependent integral residuals


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: half-step offset from interval endpoints by default,
    optional deterministic jitter, total size capped."""

    points_per_dim: int | tuple[int, ...] = 16
    offset: bool = True
    seed: int = 0
    cap: int = 10_000
    jitter: bool = False

    def resolve(self, dim: int) -> tuple[int, ...]:
        ppd = self.points_per_dim
        counts = list(ppd) if isinstance(ppd, (tuple, list)) else [int(ppd)] * dim
        if len(counts) != dim:
            raise ValueError(f"grid gives {len(counts)} dims, chart has {dim}")
        if any(c < 2 for c in counts):
            raise ValueError("need at least 2 points per dimension")
        total = math.prod(counts)
        if total > self.cap:
            if self.cap < 2**dim:
                raise ValueError(f"cap {self.cap} cannot hold 2 points per dimension")
            factor = (self.cap / total) ** (1.0 / dim)
            counts = [max(2, int(c * factor)) for c in counts]
            while math.prod(counts) > self.cap:
                counts[int(np.argmax(counts))] -= 1
        return tuple(counts)

    def echo(self, dim: int) -> dict:
        return {
            "points_per_dim": list(self.resolve(dim)),
            "offset": self.offset,
            "jitter": self.jitter,
            "seed": self.seed,
            "cap": self.cap,
        }


def grid_points(chart: ImmersionChart, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights): flattened product grid and quadrature weights."""
    counts = spec.resolve(chart.dim)
    axes, waxes = [], []
    for iv, c in zip(chart.domain, counts):
        if spec.offset:
            h = iv.span / c
            nodes = iv.lo + (np.arange(c) + 0.5) * h
            weights = np.full(c, h)
        elif iv.periodic:
            h = iv.span / c
            nodes = iv.lo + np.arange(c) * h
            weights = np.full(c, h)
        else:
            h = iv.span / (c - 1)
            nodes = np.linspace(iv.lo, iv.hi, c)
            weights = np.full(c, h)
            weights[0] = weights[-1] = h / 2.0
        axes.append(nodes)
        waxes.append(weights)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel(order="C") for m in mesh], axis=1)
    wmesh = np.meshgrid(*waxes, indexing="ij")
    wts = np.prod(np.stack([m.ravel(order="C") for m in wmesh], axis=1), axis=1)
    if spec.jitter:
        if not spec.offset:
            raise ValueError("jitter requires offset grids")
        rng = np.random.default_rng([spec.seed, 0x9E3779B9])
        h = np.array([iv.span / c for iv, c in zip(chart.domain, counts)])
        pts = pts + rng.uniform(-0.45, 0.45, size=pts.shape) * h
    return pts, wts


def sample_points(chart: ImmersionChart, count: int, seed: int) -> np.ndarray:
    """Seeded uniform interior samples; non-periodic axes keep a pole margin
    of SAMPLE_MARGIN of their span at either end."""
    rng = np.random.default_rng([seed, chart.dim, count])
    cols = []
    for iv in chart.domain:
        pad = 0.0 if iv.periodic else SAMPLE_MARGIN * iv.span
        cols.append(rng.uniform(iv.lo + pad, iv.hi - pad, size=count))
    return np.stack(cols, axis=1)


# ---- grid sweep --------------------------------------------------------------


def _batches(pts: np.ndarray) -> list[np.ndarray]:
    """pts split in grid order into equal batches of at most
    max(SWEEP_MIN_BATCH, SWEEP_ENTRIES // ((2n+2) n^2)) points."""
    n = pts.shape[1]
    size = max(SWEEP_MIN_BATCH, SWEEP_ENTRIES // ((2 * n + 2) * n * n))
    return np.array_split(pts, -(-pts.shape[0] // size))


def _sweep(chart: ImmersionChart, pts: np.ndarray):
    """point_data of each batch of pts, in grid order; each driver keeps
    only the columns it reads."""
    for batch in _batches(pts):
        yield point_data(chart, batch)


def _concat(parts) -> list[np.ndarray]:
    """Per-batch tuples of columns, joined column by column."""
    return [np.concatenate(column) for column in zip(*parts)]


def _p1_and_volume(lambdas: np.ndarray, normB2: np.ndarray, sqrtdetg: np.ndarray,
                   wts: np.ndarray) -> tuple[float, float]:
    """(p1, volume): quadratures of lambda_1 (n + 1 - |B|^2 - lambda_2) dM and of dM."""
    n = lambdas.shape[1]
    integrand = lambdas[:, 0] * (n + 1.0 - normB2 - lambdas[:, 1])
    return float(np.sum(integrand * sqrtdetg * wts)), float(np.sum(sqrtdetg * wts))


# ---- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    hard: bool = True


@dataclass
class VerificationReport:
    tool_version: str
    chart: str
    grid: dict
    checks: list
    spectra: dict
    integrals: dict
    passed: bool
    wall_time: float | None = None

    def to_text(self, include_timing: bool = True) -> str:
        doc = {
            "tool_version": self.tool_version,
            "chart": self.chart,
            "grid": self.grid,
            "checks": [
                {
                    "name": c.name,
                    "max_residual": c.max_residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    "hard": c.hard,
                }
                for c in self.checks
            ],
            "spectra": self.spectra,
            "integrals": self.integrals,
            "pass": self.passed,
        }
        if include_timing and self.wall_time is not None:
            doc["wall_time"] = self.wall_time
        return _render(doc) + "\n"


def _fmt_float(x: float) -> str:
    if x != x or math.isinf(x):
        raise ValueError("reports must not contain NaN or infinity")
    return f"{x:.17g}"


def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {_render(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj)!r}")


def verify_chart(
    entry: ZooEntry | ImmersionChart,
    grid: GridSpec | None = None,
    tolerances: Tolerances | None = None,
) -> VerificationReport:
    """Run the full pointwise and per-chart check battery.

    Accepts a ZooEntry (expected-value checks included) or a bare chart
    (structural checks only).  The Legendrian gate is listed first: if it
    fails, every sigma-derived number below it is untrusted and the report
    fails as a whole.
    """
    t0 = time.perf_counter()
    tol = tolerances or Tolerances()
    grid = grid or GridSpec()
    expected = entry if isinstance(entry, ZooEntry) else None
    chart = entry.chart if isinstance(entry, ZooEntry) else entry
    pts, wts = grid_points(chart, grid)
    size = pts.shape[0]
    simons = expected is not None and expected.simons_tol is not None
    spts = sample_points(chart, 20, seed=grid.seed + 7)
    # One batched pass over the grid rows, then the curvature samples, then the
    # Simons point; every residual, rank and spectrum reads the grid rows only.
    rows = [pts, spts]
    if simons:
        rows.append(sample_points(chart, 1, seed=grid.seed + 101))
    parts = []
    for pd in _sweep(chart, np.concatenate(rows)):
        sp = pd.spectrum
        parts.append((sp.lambdas, sp.normB2, sp.pinch, pd.frame.vol, gauss_rank(sp),
                      legendrian_residual(pd.frame), minimality_residual(pd.sigma),
                      sigma_symmetry_defect(pd.sigma), sp.scalar))
    *columns, scalar = _concat(parts)
    lambdas, normB2, pinch, sqrtdetg, ranks, legendrian, minimality, symmetry = (
        column[:size] for column in columns)
    r_gauss = scalar[size:size + len(spts)]

    checks: list[CheckResult] = []

    def add(name, residual, tolerance, hard=True):
        residual = float(residual)
        checks.append(CheckResult(name, residual, float(tolerance), residual <= tolerance, hard))

    add("legendrian", legendrian.max(), tol.geometry)
    add("minimality", minimality.max(), tol.geometry)
    add("sigma_symmetry", symmetry.max(), tol.geometry)
    add("psd", max(0.0, -float(lambdas[:, -1].min())), tol.algebra)

    if expected is not None:
        add("pinch_expected", np.max(np.abs(pinch - expected.pinch)), expected.value_tol)
        add("normB2_expected", np.max(np.abs(normB2 - expected.normB2)), expected.value_tol)
        add(
            "lambdas_expected",
            np.max(np.abs(lambdas - np.asarray(expected.lambdas))),
            expected.value_tol,
        )
        add("gauss_rank", np.count_nonzero(ranks != expected.gauss_rank), 0.5)
    else:
        add("gauss_rank", np.count_nonzero(ranks != ranks[0]), 0.5)

    if simons:
        # the Simons point is the last row of the last batch
        add("simons", simons_residual(pd.sigma[-1]), expected.simons_tol, hard=expected.simons_hard)

    r_intrinsic = scalar_curvature_intrinsic(chart, spts)
    add("scalar_curvature", np.max(np.abs(r_intrinsic - r_gauss)), tol.curvature)

    integrals = {}
    if chart.closed:
        integrals["p1"], integrals["volume"] = _p1_and_volume(lambdas, normB2, sqrtdetg, wts)
        add("integral_p1_nonpositive", max(0.0, integrals["p1"]), tol.quadrature)

    spectra = {
        "lambda_min": [float(x) for x in lambdas.min(axis=0)],
        "lambda_max": [float(x) for x in lambdas.max(axis=0)],
        "normB2_min": float(normB2.min()),
        "normB2_max": float(normB2.max()),
        "pinch_min": float(pinch.min()),
        "pinch_max": float(pinch.max()),
    }
    passed = all(c.passed for c in checks if c.hard)
    return VerificationReport(
        tool_version=__version__,
        chart=chart.name,
        grid=grid.echo(chart.dim),
        checks=checks,
        spectra=spectra,
        integrals=integrals,
        passed=passed,
        wall_time=time.perf_counter() - t0,
    )


def integral_p1(chart: ImmersionChart, grid: GridSpec | None = None) -> float:
    """Quadrature of lambda_1 (n + 1 - |B|^2 - lambda_2) over the chart."""
    if not chart.closed:
        raise ValueError(f"chart {chart.name} does not cover a closed manifold")
    grid = grid or GridSpec()
    pts, wts = grid_points(chart, grid)
    columns = _concat((pd.spectrum.lambdas, pd.spectrum.normB2, pd.frame.vol)
                      for pd in _sweep(chart, pts))
    return _p1_and_volume(*columns, wts)[0]


def chart_volume(chart: ImmersionChart, grid: GridSpec | None = None) -> float:
    """Quadrature of sqrt(det G); doubling the grid should barely move it."""
    grid = grid or GridSpec()
    pts, wts = grid_points(chart, grid)
    vols = [induced_metric(batch, chart.jet_eval(batch)[1])[1] for batch in _batches(pts)]
    return float(np.sum(np.concatenate(vols) * wts))


QUANTITIES = ("pinch", "normB2", "R_plus_mu2")


@dataclass(frozen=True)
class ScanResult:
    quantity: str
    points: np.ndarray
    values: np.ndarray
    vmin: float
    vmax: float


def pinching_scan(chart: ImmersionChart, grid: GridSpec | None = None,
                  quantity: str = "pinch") -> ScanResult:
    """Tabulate a spectral quantity over the grid: pinch, normB2, R_plus_mu2,
    or lambda_k (1-based k)."""
    n = chart.dim
    if quantity in ("pinch", "R_plus_mu2"):
        column = lambda sp: sp.pinch
    elif quantity == "normB2":
        column = lambda sp: sp.normB2
    elif quantity.startswith("lambda_"):
        k = int(quantity.split("_", 1)[1])
        if not 1 <= k <= n:
            raise ValueError(f"lambda index out of range 1..{n}")
        column = lambda sp: sp.lambdas[:, k - 1]
    else:
        raise ValueError(f"unknown quantity {quantity!r}; use one of "
                         f"{', '.join(QUANTITIES)} or lambda_<k>")
    grid = grid or GridSpec()
    pts, _ = grid_points(chart, grid)
    values = np.concatenate([column(pd.spectrum) for pd in _sweep(chart, pts)])
    if quantity == "R_plus_mu2":
        # pinch + (R + mu_2) = n^2 - 1 pointwise
        values = (n * n - 1.0) - values
    return ScanResult(quantity, pts, values, float(values.min()), float(values.max()))


def scan_to_csv(scan: ScanResult) -> str:
    dim = scan.points.shape[1]
    header = ",".join([f"u{i + 1}" for i in range(dim)] + ["value"])
    row = ",".join(["{:.17g}"] * (dim + 1)).format
    rows = np.column_stack((scan.points, scan.values)).tolist()
    return "\n".join([header] + [row(*r) for r in rows]) + "\n"
