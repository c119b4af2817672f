"""Grid verification, quadrature and scan drivers.

verify_chart sweeps a chart on the grid of grid_axes, runs the checks that the
table "Report checks" of the README lists in report order (the pointwise
ones are the rows of CHECKS), and emits a deterministic report: fixed key
order, each float as its repr (the shortest text that reads back as the
same double), and a wall-time field that can be omitted so reports compare
byte-for-byte.

integral_p1 evaluates the integral obstruction

    int_M lambda_1 (n + 1 - |B|^2 - lambda_2) dM <= 0

by the product of the axes' rules of grid_axes, the midpoint rule on every
axis: spectrally accurate along periodic axes, O(h^2) along bounded ones, with
the volume factor sqrt(det G) from the analytic metric.  The omitted
gradient term of the full inequality is non-negative, so dropping it only
strengthens the <= 0 assertion.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

import numpy as np

from . import NumericalFailure, __version__, json_text, seeded_random
from .geometry import (
    ImmersionChart,
    evaluate_points,
    gauss_rank,
    legendrian_residual,
    mesh_rows,
    metric_factor,
    minimality_residual,
    point_data,
    scalar_curvature_intrinsic,
    sigma_symmetry_defect,
    simons_residual,
    sphere_residual,
)
from .zoo import ZooEntry

# d2F entries per batched evaluation.  A batch of B points holds B (2n+2) n^2
# of them, so low-dimensional charts get larger batches, and n >= 8 stays at
# the floor of SWEEP_MIN_BATCH points.  _sweep cuts the grid into C-order boxes
# of at most that many points, each evaluated as an open mesh; verify_chart's
# curvature samples and Simons point ride with the last box, as rows appended
# to its points.  Every point is computed independently of its batch or box,
# so the size bounds memory and never changes results.
SWEEP_ENTRIES = 2**17
SWEEP_MIN_BATCH = 128
SAMPLE_MARGIN = 0.05
GRID_CAP = 10_000


@dataclass(frozen=True)
class Tolerances:
    """The tolerance ladder; one knob per error class, never per check.

    geometry also judges the curvature oracle, which is exact from the jets
    like every other analytic-derivative check."""

    algebra: float = 1e-10       # closed-form linear algebra
    geometry: float = 1e-9       # analytic-derivative geometry: grids and curvature oracle
    quadrature: float = 1e-6     # grid-dependent integral residuals

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 <= value < math.inf:
                raise ValueError(f"tolerance {name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: points_per_dim midpoint nodes per axis (one count for
    every axis, or one per axis), GRID_CAP points in total at most.  seed
    drives verify's sampled checks; the nodes do not depend on it."""

    points_per_dim: int | tuple[int, ...] = 16
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got seed={self.seed}")

    def resolve(self, dim: int) -> tuple[int, ...]:
        if dim >= GRID_CAP.bit_length():  # 2**dim > GRID_CAP, without forming either
            raise ValueError(f"cap {GRID_CAP} cannot hold 2 points per dimension")
        ppd = self.points_per_dim
        counts = list(ppd) if isinstance(ppd, (tuple, list)) else [int(ppd)] * dim
        if len(counts) != dim:
            raise ValueError(f"grid gives {len(counts)} dims, chart has {dim}")
        if any(c < 2 for c in counts):
            raise ValueError("need at least 2 points per dimension")
        # A count above 2**53 counts as 2**53: the scaling below runs in floats, which
        # hold every integer up to it, and the product of 13 of them stays finite.
        counts = [min(c, 2**53) for c in counts]
        total = math.prod(counts)
        if total > GRID_CAP:
            factor = (GRID_CAP / total) ** (1.0 / dim)
            counts = [max(2, int(c * factor)) for c in counts]
            # Then take 1 from the largest count, the first of equal ones, until the
            # product fits.  That lowers the counts level by level, in axis order
            # within a level: it caps axis i at (p + i) // dim as p falls from
            # dim * max(counts), and stops at the largest p whose product fits.
            trimmed = lambda p: [min(c, (p + i) // dim) for i, c in enumerate(counts)]
            p = 2 * dim - 1 + bisect.bisect_right(range(2 * dim, dim * max(counts) + 1), GRID_CAP,
                                                  key=lambda p: math.prod(trimmed(p)))
            counts = trimmed(p)
        return tuple(counts)

    def echo(self, dim: int) -> dict:
        """The grid as the report states it, in Python ints (a numpy integer
        seed or count included), which json_text writes."""
        return {
            "points_per_dim": [int(c) for c in self.resolve(dim)],
            "seed": int(self.seed),
            "cap": GRID_CAP,
        }


def grid_axes(chart: ImmersionChart, spec: GridSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(nodes, weights), one array of each per axis: the one quadrature rule of
    the sweeps, the midpoint rule, with nodes lo + (i + 1/2) h and weights h."""
    counts = spec.resolve(chart.dim)
    steps = [iv.span / c for iv, c in zip(chart.domain, counts)]
    nodes = [iv.lo + (np.arange(c) + 0.5) * h for iv, c, h in zip(chart.domain, counts, steps)]
    return nodes, [np.full(c, h) for c, h in zip(counts, steps)]


def grid_points(chart: ImmersionChart, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights): the product of the axes' rules, flattened in C
    order, each weight formed left to right over the axes."""
    nodes, weights = grid_axes(chart, spec)
    return mesh_rows(np.ix_(*nodes)), math.prod(np.ix_(*weights)).ravel()


def sample_points(chart: ImmersionChart, count: int, seed: int) -> np.ndarray:
    """Seeded uniform interior samples, shape (count, dim); non-periodic axes
    keep a pole margin of SAMPLE_MARGIN of their span at either end.  The
    generator is seeded_random(seed, dim, count); it draws axis by axis in
    domain order, count values lo + (hi - lo) * random() per axis."""
    rng = seeded_random(seed, chart.dim, count)
    cols = []
    for iv in chart.domain:
        pad = 0.0 if iv.periodic else SAMPLE_MARGIN * iv.span
        lo, hi = iv.lo + pad, iv.hi - pad
        cols.append(np.fromiter((lo + (hi - lo) * rng.random() for _ in range(count)),
                                float, count))
    return np.stack(cols, axis=1)


# ---- grid sweep --------------------------------------------------------------


def _batch_size(n: int) -> int:
    """max(SWEEP_MIN_BATCH, SWEEP_ENTRIES // ((2n+2) n^2)) points."""
    return max(SWEEP_MIN_BATCH, SWEEP_ENTRIES // ((2 * n + 2) * n * n))


def _boxes(counts: tuple[int, ...], size: int) -> list[tuple[slice, ...]]:
    """The grid with these counts cut into C-order boxes of at most size
    points.  A box fixes the indices of the leading axes, takes a range along
    one axis k and the whole of the axes after k, so it is a contiguous run of
    grid_points.  k is the first axis whose trailing axes fit in one box; its
    ranges are equal to within one index."""
    k = next(k for k in range(len(counts)) if math.prod(counts[k + 1:]) <= size)
    pieces = -(-counts[k] // (size // math.prod(counts[k + 1:])))
    cuts = [j * counts[k] // pieces for j in range(pieces + 1)]
    rest = (slice(None),) * (len(counts) - k - 1)
    return [tuple(slice(i, i + 1) for i in prefix) + (slice(lo, hi),) + rest
            for prefix in np.ndindex(*counts[:k]) for lo, hi in zip(cuts, cuts[1:])]


def _sweep(chart: ImmersionChart, spec: GridSpec, extra: np.ndarray | None = None):
    """(u, w) for each box of the grid in C order: u is the box as an open
    mesh, w the product weights of its points, flattened in C order.  Extra
    rows ride with the last box, which then comes as one point stack: its grid
    rows in C order, then the extra rows, which get no weight."""
    nodes, weights = grid_axes(chart, spec)
    boxes = _boxes(tuple(len(a) for a in nodes), _batch_size(chart.dim))
    meshes = [np.ix_(*(a[s] for a, s in zip(nodes, box))) for box in boxes]
    if extra is not None:
        meshes[-1] = np.concatenate([mesh_rows(meshes[-1]), extra])
    for u, box in zip(meshes, boxes):
        yield u, math.prod(np.ix_(*(w[s] for w, s in zip(weights, box)))).ravel()


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


# The pointwise checks in report order: (name, tolerance, residual).  The
# tolerance names a Tolerances class, or value_tol: such a row compares with a
# ZooEntry's expected values and runs only when one is given.  The residual maps
# a batch's PointData and the entry to one value per point; its maximum over the
# grid, clipped below at 0, is the check's residual.  Each row looks its
# functions up when it runs, so the tracer of bench/spans.py sees their calls.
CHECKS = (
    ("sphere", "geometry", lambda pd, e: sphere_residual(pd.frame.F, pd.jac)),
    ("legendrian", "geometry", lambda pd, e: legendrian_residual(pd.frame)),
    ("minimality", "geometry", lambda pd, e: minimality_residual(pd.sigma)),
    ("sigma_symmetry", "geometry", lambda pd, e: sigma_symmetry_defect(pd.sigma)),
    ("psd", "algebra", lambda pd, e: -pd.spectrum.lambdas[:, -1]),
    ("pinch_expected", "value_tol", lambda pd, e: np.abs(pd.spectrum.pinch - e.pinch)),
    ("normB2_expected", "value_tol", lambda pd, e: np.abs(pd.spectrum.normB2 - e.normB2)),
    ("lambdas_expected", "value_tol", lambda pd, e: np.abs(pd.spectrum.lambdas - e.lambdas).max(axis=1)),
)


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
        return json_text(doc)


def _fmt_float(x: float) -> str:
    """repr(x), the shortest text that reads back as x; a NaN or an infinity
    is a NumericalFailure."""
    if not math.isfinite(x):
        raise NumericalFailure("reports must not contain NaN or infinity")
    return repr(x)


def verify_chart(
    entry: ZooEntry | ImmersionChart,
    grid: GridSpec = GridSpec(),
    tolerances: Tolerances = Tolerances(),
) -> VerificationReport:
    """Run the full pointwise and per-chart check battery.

    Accepts a ZooEntry (expected-value checks included) or a bare chart
    (structural checks only).  The sphere check is listed first: a chart off
    the unit sphere voids every check below it.  The Legendrian gate comes
    next: if it fails, every sigma-derived number below it is untrusted and
    the report fails as a whole.
    """
    t0 = time.perf_counter()
    expected = entry if isinstance(entry, ZooEntry) else None
    chart = entry.chart if isinstance(entry, ZooEntry) else entry
    table = [row for row in CHECKS if expected is not None or row[1] != "value_tol"]
    simons = expected is not None
    spts = sample_points(chart, 20, seed=grid.seed + 7)
    extra = np.concatenate([spts, sample_points(chart, 1, seed=grid.seed + 101)]) if simons else spts
    # One sweep of the grid, with the curvature samples and then the Simons
    # point riding as extra rows of the last box; every check of the table,
    # rank and spectrum reads the grid rows only.
    parts = []
    for u, w in _sweep(chart, grid, extra):
        pd = point_data(chart, u)
        sp = pd.spectrum
        parts.append((w, sp.lambdas, sp.normB2, sp.pinch, pd.frame.vol, gauss_rank(sp),
                      *(residual(pd, expected) for _, _, residual in table)))
    wts, *columns = _concat(parts)
    lambdas, normB2, pinch, sqrtdetg, ranks, *residuals = (column[:len(wts)] for column in columns)
    # the curvature samples go to the oracle with the last box's jets and its
    # factor of their metric, and their Gauss target n(n-1) - |B|^2 comes from
    # the same rows of its spectrum
    s = slice(len(pd.jac) - len(extra), len(pd.jac) - len(extra) + len(spts))
    r_intrinsic = scalar_curvature_intrinsic(chart, spts, jets=(pd.jac[s], pd.hess[s], pd.frame.a[s]))
    r_gauss = chart.dim * (chart.dim - 1.0) - pd.spectrum.normB2[s]

    checks: list[CheckResult] = []

    def add(name, residual, tolerance, hard=True):
        residual, tolerance = float(residual), float(tolerance)
        checks.append(CheckResult(name, residual, tolerance, residual <= tolerance, hard))

    for (name, tol, _), column in zip(table, residuals):
        add(name, max(0.0, column.max()), getattr(expected if tol == "value_tol" else tolerances, tol))
    add("gauss_rank", np.count_nonzero(ranks != (ranks[0] if expected is None else expected.gauss_rank)), 0.5)

    if simons:
        # the Simons point is the last row of the last box
        add("simons", simons_residual(pd.sigma[-1]), expected.simons_tol, hard=expected.simons_hard)

    add("scalar_curvature", np.max(np.abs(r_intrinsic - r_gauss)), tolerances.geometry)

    integrals = {}
    if chart.closed:
        integrals["p1"], integrals["volume"] = _p1_and_volume(lambdas, normB2, sqrtdetg, wts)
        add("integral_p1_nonpositive", max(0.0, integrals["p1"]), tolerances.quadrature)

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


def integral_p1(chart: ImmersionChart, grid: GridSpec = GridSpec()) -> float:
    """Quadrature of lambda_1 (n + 1 - |B|^2 - lambda_2) over the chart, with
    the product weights of grid_axes' rules."""
    if not chart.closed:
        raise ValueError(f"chart {chart.name} does not cover a closed manifold")
    parts = []
    for u, w in _sweep(chart, grid):
        pd = point_data(chart, u)
        parts.append((pd.spectrum.lambdas, pd.spectrum.normB2, pd.frame.vol, w))
    return _p1_and_volume(*_concat(parts))[0]


def chart_volume(chart: ImmersionChart, grid: GridSpec = GridSpec()) -> float:
    """Quadrature of sqrt(det G); doubling the grid should barely move it."""
    parts = []
    for u, w in _sweep(chart, grid):
        pts, _, jac, _ = evaluate_points(chart, u)
        parts.append((metric_factor(pts, jac)[3], w))
    sqrtdetg, wts = _concat(parts)
    return float(np.sum(sqrtdetg * wts))


QUANTITIES = ("pinch", "normB2", "R_plus_mu2")


@dataclass(frozen=True)
class ScanResult:
    quantity: str
    points: np.ndarray
    values: np.ndarray
    vmin: float
    vmax: float


def pinching_scan(chart: ImmersionChart, grid: GridSpec = GridSpec(),
                  quantity: str = "pinch") -> ScanResult:
    """Tabulate a spectral quantity over the grid: pinch, normB2, R_plus_mu2
    (n^2 - 1 - pinch by the Gauss equation, not a Ricci curvature computed on
    its own), or lambda_k for k in 1..n, written in ASCII digits with no sign
    or leading zero.  Any other name is a ValueError, raised before the sweep."""
    n = chart.dim
    if quantity in ("pinch", "R_plus_mu2"):
        column = lambda sp: sp.pinch
    elif quantity == "normB2":
        column = lambda sp: sp.normB2
    elif quantity in [f"lambda_{k}" for k in range(1, n + 1)]:
        k = int(quantity[len("lambda_"):])
        column = lambda sp: sp.lambdas[:, k - 1]
    else:
        raise ValueError(f"unknown quantity {quantity!r}; use one of "
                         f"{', '.join(QUANTITIES)} or lambda_<k> with k in 1..{n}")
    pts, _ = grid_points(chart, grid)
    values = np.concatenate([column(point_data(chart, u).spectrum) for u, _ in _sweep(chart, grid)])
    if quantity == "R_plus_mu2":
        values = (n * n - 1.0) - values
    return ScanResult(quantity, pts, values, float(values.min()), float(values.max()))


def scan_to_csv(scan: ScanResult) -> str:
    """One row per point: its coordinates and the value, each as its repr,
    the shortest text that reads back as the same double.  Every distinct
    number of a column (by bits: -0.0 is not 0.0) is formatted once: a grid
    repeats each node along its axis, and a scan's values repeat wherever the
    quantity is constant up to rounding."""
    dim = scan.points.shape[1]
    header = ",".join([f"u{i + 1}" for i in range(dim)] + ["value"])
    columns = []
    for column in np.vstack((np.asarray(scan.points, dtype=float).T, np.asarray(scan.values, dtype=float))):
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        text = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
        columns.append(text[inverse].tolist())
    return "\n".join([header] + [",".join(r) for r in zip(*columns)]) + "\n"
