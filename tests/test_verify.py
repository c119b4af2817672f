import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from minleg import NumericalFailure, geometry, json_text, verify, zoo
from minleg.geometry import (
    DegeneratePointError,
    ImmersionChart,
    Interval,
    legendrian_residual,
    minimality_residual,
    point_data,
    scalar_curvature_intrinsic,
    sigma_symmetry_defect,
)
from minleg.verify import (
    GridSpec,
    Tolerances,
    chart_volume,
    grid_points,
    integral_p1,
    pinching_scan,
    sample_points,
    scan_to_csv,
    verify_chart,
)


def test_gridspec_resolve():
    assert GridSpec(points_per_dim=8).resolve(3) == (8, 8, 8)
    assert GridSpec(points_per_dim=(4, 6)).resolve(2) == (4, 6)
    # 24^3 = 13824 exceeds the cap, shrink to 21^3 = 9261
    assert GridSpec(points_per_dim=24).resolve(3) == (21, 21, 21)
    assert math.prod(GridSpec(points_per_dim=100).resolve(4)) <= verify.GRID_CAP == 10_000
    # counts beyond the float range resolve within the cap and the floor of 2
    assert GridSpec(points_per_dim=10**400).resolve(3) == (21, 21, 21)
    assert GridSpec(points_per_dim=(10**10, 2)).resolve(2) == (5000, 2)
    for ppd, dim in (((2, 10**400, 5), 3), (10**400, 13), ((10**300, 10**300), 2)):
        counts = GridSpec(points_per_dim=ppd).resolve(dim)
        assert min(counts) >= 2 and math.prod(counts) <= verify.GRID_CAP


def test_gridspec_validation(monkeypatch):
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=(8, 8)).resolve(3)
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=1).resolve(2)
    # verify draws its samples from seeds seed + 7 and seed + 101
    with pytest.raises(ValueError, match="seed=-1"):
        GridSpec(seed=-1)
    monkeypatch.setattr(verify, "GRID_CAP", 7)
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=16).resolve(3)
    monkeypatch.setattr(verify, "GRID_CAP", 8)
    assert GridSpec(points_per_dim=16).resolve(3) == (2, 2, 2)


def _resolve_by_loop(counts, cap):
    """GridSpec.resolve as a shrink loop: scale every axis by one factor, then
    take 1 from the largest count, the first of equal ones, until the product
    fits the cap."""
    counts = list(counts)
    total = math.prod(counts)
    if total > cap:
        factor = (cap / total) ** (1.0 / len(counts))
        counts = [max(2, int(c * factor)) for c in counts]
        while math.prod(counts) > cap:
            counts[counts.index(max(counts))] -= 1
    return tuple(counts)


def test_gridspec_resolve_matches_shrink_loop():
    rng = random.Random(20)
    for dim in (1, 2, 3, 4):
        cases = [[v] * dim for v in (2, 3, 10, 21, 22, 24, 100, 101, 1000, 10**4, 2 * 10**4, 10**5)]
        cases += [[10**5] + [2] * (dim - 1), [2] * (dim - 1) + [10**5], [3, 10**5, 7, 2][:dim]]
        cases += [[rng.randint(2, 10**5) for _ in range(dim)] for _ in range(30)]
        cases += [[int(10 ** rng.uniform(0.31, 5)) for _ in range(dim)] for _ in range(60)]
        cases += [[rng.choice((2, 3, 10, 99, 100, 10**4, 10**5)) for _ in range(dim)] for _ in range(30)]
        for counts in cases:
            expected = _resolve_by_loop(counts, verify.GRID_CAP)
            assert GridSpec(points_per_dim=tuple(counts)).resolve(dim) == expected, counts


def test_grid_points_offset_measure():
    chart = zoo.calabi_torus(2).chart
    pts, wts = grid_points(chart, GridSpec(points_per_dim=9))
    assert pts.shape == (81, 2) and wts.shape == (81,)
    measure = math.prod(iv.span for iv in chart.domain)
    assert abs(wts.sum() - measure) < 1e-12 * measure
    for j, iv in enumerate(chart.domain):
        assert pts[:, j].min() > iv.lo and pts[:, j].max() < iv.hi


def test_sample_points():
    chart = zoo.geodesic_sphere(3).chart
    a = sample_points(chart, 40, seed=11)
    b = sample_points(chart, 40, seed=11)
    c = sample_points(chart, 40, seed=12)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.shape == (40, 3)
    for j, iv in enumerate(chart.domain):
        if not iv.periodic:
            pad = 0.05 * iv.span
            assert a[:, j].min() >= iv.lo + pad
            assert a[:, j].max() <= iv.hi - pad


_GRIDS = {
    "geodesic-sphere-n3": 6,
    "calabi-n2": 10,
    "calabi-n3": 6,
    "calabi-n4": 4,
    "equivariant-s3": 6,
    "flat-torus": 10,
}


def test_verify_chart_all_entries():
    for entry in zoo.default_entries():
        report = verify_chart(entry, GridSpec(points_per_dim=_GRIDS[entry.name]))
        failed = [c.name for c in report.checks if c.hard and not c.passed]
        assert report.passed, (entry.name, failed)
        assert report.chart == entry.name
        assert report.wall_time is not None and report.wall_time > 0.0
        if entry.chart.closed:
            assert "p1" in report.integrals and "volume" in report.integrals


def test_verify_report_structure():
    entry = zoo.calabi_torus(3)
    report = verify_chart(entry, GridSpec(points_per_dim=5))
    names = [c.name for c in report.checks]
    assert names == [
        "legendrian", "minimality", "sigma_symmetry", "psd",
        "pinch_expected", "normB2_expected", "lambdas_expected", "gauss_rank",
        "simons", "scalar_curvature", "integral_p1_nonpositive",
    ]
    text = report.to_text()
    keys = [ln.split('"')[1] for ln in text.splitlines() if ln.startswith('  "')]
    assert keys == ["tool_version", "chart", "grid", "checks", "spectra",
                    "integrals", "pass", "wall_time"]
    bare = report.to_text(include_timing=False)
    assert '"wall_time"' not in bare
    assert bare.endswith("\n")
    # spectra ranges honour the closed-form values
    assert abs(report.spectra["pinch_max"] - 4.0) < 1e-9
    assert abs(report.spectra["normB2_min"] - 10.0 / 3.0) < 1e-9


def test_verify_report_deterministic():
    entry = zoo.calabi_torus(3)
    spec = GridSpec(points_per_dim=5)
    a = verify_chart(entry, spec).to_text(include_timing=False)
    b = verify_chart(entry, spec).to_text(include_timing=False)
    assert a == b


def test_verify_bare_chart():
    report = verify_chart(zoo.flat_torus().chart, GridSpec(points_per_dim=8))
    names = [c.name for c in report.checks]
    assert report.passed
    assert names == ["legendrian", "minimality", "sigma_symmetry", "psd", "gauss_rank",
                     "scalar_curvature", "integral_p1_nonpositive"]


@pytest.mark.parametrize("value, passed", [(5e-7, True), (2e-6, False)])
def test_check_table_row_adds_a_check(monkeypatch, value, passed):
    # one row of the table is one check: at its position, with its class's tolerance
    row = ("extra", "quadrature", lambda pd, e: np.full(pd.sigma.shape[0], value))
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:4] + (row,) + verify.CHECKS[4:])
    report = verify_chart(zoo.calabi_torus(3), GridSpec(points_per_dim=4))
    assert [c.name for c in report.checks][3:6] == ["psd", "extra", "pinch_expected"]
    extra = report.checks[4]
    assert (extra.max_residual, extra.tolerance) == (value, Tolerances().quadrature)
    assert extra.hard and extra.passed == passed and report.passed == passed


def test_check_rows_look_up_residuals_when_they_run(monkeypatch):
    # the benchmark's tracer replaces verify.legendrian_residual at run time
    monkeypatch.setattr(verify, "legendrian_residual", lambda frame: np.ones(frame.vol.shape))
    report = verify_chart(zoo.calabi_torus(2), GridSpec(points_per_dim=4))
    legendrian = report.checks[0]
    assert legendrian.name == "legendrian" and legendrian.max_residual == 1.0
    assert not legendrian.passed and not report.passed


def test_verify_tolerance_failure():
    # at 2e-15 the grid residuals (legendrian, minimality and symmetry, at
    # most 8.9e-16 here) pass, and the exact oracle's gap of 4.4e-15 does not
    entry = zoo.calabi_torus(3)
    report = verify_chart(entry, GridSpec(points_per_dim=6),
                          Tolerances(geometry=2e-15))
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"scalar_curvature"}


def test_soft_check_does_not_fail_report():
    entry = zoo.equivariant_sphere3()
    report = verify_chart(entry, GridSpec(points_per_dim=5))
    simons = [c for c in report.checks if c.name == "simons"]
    assert len(simons) == 1 and not simons[0].hard
    assert not simons[0].passed  # residual near 6 against the 1e-8 budget
    assert report.passed


def test_render_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalFailure):
            verify._fmt_float(bad)
        with pytest.raises(NumericalFailure):
            json_text({"spectra": {"pinch_min": bad}})
    with pytest.raises(TypeError):
        json_text(object())


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _leaves(item)]
    return [obj]


def test_report_floats_print_as_their_repr():
    # every float of a report reads back as the report's own double, and its
    # text is repr(value); a float of integral value stays a JSON float
    for entry in zoo.default_entries():
        report = verify_chart(entry, GridSpec(points_per_dim=4))
        text = report.to_text(include_timing=False)
        want = _leaves([[(c.max_residual, c.tolerance) for c in report.checks],
                        report.spectra, report.integrals])
        got = [x for x in _leaves(json.loads(text)) if type(x) is float]
        tokens = [x for x in _leaves(json.loads(text, parse_float=lambda t: "float:" + t))
                  if isinstance(x, str) and x.startswith("float:")]
        assert [x.hex() for x in got] == [x.hex() for x in want], entry.name
        assert tokens == ["float:" + repr(x) for x in want], entry.name


def test_report_text_takes_numpy_scalars():
    # a numpy integer seed or count and a numpy float tolerance give the text
    # of the same Python numbers
    entry = zoo.flat_torus()
    text = verify_chart(entry, GridSpec((4, 5), seed=3)).to_text(include_timing=False)
    spec = GridSpec((np.int64(4), np.int64(5)), seed=np.int64(3))
    tol = Tolerances(geometry=np.float64(1e-9), algebra=np.float64(1e-10))
    assert verify_chart(entry, spec, tol).to_text(include_timing=False) == text


def test_integral_requires_closed():
    patch = ImmersionChart(
        "patch", 1, [Interval(0.0, 1.0)], lambda c: [c[0], c[0]], closed=False,
    )
    with pytest.raises(ValueError):
        integral_p1(patch)


def test_integral_p1_sphere_zero():
    chart = zoo.geodesic_sphere(3).chart
    assert abs(integral_p1(chart, GridSpec(points_per_dim=8))) <= 1e-12


def test_integral_p1_flat_examples():
    # pinch equals n + 1 pointwise, so the integrand vanishes identically
    assert abs(integral_p1(zoo.flat_torus().chart)) <= 1e-12
    assert abs(integral_p1(zoo.calabi_torus(3).chart, GridSpec(points_per_dim=8))) <= 1e-10


def test_integral_p1_equivariant(monkeypatch):
    monkeypatch.setattr(verify, "GRID_CAP", 40_000)
    chart = zoo.equivariant_sphere3().chart
    spec = GridSpec(points_per_dim=8)
    p1 = integral_p1(chart, spec)
    assert p1 < -1.0
    # the integrand is the constant -32/3: quadrature error cancels in the ratio
    ratio = p1 / chart_volume(chart, spec)
    assert abs(ratio + 32.0 / 3.0) <= 1e-8
    d1 = abs(integral_p1(chart, GridSpec(points_per_dim=16)) - p1)
    d2 = abs(
        integral_p1(chart, GridSpec(points_per_dim=32))
        - integral_p1(chart, GridSpec(points_per_dim=16))
    )
    assert d2 < 0.5 * d1  # second-order midpoint convergence


def test_chart_volume(monkeypatch):
    monkeypatch.setattr(verify, "GRID_CAP", 40_000)
    ft = zoo.flat_torus().chart
    exact = 4.0 * math.pi ** 2 / math.sqrt(3.0)
    assert abs(chart_volume(ft) - exact) <= 1e-12 * exact
    sph = zoo.geodesic_sphere(3).chart
    errs = [
        abs(chart_volume(sph, GridSpec(points_per_dim=c)) - 2.0 * math.pi ** 2)
        for c in (8, 16, 32)
    ]
    assert errs[1] < 0.3 * errs[0] and errs[2] < 0.3 * errs[1]


def test_pinching_scan_quantities():
    scan = pinching_scan(zoo.calabi_torus(5).chart, GridSpec(points_per_dim=3),
                         quantity="R_plus_mu2")
    assert np.max(np.abs(scan.values - 18.0)) < 1e-8
    scan = pinching_scan(zoo.geodesic_sphere(5).chart, GridSpec(points_per_dim=3),
                         quantity="R_plus_mu2")
    assert np.max(np.abs(scan.values - 24.0)) < 1e-8
    scan = pinching_scan(zoo.equivariant_sphere3().chart, GridSpec(points_per_dim=4),
                         quantity="R_plus_mu2")
    assert np.max(np.abs(scan.values)) < 1e-8
    scan = pinching_scan(zoo.calabi_torus(3).chart, GridSpec(points_per_dim=4),
                         quantity="lambda_1")
    assert np.max(np.abs(scan.values - 2.0)) < 1e-9
    assert scan.vmin == scan.values.min() and scan.vmax == scan.values.max()
    chart = zoo.calabi_torus(3).chart
    for bad in ("lambda_0", "lambda_4", "trace"):
        with pytest.raises(ValueError):
            pinching_scan(chart, GridSpec(points_per_dim=3), quantity=bad)


def test_scan_csv_format():
    scan = pinching_scan(zoo.flat_torus().chart,
                         GridSpec(points_per_dim=4), quantity="normB2")
    text = scan_to_csv(scan)
    lines = text.splitlines()
    assert lines[0] == "u1,u2,value"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert len(first) == 3
    assert abs(float(first[2]) - 2.0) < 1e-9
    assert text.endswith("\n")


def _reference_scan_to_csv(scan):
    """The earlier formatter: every number of every row formatted on its own."""
    dim = scan.points.shape[1]
    header = ",".join([f"u{i + 1}" for i in range(dim)] + ["value"])
    rows = np.column_stack((scan.points, scan.values)).tolist()
    return "\n".join([header] + [",".join(map(repr, r)) for r in rows]) + "\n"


def test_scan_csv_matches_reference_formatter():
    # each distinct number of a column, coordinate or value, is formatted once;
    # the bytes are those of formatting every number: on the scans of every zoo
    # entry, and on points and values off any grid with repeats, signed zeros
    # and non-finite values
    for entry in zoo.default_entries():
        for quantity in ("pinch", "lambda_2"):
            scan = pinching_scan(entry.chart, GridSpec(points_per_dim=(5, 3, 4, 2)[:entry.chart.dim]),
                                 quantity=quantity)
            assert scan_to_csv(scan) == _reference_scan_to_csv(scan), entry.name
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, -5e-324, 2.0 / 3.0, 1e300,
                     np.pi, np.inf, -np.inf, np.nan])
    points = rng.choice(pool, size=(60, 3))
    points[:, 1] = rng.uniform(-1.0, 1.0, 60)
    points[7] = points[8] = points[9]
    values = rng.choice(pool, size=60)
    scan = verify.ScanResult("pinch", points, values, 0.0, 0.0)
    text = scan_to_csv(scan)
    assert text == _reference_scan_to_csv(scan)
    assert {"0.0", "-0.0"} <= set(text.replace("\n", ",").split(","))


def test_sweep_chunk_size_invariant(monkeypatch):
    # every grid point is computed independently of the batch or box it lands
    # in, so report, integral and CSV bytes never depend on the batch size:
    # 1-point batches, batches of 13 and of 50 points (boxes that take a range
    # of one axis), and one whole-grid batch, on 2-, 3- and 4-D grids with a
    # different count per axis
    for entry in zoo.default_entries():
        n = entry.chart.dim
        spec = GridSpec(points_per_dim=(5, 4, 3, 2)[:n])
        dfe = (2 * n + 2) * n * n  # d2F entries per point
        outputs = []
        for floor, entries in ((1, 0), (1, 13 * dfe), (1, 50 * dfe), (120, 0)):
            monkeypatch.setattr(verify, "SWEEP_MIN_BATCH", floor)
            monkeypatch.setattr(verify, "SWEEP_ENTRIES", entries)
            outputs.append((
                verify_chart(entry, spec).to_text(include_timing=False),
                integral_p1(entry.chart, spec).hex(),
                chart_volume(entry.chart, spec).hex(),
                scan_to_csv(pinching_scan(entry.chart, spec, quantity="lambda_2")),
            ))
        assert all(out == outputs[0] for out in outputs[1:]), entry.name


def test_verify_evaluates_each_point_once(monkeypatch):
    # the curvature oracle reads the jets of the sweep, so verify_chart calls
    # jet_eval once per box of the grid: each box but the last as an open
    # mesh, and the last as a point stack of its grid rows, then the 20
    # curvature samples and the Simons point.  Every grid point and every
    # extra row is evaluated exactly once, in that order.
    calls = []
    jet_eval = ImmersionChart.jet_eval

    def recorded(self, u):
        mesh = isinstance(u, tuple)
        calls.append((mesh, geometry.mesh_rows(u) if mesh else np.array(u)))
        return jet_eval(self, u)

    monkeypatch.setattr(ImmersionChart, "jet_eval", recorded)
    default = (verify.SWEEP_MIN_BATCH, verify.SWEEP_ENTRIES)
    spec = GridSpec(points_per_dim=4)
    for entry in zoo.default_entries():
        chart, n = entry.chart, entry.chart.dim
        extra = [sample_points(chart, 20, seed=7), sample_points(chart, 1, seed=101)]
        pts, _ = grid_points(chart, spec)
        rows = np.concatenate([pts, *extra])
        for floor, entries in (default, (1, 13 * (2 * n + 2) * n * n)):
            monkeypatch.setattr(verify, "SWEEP_MIN_BATCH", floor)
            monkeypatch.setattr(verify, "SWEEP_ENTRIES", entries)
            calls.clear()
            verify_chart(entry, spec)
            sizes = [math.prod(len(range(4)[s]) for s in box)
                     for box in verify._boxes((4,) * n, verify._batch_size(n))]
            sizes[-1] += len(rows) - len(pts)
            assert [len(u) for _, u in calls] == sizes, entry.name
            assert [mesh for mesh, _ in calls] == [True] * (len(sizes) - 1) + [False], entry.name
            assert np.array_equal(np.concatenate([u for _, u in calls]), rows), entry.name


@pytest.mark.parametrize("entry, grid, boxes", [(zoo.equivariant_sphere3(), 4, 1), (zoo.calabi_torus(8), 3, 81)],
                         ids=["equivariant-s3", "calabi-n8"])
def test_verify_factors_each_metric_once(monkeypatch, entry, grid, boxes):
    # the oracle reads the sweep's factor of its samples' metric, so each box,
    # with curvature samples or without, makes one metric_factor call: one box
    # of 64 grid points and 21 extra rows, and 81 boxes of 81 grid points, the
    # 20 samples and the Simons point in the last
    calls = Counter()
    factor, data = geometry.metric_factor, verify.point_data

    def counted_factor(u, jac):
        calls["factor"] += 1
        return factor(u, jac)

    def counted_data(chart, u):
        calls["box"] += 1
        return data(chart, u)

    monkeypatch.setattr(geometry, "metric_factor", counted_factor)
    monkeypatch.setattr(verify, "point_data", counted_data)
    assert verify_chart(entry, grid=GridSpec(points_per_dim=grid, seed=0)).passed
    assert calls["factor"] == calls["box"] == boxes, calls


def test_degenerate_curvature_sample_names_its_point(monkeypatch):
    # a curvature sample on the pole of geodesic-sphere n=3 fails verify with
    # the message that the stand-alone oracle gives for it, naming that point
    entry, pole = zoo.geodesic_sphere(3), [0.0, 1.0, 1.0]
    draw = verify.sample_points

    def with_pole(chart, count, seed):
        pts = draw(chart, count, seed)
        if count == 20:
            pts[11] = pole
        return pts

    monkeypatch.setattr(verify, "sample_points", with_pole)
    with pytest.raises(DegeneratePointError) as want:
        scalar_curvature_intrinsic(entry.chart, with_pole(entry.chart, 20, 7))
    with pytest.raises(DegeneratePointError) as got:
        verify_chart(entry, grid=GridSpec(points_per_dim=4, seed=0))
    assert str(got.value) == str(want.value) and str(pole) in str(got.value)


def test_sweep_batch_rule():
    # a batch holds at most SWEEP_ENTRIES d2F entries, (2n+2) n^2 per point,
    # or the floor of 128 points, which n >= 8 keeps
    assert [verify._batch_size(n) for n in range(2, 9)] == [5461, 1820, 819, 436, 260, 167, 128]
    for n in range(2, 14):
        size = verify._batch_size(n)
        assert size == max(verify.SWEEP_MIN_BATCH, verify.SWEEP_ENTRIES // ((2 * n + 2) * n * n))
        assert (size == 128) == (n >= 8), n


@pytest.mark.parametrize("counts", [
    *(GridSpec(points_per_dim=g).resolve(n) for n in range(2, 14) for g in (2, 5, 10, 100)),
    (40, 2, 2), (2, 2, 300), (7, 3, 5), (2, 5000), (5000, 2), (3, 7, 2, 11), (2,) * 6 + (150,),
], ids=lambda c: "x".join(map(str, c)))
def test_sweep_boxes_tile_the_grid(counts):
    # the boxes of the sweep tile the grid in C order, each one a contiguous
    # run of grid_points within the batch budget
    size = verify._batch_size(len(counts))
    flat = []
    for box in verify._boxes(counts, size):
        idx = np.ravel_multi_index(np.ix_(*(range(c)[s] for c, s in zip(counts, box))), counts)
        assert 0 < idx.size <= size, box
        flat.append(idx.ravel())
    assert np.array_equal(np.concatenate(flat), np.arange(math.prod(counts)))
    # the ranges along the cut axis are equal to within one index
    assert len({idx.size for idx in flat}) <= 2


def test_drivers_share_one_sweep(monkeypatch):
    # verify_chart, integral_p1, chart_volume and pinching_scan read one sweep
    # of the grid, so verify's integrals and extremes have the other drivers'
    # bits, in whole boxes and in boxes of 13 points
    default = (verify.SWEEP_MIN_BATCH, verify.SWEEP_ENTRIES)
    spec = GridSpec(points_per_dim=8)
    for entry in zoo.default_entries():
        chart, n = entry.chart, entry.chart.dim
        for floor, entries in (default, (1, 13 * (2 * n + 2) * n * n)):
            monkeypatch.setattr(verify, "SWEEP_MIN_BATCH", floor)
            monkeypatch.setattr(verify, "SWEEP_ENTRIES", entries)
            report = verify_chart(entry, spec)
            if chart.closed:
                assert report.integrals["p1"].hex() == integral_p1(chart, spec).hex(), entry.name
                assert report.integrals["volume"].hex() == chart_volume(chart, spec).hex(), entry.name
            for quantity in ("pinch", "normB2"):
                scan = pinching_scan(chart, spec, quantity=quantity)
                assert report.spectra[f"{quantity}_min"].hex() == scan.vmin.hex(), (entry.name, quantity)
                assert report.spectra[f"{quantity}_max"].hex() == scan.vmax.hex(), (entry.name, quantity)


@pytest.mark.parametrize("seed", [0, 7])
def test_scalar_curvature_residual_is_the_gauss_gap(seed):
    # verify's scalar_curvature residual is the largest gap between the oracle
    # and the Gauss target n(n-1) - |B|^2 at its 20 curvature samples, to the
    # bit, as stand-alone calls on those samples give it
    cases = [(entry, 4) for entry in zoo.default_entries()] + [(zoo.calabi_torus(8), 3)]
    for entry, grid in cases:
        chart, n = entry.chart, entry.chart.dim
        report = verify_chart(entry, GridSpec(points_per_dim=grid, seed=seed))
        (check,) = [c for c in report.checks if c.name == "scalar_curvature"]
        spts = sample_points(chart, 20, seed=seed + 7)
        gauss = n * (n - 1) - point_data(chart, spts).spectrum.normB2
        gap = float(np.max(np.abs(scalar_curvature_intrinsic(chart, spts) - gauss)))
        assert check.max_residual.hex() == gap.hex(), entry.name


def test_integral_and_scan_skip_residuals(monkeypatch):
    # the integral and the scan read spectra and volumes only
    def refuse(*args):
        raise AssertionError("integral and scan must not compute residuals or ranks")

    for name in ("legendrian_residual", "minimality_residual", "sigma_symmetry_defect",
                 "gauss_rank"):
        monkeypatch.setattr(verify, name, refuse)
    chart = zoo.equivariant_sphere3().chart
    spec = GridSpec(points_per_dim=4)
    integral_p1(chart, spec)
    for quantity in ("pinch", "normB2", "R_plus_mu2", "lambda_3"):
        pinching_scan(chart, spec, quantity=quantity)


def _close(batched, single, tol):
    single = np.asarray(single)
    return np.all(np.abs(batched - single) <= tol * (1.0 + np.abs(single)))


def test_batched_point_data_matches_per_point():
    for entry in zoo.default_entries():
        chart = entry.chart
        pts, _ = grid_points(chart, GridSpec(points_per_dim=3))
        batch = point_data(chart, pts)
        residuals = (
            legendrian_residual(batch.frame),
            minimality_residual(batch.sigma),
            sigma_symmetry_defect(batch.sigma),
        )
        for k, u in enumerate(pts):
            one = point_data(chart, u)
            for got, want in (
                (batch.spectrum.lambdas[k], one.spectrum.lambdas),
                (batch.spectrum.normB2[k], one.spectrum.normB2),
                (batch.spectrum.pinch[k], one.spectrum.pinch),
                (batch.frame.vol[k], one.frame.vol),
            ):
                assert _close(got, want, 1e-14), (entry.name, u)
            for got, want in zip(residuals, (
                legendrian_residual(one.frame),
                minimality_residual(one.sigma),
                sigma_symmetry_defect(one.sigma),
            )):
                assert abs(got[k] - want) <= 1e-14, (entry.name, u)


@pytest.mark.parametrize("entry", [*zoo.default_entries(), zoo.calabi_torus(5), zoo.calabi_torus(6),
                                   zoo.geodesic_sphere(5), zoo.geodesic_sphere(6)],
                         ids=lambda e: e.name)
def test_jet_eval_open_mesh_matches_point_stack(entry):
    # an open mesh gives every point the bits of the point-stack call, on the
    # whole grid and on a box that fixes axis 0, takes a range of axis 1 and
    # the whole of the rest
    chart = entry.chart
    spec = GridSpec(points_per_dim=3)
    axes, _ = verify.grid_axes(chart, spec)
    pts, _ = grid_points(chart, spec)
    box = (slice(1, 2), slice(1, 3)) + (slice(None),) * (chart.dim - 2)
    rows = np.arange(len(pts)).reshape([len(a) for a in axes])[box].ravel()
    for mesh, stack in ((np.ix_(*axes), pts),
                        (np.ix_(*(a[s] for a, s in zip(axes, box))), pts[rows])):
        batch = np.broadcast_shapes(*(x.shape for x in mesh))
        for got, want in zip(chart.jet_eval(mesh), chart.jet_eval(stack)):
            assert got.shape == batch + want.shape[1:]
            got = got.reshape(want.shape)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
