import math

import numpy as np
import pytest

from minleg import verify, zoo
from minleg.geometry import (
    ImmersionChart,
    Interval,
    legendrian_residual,
    minimality_residual,
    point_data,
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
    assert math.prod(GridSpec(points_per_dim=100, cap=10_000).resolve(4)) <= 10_000


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=(8, 8)).resolve(3)
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=1).resolve(2)
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=16, cap=7).resolve(3)
    assert GridSpec(points_per_dim=16, cap=8).resolve(3) == (2, 2, 2)


def test_grid_points_offset_measure():
    chart = zoo.calabi_torus(2).chart
    pts, wts = grid_points(chart, GridSpec(points_per_dim=9))
    assert pts.shape == (81, 2) and wts.shape == (81,)
    measure = math.prod(iv.span for iv in chart.domain)
    assert abs(wts.sum() - measure) < 1e-12 * measure
    for j, iv in enumerate(chart.domain):
        assert pts[:, j].min() > iv.lo and pts[:, j].max() < iv.hi


def test_grid_points_endpoint_rules():
    # without the offset, periodic axes drop the duplicate endpoint and
    # non-periodic axes get trapezoid end weights
    chart = zoo.geodesic_sphere(2).chart
    pts, wts = grid_points(chart, GridSpec(points_per_dim=5, offset=False))
    polar, azimuth = chart.domain
    assert not polar.periodic and azimuth.periodic
    assert pts[:, 0].min() == polar.lo and pts[:, 0].max() == polar.hi
    assert pts[:, 1].max() < azimuth.hi
    measure = polar.span * azimuth.span
    assert abs(wts.sum() - measure) < 1e-12 * measure


def test_grid_jitter():
    chart = zoo.flat_legendrian_torus().chart
    a, _ = grid_points(chart, GridSpec(points_per_dim=6, jitter=True, seed=3))
    b, _ = grid_points(chart, GridSpec(points_per_dim=6, jitter=True, seed=3))
    c, _ = grid_points(chart, GridSpec(points_per_dim=6, jitter=True, seed=4))
    base, _ = grid_points(chart, GridSpec(points_per_dim=6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, base)
    # jitter is under half a cell, so points stay inside the domain
    for j, iv in enumerate(chart.domain):
        assert a[:, j].min() > iv.lo and a[:, j].max() < iv.hi
    with pytest.raises(ValueError):
        grid_points(chart, GridSpec(points_per_dim=6, offset=False, jitter=True))


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
    report = verify_chart(zoo.flat_legendrian_torus().chart, GridSpec(points_per_dim=8))
    names = [c.name for c in report.checks]
    assert report.passed
    assert "pinch_expected" not in names and "simons" not in names
    assert "gauss_rank" in names


def test_verify_tolerance_failure():
    # on a curved entry the oracle's differenced Christoffel derivatives
    # leave a gap near 1e-8, far above 1e-12
    entry = zoo.calabi_torus(3)
    report = verify_chart(entry, GridSpec(points_per_dim=6),
                          Tolerances(curvature=1e-12))
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
    with pytest.raises(ValueError):
        verify._fmt_float(float("nan"))
    with pytest.raises(ValueError):
        verify._fmt_float(float("inf"))
    with pytest.raises(TypeError):
        verify._render(object())


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
    assert abs(integral_p1(zoo.flat_legendrian_torus().chart)) <= 1e-12
    assert abs(integral_p1(zoo.calabi_torus(3).chart, GridSpec(points_per_dim=8))) <= 1e-10


def test_integral_p1_equivariant():
    chart = zoo.equivariant_sphere3().chart
    spec = GridSpec(points_per_dim=8)
    p1 = integral_p1(chart, spec)
    assert p1 < -1.0
    # the integrand is the constant -32/3: quadrature error cancels in the ratio
    ratio = p1 / chart_volume(chart, spec)
    assert abs(ratio + 32.0 / 3.0) <= 1e-8
    d1 = abs(integral_p1(chart, GridSpec(points_per_dim=16)) - p1)
    d2 = abs(
        integral_p1(chart, GridSpec(points_per_dim=32, cap=40_000))
        - integral_p1(chart, GridSpec(points_per_dim=16))
    )
    assert d2 < 0.5 * d1  # second-order midpoint convergence


def test_chart_volume():
    ft = zoo.flat_legendrian_torus().chart
    exact = 4.0 * math.pi ** 2 / math.sqrt(3.0)
    assert abs(chart_volume(ft) - exact) <= 1e-12 * exact
    sph = zoo.geodesic_sphere(3).chart
    errs = [
        abs(chart_volume(sph, GridSpec(points_per_dim=c, cap=40_000)) - 2.0 * math.pi ** 2)
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
    scan = pinching_scan(zoo.flat_legendrian_torus().chart,
                         GridSpec(points_per_dim=4), quantity="normB2")
    text = scan_to_csv(scan)
    lines = text.splitlines()
    assert lines[0] == "u1,u2,value"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert len(first) == 3
    assert abs(float(first[2]) - 2.0) < 1e-9
    assert text.endswith("\n")


def test_sweep_chunk_size_invariant(monkeypatch):
    # every grid point is computed independently of the batch it lands in, so
    # report, integral and CSV bytes never depend on the batch size: 1-point
    # batches, a split into batches of 6 and 7 points, and one whole-grid batch
    entry = zoo.calabi_torus(3)
    spec = GridSpec(points_per_dim=6)
    dfe = (2 * 3 + 2) * 3 * 3  # d2F entries per point at n = 3
    outputs = []
    for floor, entries in ((1, 0), (1, 7 * dfe), (6 ** 3, 0)):
        monkeypatch.setattr(verify, "SWEEP_MIN_BATCH", floor)
        monkeypatch.setattr(verify, "SWEEP_ENTRIES", entries)
        outputs.append((
            verify_chart(entry, spec).to_text(include_timing=False),
            integral_p1(entry.chart, spec).hex(),
            scan_to_csv(pinching_scan(entry.chart, spec, quantity="lambda_2")),
        ))
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_batch_rule():
    # n >= 5 keeps 128-point batches; n <= 4 batches hold at most
    # SWEEP_ENTRIES d2F entries; batches are equal to within one point
    for n in range(2, 14):
        sizes = [len(b) for b in verify._batches(np.zeros((1000, n)))]
        assert sum(sizes) == 1000 and max(sizes) - min(sizes) <= 1, n
        if n >= 5:
            assert len(sizes) == 8 and max(sizes) <= 128, n
        else:
            assert max(sizes) * (2 * n + 2) * n * n <= verify.SWEEP_ENTRIES, n
            assert max(sizes) > 128, n
    assert [len(b) for b in verify._batches(np.zeros((1000, 3)))] == [334, 333, 333]


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
