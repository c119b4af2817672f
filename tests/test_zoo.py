import numpy as np
import pytest

from minleg import zoo
from minleg.geometry import (
    legendrian_residual,
    minimality_residual,
    point_data,
    scalar_curvature_intrinsic,
)
from minleg.verify import GridSpec, _sweep, grid_points, sample_points


def _sweep_stats(entry, grid=None):
    """Residual and value extremes over the default offset grid."""
    chart = entry.chart
    pts, _ = grid_points(chart, grid or GridSpec())
    out = {
        "leg": 0.0, "min": 0.0, "sphere": 0.0,
        "normB2": 0.0, "lambdas": 0.0, "pinch": 0.0, "ranks": set(),
    }
    want_lam = np.asarray(entry.lambdas)
    for pd in _sweep(chart, pts):
        fr = pd.frame
        out["leg"] = max(out["leg"], np.max(legendrian_residual(fr)))
        out["min"] = max(out["min"], np.max(minimality_residual(pd.sigma)))
        out["sphere"] = max(out["sphere"], np.max(np.abs(np.linalg.norm(fr.F, axis=-1) - 1.0)))
        sp = pd.spectrum
        out["normB2"] = max(out["normB2"], np.max(np.abs(sp.normB2 - entry.normB2)))
        out["lambdas"] = max(out["lambdas"], float(np.max(np.abs(sp.lambdas - want_lam))))
        out["pinch"] = max(out["pinch"], np.max(np.abs(sp.pinch - entry.pinch)))
        out["ranks"].update(np.sum(sp.lambdas > 1e-8, axis=-1).tolist())
    return out


def test_zoo_default_grid_residuals():
    # every chart: legendrian and minimality residuals on the default
    # 16^n offset grid (capped at 1e4 points), plus the published values
    for entry in zoo.default_entries():
        stats = _sweep_stats(entry)
        assert stats["leg"] <= 1e-9, entry.name
        assert stats["min"] <= 1e-9, entry.name
        assert stats["sphere"] <= 1e-10, entry.name
        assert stats["normB2"] <= entry.value_tol, entry.name
        assert stats["lambdas"] <= entry.value_tol, entry.name
        assert stats["pinch"] <= entry.value_tol, entry.name
        assert stats["ranks"] == {entry.gauss_rank}, entry.name


def test_geodesic_sphere_values():
    entry = zoo.geodesic_sphere(3)
    u = sample_points(entry.chart, 1, seed=1)[0]
    sp = point_data(entry.chart, u).spectrum
    assert abs(sp.normB2) < 1e-12
    assert abs(sp.scalar - 6.0) < 1e-12
    assert abs(scalar_curvature_intrinsic(entry.chart, u) - 6.0) < 1e-3
    five = zoo.geodesic_sphere(5)
    u5 = sample_points(five.chart, 1, seed=2)[0]
    mu = point_data(five.chart, u5).spectrum.ricci_eigs
    assert np.max(np.abs(mu - 4.0)) < 1e-12


def test_calabi_small_dimensions():
    e2 = zoo.calabi_torus(2)
    assert e2.normB2 == 2.0 and e2.pinch == 3.0
    assert e2.lambdas == (1.0, 1.0)
    e3 = zoo.calabi_torus(3)
    assert abs(e3.normB2 - 10.0 / 3.0) < 1e-15
    assert e3.lambdas[0] == 2.0
    with pytest.raises(ValueError):
        zoo.calabi_torus(1)
    with pytest.raises(ValueError):
        zoo.geodesic_sphere(1)


def test_calabi_curve_period():
    # closing the Legendrian curve gamma needs t to run over 2 pi sqrt(n)
    for n in (2, 3, 4, 5):
        chart = zoo.calabi_torus(n).chart
        t_axis = chart.domain[-1]
        assert t_axis.periodic
        assert abs(t_axis.span - 2.0 * np.pi * np.sqrt(n)) < 1e-12


def test_equivariant_normalization_grid():
    # |F| = 1 on a 10x10x10 grid: the raw cubic map has |F| = 2, the chart
    # stores the halved version
    entry = zoo.equivariant_sphere3()
    pts, _ = grid_points(entry.chart, GridSpec(points_per_dim=10))
    assert pts.shape[0] == 1000
    values = entry.chart.jet_eval(pts)[0]
    assert np.max(np.abs(np.linalg.norm(values, axis=-1) - 1.0)) <= 1e-10


def test_equivariant_spectrum_row():
    entry = zoo.equivariant_sphere3()
    for u in sample_points(entry.chart, 25, seed=3):
        sp = point_data(entry.chart, u).spectrum
        assert abs(sp.normB2 - 16.0 / 3.0) <= 1e-8
        assert sp.lambdas[2] <= 1e-9
        assert abs(sp.pinch - 8.0) <= 1e-8


def test_flat_torus_row():
    entry = zoo.flat_legendrian_torus()
    chart = entry.chart
    for u in sample_points(chart, 20, seed=4):
        pd = point_data(chart, u)
        assert abs(pd.spectrum.normB2 - 2.0) <= 1e-9
        assert minimality_residual(pd.sigma) <= 1e-10
    u = sample_points(chart, 1, seed=5)[0]
    assert abs(scalar_curvature_intrinsic(chart, u)) < 1e-3
    # the induced metric is constant: flat square torus scaled by 1/sqrt(3)
    g = point_data(chart, u).frame.metric
    assert np.allclose(g, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)


def test_closed_form_sigma_norm():
    for n in range(2, 7):
        sig = zoo.calabi_sigma_closed_form(n)
        want = (n - 1.0) * (n + 2.0) / n
        assert abs(float(np.sum(sig * sig)) - want) < 1e-12
        assert np.max(np.abs(sig - np.transpose(sig, (1, 0, 2)))) == 0.0
        assert np.max(np.abs(sig - np.transpose(sig, (0, 2, 1)))) == 0.0


def test_registry_lookup():
    assert zoo.get_entry("calabi").name == "calabi-n3"
    assert zoo.get_entry("calabi", n=5).name == "calabi-n5"
    assert zoo.get_entry("geodesic-sphere", n=4).name == "geodesic-sphere-n4"
    assert zoo.get_entry("flat-torus").name == "flat-torus"
    with pytest.raises(zoo.UnknownExampleError) as err:
        zoo.get_entry("moebius")
    assert "calabi" in err.value.available
    with pytest.raises(ValueError):
        zoo.get_entry("flat-torus", n=3)
    assert zoo.PARAMETRIC == {"geodesic-sphere", "calabi"}
    names = [e.name for e in zoo.default_entries()]
    assert names == [
        "geodesic-sphere-n3", "calabi-n2", "calabi-n3", "calabi-n4",
        "equivariant-s3", "flat-torus",
    ]
