from fractions import Fraction

import numpy as np
import pytest

from minleg import jets, zoo
from minleg.geometry import (
    ImmersionChart,
    legendrian_residual,
    minimality_residual,
    point_data,
    scalar_curvature_intrinsic,
)
from minleg.verify import GridSpec, _sweep, grid_axes, grid_points, sample_points, verify_chart


def _sweep_stats(entry, grid=None):
    """Residual and value extremes over the default midpoint grid."""
    chart = entry.chart
    out = {
        "leg": 0.0, "min": 0.0, "sphere": 0.0,
        "normB2": 0.0, "lambdas": 0.0, "pinch": 0.0, "ranks": set(),
    }
    want_lam = np.asarray(entry.lambdas)
    for pd in (point_data(chart, u) for u, _ in _sweep(chart, grid or GridSpec())):
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
    # 16^n midpoint grid (capped at 1e4 points), plus the published values
    for entry in zoo.default_entries():
        stats = _sweep_stats(entry)
        assert stats["leg"] <= 1e-9, entry.name
        assert stats["min"] <= 1e-9, entry.name
        assert stats["sphere"] <= 1e-10, entry.name
        assert stats["normB2"] <= entry.value_tol, entry.name
        assert stats["lambdas"] <= entry.value_tol, entry.name
        assert stats["pinch"] <= entry.value_tol, entry.name
        assert stats["ranks"] == {entry.gauss_rank}, entry.name


def _equivariant_sphere3_reference(coords):
    # the formula of the docstring, term by term
    a, b, c = coords
    z = jets.cos(a) * jets.cis(b)
    w = jets.sin(a) * jets.cis(c)
    zb = jets.conj(z)
    wb = jets.conj(w)
    p1 = z * z * z + 3.0 * (z * (wb * wb))
    p2 = zoo.ROOT3 * (z * z * w + w * (wb * wb) - 2.0 * (z * (zb * wb)))
    p3 = zoo.ROOT3 * (z * (w * w) + z * (zb * zb) - 2.0 * (w * (zb * wb)))
    p4 = w * w * w + 3.0 * (w * (zb * zb))
    return [0.5 * p1, 0.5 * p2, 0.5 * p3, 0.5 * p4]


def test_equivariant_sphere3_shared_products_keep_bits():
    # the chart folds z zb = cos^2 a and w wb = sin^2 a into one product over
    # the whole grid per component; every jet channel stays within rounding of
    # the published formula, on an open mesh and on a point stack (largest gaps
    # measured, both in the Hessian channel: 2.2e-15 and 3.6e-15)
    chart = zoo.equivariant_sphere3().chart
    ref = ImmersionChart("reference", 3, chart.domain, _equivariant_sphere3_reference, closed=True)
    axes, _ = grid_axes(chart, GridSpec(points_per_dim=5))
    for u in (np.ix_(*axes), sample_points(chart, 40, seed=6)):
        for got, want in zip(chart.jet_eval(u), ref.jet_eval(u)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14


def test_geodesic_sphere_values():
    entry = zoo.geodesic_sphere(3)
    u = sample_points(entry.chart, 1, seed=1)[0]
    sp = point_data(entry.chart, u).spectrum
    assert abs(sp.normB2) < 1e-12
    assert abs(scalar_curvature_intrinsic(entry.chart, u) - 6.0) < 1e-13


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
    entry = zoo.flat_torus()
    chart = entry.chart
    for u in sample_points(chart, 20, seed=4):
        pd = point_data(chart, u)
        assert abs(pd.spectrum.normB2 - 2.0) <= 1e-9
        assert minimality_residual(pd.sigma) <= 1e-10
    u = sample_points(chart, 1, seed=5)[0]
    assert abs(scalar_curvature_intrinsic(chart, u)) < 1e-13
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
    assert zoo.get_entry("flat-torus", n=3).name == "flat-torus-n3"
    with pytest.raises(ValueError):
        zoo.get_entry("equivariant-s3", n=3)
    assert zoo.PARAMETRIC == {"geodesic-sphere", "calabi", "flat-torus"}
    names = [e.name for e in zoo.default_entries()]
    assert names == [
        "geodesic-sphere-n3", "calabi-n2", "calabi-n3", "calabi-n4",
        "equivariant-s3", "flat-torus",
    ]


def test_pinching_theorem_over_the_generators():
    # |B|^2 + lambda_2 <= n + 1 only for totally geodesic spheres and Calabi
    # tori (T^2 is the n = 2 Calabi torus); every other entry lies above
    at_most = ([zoo.geodesic_sphere(n) for n in range(2, 7)] + [zoo.calabi_torus(n) for n in range(2, 9)]
               + [zoo.flat_torus(2)])
    above = [zoo.flat_torus(n) for n in range(3, 7)] + [zoo.equivariant_sphere3(),
                                                         zoo.calabi_product(zoo.equivariant_sphere3())]
    for entry in at_most + above:
        spec, n = entry.spectrum, entry.chart.dim
        assert all(isinstance(lam, Fraction) for lam in spec) and list(spec) == sorted(spec, reverse=True)
        assert (sum(spec) + spec[1] <= n + 1) == (entry in at_most), entry.name
        assert (entry.pinch <= n + 1) == (entry in at_most), entry.name


def test_calabi_product_spectra_match_closed_forms():
    # the Calabi torus values before they were derived from the spectrum, bit for bit
    for n in range(2, 14):
        entry = zoo.calabi_torus(n)
        norm_b2 = (n - 1.0) * (n + 2.0) / n
        assert entry.lambdas == (float(n - 1),) + tuple(2.0 / n for _ in range(n - 1))
        assert entry.normB2 == norm_b2 and entry.pinch == float(n + 1)
        assert float(n * (n - 1) - sum(entry.spectrum)) == n * (n - 1.0) - norm_b2 and entry.gauss_rank == n
    product = zoo.calabi_product(zoo.equivariant_sphere3())
    assert product.spectrum == (Fraction(23, 6), Fraction(23, 6), Fraction(3), Fraction(1, 2))
    assert product.normB2 == 67.0 / 6.0 and product.pinch == 15.0 and product.gauss_rank == 4


@pytest.mark.parametrize("entry", [zoo.flat_torus(3), zoo.flat_torus(4), zoo.flat_torus(5),
                                   zoo.calabi_product(zoo.equivariant_sphere3())],
                         ids=lambda entry: entry.name)
def test_generated_entries_verify(entry):
    report = verify_chart(entry, GridSpec(points_per_dim=4))
    assert report.passed, [c for c in report.checks if not c.passed]
