import importlib.util
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from minleg import cli, geometry, jets, verify, zoo
from minleg.geometry import (
    DEGENERACY_TOL,
    DegeneratePointError,
    ImmersionChart,
    Interval,
    PointFrame,
    _sigma_from,
    _t,
    apply_J,
    derivative_cross_check,
    evaluate_points,
    fundamental_matrix,
    gauss_rank,
    legendrian_residual,
    metric_factor,
    minimality_residual,
    point_data,
    scalar_curvature_intrinsic,
    sigma_symmetry_defect,
    simons_residual,
    spectrum_of,
)
from minleg.symmat import sym_eigen
from minleg.verify import GridSpec, integral_p1, pinching_scan, sample_points, verify_chart

from _helpers import (
    random_orthogonal,
    reference_cholesky,
    reference_lower_inverse,
    reference_sym_eigen,
    same_bits,
)

ENTRIES = [
    zoo.geodesic_sphere(3),
    zoo.calabi_torus(2),
    zoo.calabi_torus(3),
    zoo.calabi_torus(4),
    zoo.equivariant_sphere3(),
    zoo.flat_torus(),
]


def _points(chart, count, seed=0):
    return sample_points(chart, count, seed=seed)


def _sigma(chart, u):
    return point_data(chart, u).sigma


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.uint64)


# ---- containers ---------------------------------------------------------------


def test_interval_validation():
    iv = Interval(0.0, 2.0)
    assert iv.span == 2.0 and not iv.periodic
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)


def test_apply_J_is_complex_structure():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8)
    w = rng.standard_normal(8)
    jv = apply_J(v)
    assert np.allclose(apply_J(jv), -v, atol=0.0)
    assert abs(np.dot(jv, v)) < 1e-14
    assert abs(np.dot(jv, jv) - np.dot(v, v)) < 1e-14
    # compatible with complex multiplication by i on interleaved coordinates
    z = v[0::2] + 1j * v[1::2]
    iz = 1j * z
    assert np.allclose(jv[0::2], iz.real, atol=0.0)
    assert np.allclose(jv[1::2], iz.imag, atol=0.0)
    assert abs(np.dot(jv, w) + np.dot(v, apply_J(w))) < 1e-14


# ---- frames ---------------------------------------------------------------------


def test_frame_orthonormal_tangent():
    for entry in ENTRIES:
        chart = entry.chart
        pts = _points(chart, 10, seed=3)
        fr = point_data(chart, pts).frame
        n = chart.dim
        gram = fr.e @ fr.e.swapaxes(-1, -2)
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        assert np.max(np.abs(fr.e @ fr.F[:, :, None])) < 1e-12
        assert np.all(fr.vol > 0.0)
        # e_i = sum_s a_is dF/du_s
        jac = chart.jet_eval(pts)[1]
        assert np.max(np.abs(fr.a @ jac.swapaxes(-1, -2) - fr.e)) < 1e-11


def test_frame_calabi_point():
    chart, u = zoo.calabi_torus(2).chart, np.array([0.7, 0.3])
    fr = point_data(chart, u).frame
    assert fr.vol > 0.0
    assert np.linalg.det(metric_factor(u, chart.jet_eval(u)[1])[1]) > 0.0


def test_frame_degenerate_pole():
    chart = zoo.geodesic_sphere(3).chart
    with pytest.raises(DegeneratePointError):
        point_data(chart, np.array([0.0, 1.0, 1.0]))


def _t(x):
    return x.swapaxes(-1, -2)


def _gram_schmidt_frame(u, f, jac) -> PointFrame:
    """Gram-Schmidt frame over the coordinate tangents, in coordinate order."""
    n = jac.shape[-1]
    v = _t(jac)
    e = np.zeros_like(v)
    coeff = np.zeros(v.shape[:-1] + (n,))
    for i in range(n):
        w = v[..., i, :].copy()
        c = np.zeros(coeff.shape[:-1])
        c[..., i] = 1.0
        for _ in range(2):  # one reorthogonalization pass keeps <e_i,e_j> ~ 1e-15
            for j in range(i):
                r = (w * e[..., j, :]).sum(axis=-1, keepdims=True)
                w -= r * e[..., j, :]
                c -= r * coeff[..., j, :]
        nrm = np.linalg.norm(w, axis=-1)
        bad = nrm <= DEGENERACY_TOL * (1.0 + np.linalg.norm(v[..., i, :], axis=-1))
        if np.any(bad):
            raise DegeneratePointError(f"coordinate tangents degenerate at u = {u[bad][0].tolist()}")
        e[..., i, :] = w / nrm[..., None]
        coeff[..., i, :] = c / nrm[..., None]
    return PointFrame(F=f, e=e, a=coeff, vol=metric_factor(u, jac)[3])


def test_frame_matches_gram_schmidt():
    # Worst gaps measured over these 4000 points: a dF^T - e 0, |e e^T - I|
    # 1.0e-15, e 4.4e-16, lambda 1.2e-14, sigma 8.3e-15 relative to max |sigma|.
    # calabi n=13 has its own bounds: at its near-pole points, where |a|
    # reaches 3e4, the sigma gap is 8.3e-13 and the lambda gap 2.1e-14.
    entries = zoo.default_entries() + [zoo.calabi_torus(8), zoo.calabi_torus(13),
                                       zoo.geodesic_sphere(8), zoo.geodesic_sphere(13)]
    for entry in entries:
        sigma_tol, lambda_tol = (5e-12, 2e-13) if entry.name == "calabi-n13" else (1e-13, 1e-13)
        chart = entry.chart
        u = np.concatenate([sample_points(chart, 20, seed) for seed in range(20)])
        pd = point_data(chart, u)
        u, f, jac, hess = evaluate_points(chart, u)
        ref = _gram_schmidt_frame(u, f, jac)
        ref_sigma = _sigma_from(ref, hess)
        ref_lambdas = spectrum_of(fundamental_matrix(ref_sigma)).lambdas
        fr = pd.frame
        assert np.max(np.abs(fr.a @ _t(jac) - fr.e)) <= 1e-14, entry.name
        assert np.max(np.abs(fr.e @ _t(fr.e) - np.eye(chart.dim))) <= 1e-14, entry.name
        assert np.max(np.abs(fr.e - ref.e)) <= 5e-15, entry.name
        assert np.max(np.abs(pd.spectrum.lambdas - ref_lambdas)) <= lambda_tol, entry.name
        assert np.max(np.abs(pd.sigma - ref_sigma)) <= sigma_tol * np.max(np.abs(ref_sigma)), entry.name


def _sheared_chart(eps):
    """F = (u1 + u2, eps u2, 1): at every point dF_2 = dF_1 + eps (0, 0, 1, 0, 0, 0),
    so tangent 2 has length eps off the span of tangent 1, and |dF_2| ~ 1."""
    return ImmersionChart("sheared", 2, (Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
                          lambda u: (u[0] + u[1], eps * u[1], 0.0 * u[0] + 1.0))


def test_frame_degeneracy_threshold():
    # the rule: degenerate when L_22 ~ eps <= DEGENERACY_TOL (1 + |dF_2|) ~ 2e-8.
    # At eps = 1.5e-8, G_22 = 1 + eps^2 rounds to 1 + 2^-52, so det G > 0 and
    # the metric check passes; L_22 = 2^-26 ~ 1.49e-8 trips the rule.
    u = np.array([[0.0, 0.0], [0.3, -0.2]])
    assert 1.5e-8 <= DEGENERACY_TOL * (1.0 + 1.0)
    with pytest.raises(DegeneratePointError, match="coordinate tangents degenerate"):
        point_data(_sheared_chart(1.5e-8), u)
    # well above it the point passes; one Cholesky pass leaves e e^T - I near
    # 1e-16 / eps^2 here, as cond(G) ~ 4 / eps^2
    for eps in (1e-6, 1e-4):
        fr = point_data(_sheared_chart(eps), u).frame
        assert np.max(np.abs(fr.e @ _t(fr.e) - np.eye(2))) <= 1e-15 / eps**2


def test_frame_indefinite_metric(monkeypatch, capsys):
    # diag(-1, -1, 1) at every point in place of G: det G = 1 > 0, yet G is not
    # positive definite, and the first pivot of its factor is -1
    cholesky = geometry._cholesky

    def indefinite(u, metric):
        return cholesky(u, np.broadcast_to(np.diag([-1.0, -1.0, 1.0]), metric.shape).copy())

    monkeypatch.setattr(geometry, "_cholesky", indefinite)
    chart = zoo.calabi_torus(3).chart
    with pytest.raises(DegeneratePointError, match="metric not positive definite"):
        point_data(chart, _points(chart, 4, seed=1))
    assert cli.main(["scan", "--example", "calabi", "--n", "3", "--grid", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numerical failure: metric not positive definite at u = ")
    assert captured.err.count("\n") == 1


def _factor_samples():
    """The curvature samples that verify --seed 0 and 7 draw on the roster, and
    samples of calabi n=8 and n=13 and geodesic-sphere n=13 that sit near the
    pole margin (the samples of verify --seed 0 and 14, of 20 seeds, and of
    verify --seed 5 and 8)."""
    yield from ((entry, sample_points(entry.chart, 20, seed)) for entry in ENTRIES for seed in (7, 14))
    for entry, seeds in ((zoo.calabi_torus(8), (7, 21)), (zoo.calabi_torus(13), range(20)),
                         (zoo.geodesic_sphere(13), (12, 15))):
        yield entry, np.concatenate([sample_points(entry.chart, 20, seed) for seed in seeds])


def test_metric_factor_matches_lapack():
    # a = L^-1, vol = prod diag L and the oracle's G^-1 = a^T a against
    # inv(cholesky(G)), sqrt(det G) and inv(G).  Largest gaps measured, relative
    # to each point's largest entry: a 1.7e-16, G^-1 4.3e-16, and vol 9.8e-15
    # at n = 13, where |a| reaches 2.9e4.
    def rel(x, y):
        return np.max(np.max(np.abs(x - y), axis=(-2, -1)) / np.max(np.abs(y), axis=(-2, -1)))

    for entry, u in _factor_samples():
        jac = entry.chart.jet_eval(u)[1]
        tangents, metric, a, vol = geometry.metric_factor(u, jac)
        assert np.array_equal(tangents, _t(jac)) and np.array_equal(metric, tangents @ jac), entry.name
        assert rel(a, np.linalg.inv(np.linalg.cholesky(metric))) <= 2e-15, entry.name
        assert rel(_t(a) @ a, np.linalg.inv(metric)) <= 2e-15, entry.name
        det = np.sqrt(np.linalg.det(metric))
        assert np.max(np.abs(vol - det) / det) <= 5e-14, entry.name


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (2, 1), (2, 2)])
def test_nan_metric_entry_names_its_point(monkeypatch, entry):
    # a NaN anywhere on or below the diagonal reaches a pivot, and "not > 0"
    # catches it where "<= 0" would let it run silently through the pipeline
    cholesky = geometry._cholesky
    chart = zoo.calabi_torus(3).chart
    u = _points(chart, 6, seed=2)

    def poisoned(u, metric):
        metric = metric.copy()
        metric[(4,) + entry] = metric[(4,) + entry[::-1]] = np.nan
        return cholesky(u, metric)

    monkeypatch.setattr(geometry, "_cholesky", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePointError) as err:
            point_data(chart, u)
    assert str(err.value) == f"metric not positive definite at u = {u[4].tolist()}"


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "equivariant-s3", "--grid", "4", "--no-timing"],
    ["verify", "--example", "calabi", "--n", "8", "--grid", "2", "--no-timing"],
    ["integral", "--example", "calabi", "--n", "4", "--grid", "4"],
    ["scan", "--example", "geodesic-sphere", "--n", "3", "--grid", "4"],
])
def test_point_pipeline_needs_no_lapack(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("det", "cholesky", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


# ---- batch-last kernels against their batch-major references -------------------


def _reference_factor(u, metric):
    """(a, vol) from the batch-major Cholesky factor and forward substitution."""
    chol, diag = reference_cholesky(u, metric)
    return reference_lower_inverse(chol, diag), np.multiply.reduce(diag, axis=-1)


def _check_against_references(monkeypatch):
    """Make every metric_factor and sym_eigen call of the pipeline check its bits
    against the batch-major references; returns the list of checked calls."""
    factor, eigen = geometry.metric_factor, geometry.sym_eigen
    checked = []

    def checked_factor(u, jac):
        tangents, metric, a, vol = factor(u, jac)
        want_a, want_vol = _reference_factor(u, metric)
        assert same_bits(a, want_a) and same_bits(vol, want_vol), metric.shape
        checked.append(("factor", metric.shape))
        return tangents, metric, a, vol

    def checked_eigen(s, vectors=True):
        got = eigen(s, vectors=vectors)
        values, want_vectors = reference_sym_eigen(s)
        assert same_bits(got.values, values), s.shape
        assert same_bits(got.vectors, want_vectors) if vectors else got.vectors is None, s.shape
        checked.append(("eigen", s.shape))
        return got

    monkeypatch.setattr(geometry, "metric_factor", checked_factor)
    monkeypatch.setattr(geometry, "sym_eigen", checked_eigen)
    return checked


def test_batch_last_kernels_match_references_on_roster_and_sweeps(monkeypatch):
    # every batch that verify factors and solves on the byte roster's verify
    # lines (grids 4 and 8, seeds 0 and 7), and the sweep meshes of integral
    # and scan (equivariant-s3 at grid 10, calabi n=4 at grid 5)
    checked = _check_against_references(monkeypatch)
    for entry in ENTRIES:
        for grid in (4, 8):
            for seed in (0, 7):
                verify_chart(entry, grid=GridSpec(points_per_dim=grid, seed=seed))
    for entry, grid in ((zoo.equivariant_sphere3(), 10), (zoo.calabi_torus(4), 5)):
        spec = GridSpec(points_per_dim=grid, seed=7)
        integral_p1(entry.chart, grid=spec)
        pinching_scan(entry.chart, grid=spec, quantity="pinch")
    kinds = [kind for kind, _ in checked]
    assert kinds.count("factor") == kinds.count("eigen") >= 24 + 4
    assert (("factor", (1000, 3, 3)) in checked) and (("eigen", (625, 4, 4)) in checked)


def test_batch_last_factor_matches_reference_near_poles():
    # the curvature samples of _factor_samples, up to n = 13, where the sums
    # of a Cholesky column run past numpy's 8-term pairwise block
    for entry, u in _factor_samples():
        jac = entry.chart.jet_eval(u)[1]
        _, metric, a, vol = geometry.metric_factor(u, jac)
        want_a, want_vol = _reference_factor(u, metric)
        assert same_bits(a, want_a) and same_bits(vol, want_vol), entry.name


def _random_tangents(rng, shape, n):
    """Coordinate tangents, shape shape + (2n+2, n), with columns scaled over six
    decades; in every other matrix the columns have disjoint supports and random
    signs, so its metric is diagonal."""
    jac = rng.standard_normal(shape + (2 * n + 2, n)) * 10.0 ** rng.uniform(-3, 3, shape + (1, n))
    flat = jac.reshape((-1, 2 * n + 2, n))
    for k in range(0, len(flat), 2):
        support = np.zeros((2 * n + 2, n))
        support[np.arange(n), np.arange(n)] = support[n + np.arange(n), np.arange(n)] = 1.0
        flat[k] *= support
        flat[k] *= np.where(rng.random(flat[k].shape) < 0.5, -1.0, 1.0)
    return flat.reshape(jac.shape)


@pytest.mark.parametrize("n", range(2, 14))
def test_batch_last_factor_matches_reference_on_random_stacks(n):
    rng = np.random.default_rng(100 + n)
    negative_zeros = 0
    for shape in ((), (1,), (7,), (128,)):
        jac = _random_tangents(rng, shape, n)
        u = rng.uniform(-1.0, 1.0, shape + (n,))
        _, metric, a, vol = geometry.metric_factor(u, jac)
        want_a, want_vol = _reference_factor(u, metric)
        assert same_bits(a, want_a) and same_bits(vol, want_vol), shape
        # the same metric with each zero entry -0.0: the signs must carry through too
        metric = np.where(metric == 0.0, -0.0, metric)
        chol, diag = geometry._cholesky(u, metric)
        want_chol, want_diag = reference_cholesky(u, metric)
        assert same_bits(np.moveaxis(chol, (0, 1), (-2, -1)), want_chol), shape
        assert same_bits(np.moveaxis(diag, 0, -1), want_diag), shape
        a = np.moveaxis(geometry._lower_inverse(chol, diag), (0, 1), (-2, -1))
        want_a = reference_lower_inverse(want_chol, want_diag)
        assert same_bits(a, want_a), shape
        negative_zeros += np.sum(np.signbit(want_a) & (want_a == 0.0))
    assert negative_zeros


def test_batch_last_factor_names_the_first_bad_point():
    # a pivot that is not > 0 and a tangent all but in the span of those before
    # it keep today's messages, each naming the first such point of the batch
    rng = np.random.default_rng(3)
    n = 4
    u = rng.uniform(-1.0, 1.0, (6, n))
    jac = rng.standard_normal((6, 2 * n + 2, n))
    # G_33 = 1 + 2^-52 exactly with L_30 = 1: L_33 = 2^-26 <= DEGENERACY_TOL (1 + |dF_3|)
    for k in (2, 4):
        jac[k] = np.eye(2 * n + 2, n)
        jac[k, 0, 3] = 1.0
        jac[k, 3, 3] = 2.0**-26
    with pytest.raises(DegeneratePointError) as err:
        geometry.metric_factor(u, jac)
    assert str(err.value) == f"coordinate tangents degenerate at u = {u[2].tolist()}"
    # a NaN tangent at point 5 reaches a pivot, which is checked before any degeneracy
    jac[5, 1, 1] = np.nan
    with pytest.raises(DegeneratePointError) as err:
        geometry.metric_factor(u, jac)
    assert str(err.value) == f"metric not positive definite at u = {u[5].tolist()}"
    metric = np.einsum("bki,bkj->bij", jac, jac)
    metric[1] = metric[3] = np.diag([1.0, -1.0, 1.0, 1.0])
    for cholesky in (geometry._cholesky, reference_cholesky):
        with pytest.raises(DegeneratePointError) as err:
            cholesky(u, metric)
        assert str(err.value) == f"metric not positive definite at u = {u[1].tolist()}"
        with pytest.raises(DegeneratePointError) as err:
            cholesky(u[3], metric[3])
        assert str(err.value) == f"metric not positive definite at u = {u[3].tolist()}"


# ---- sigma ----------------------------------------------------------------------


def test_sphere_sigma_vanishes():
    chart = zoo.geodesic_sphere(3).chart
    sig = _sigma(chart, _points(chart, 15, seed=5))
    assert np.max(np.abs(sig)) < 1e-13


def test_sigma_symmetric_on_zoo():
    for entry in ENTRIES:
        chart = entry.chart
        sig = _sigma(chart, _points(chart, 15, seed=6))
        assert np.all(sigma_symmetry_defect(sig) < 1e-9)


def _symmetry_defect_all_six(sigma):
    """The symmetry defect over all six index permutations, identity included."""
    lead = tuple(range(sigma.ndim - 3))
    return np.max([np.max(np.abs(sigma - np.transpose(sigma, lead + tuple(len(lead) + k for k in p))),
                          axis=(-3, -2, -1)) for p in itertools.permutations(range(3))], axis=0)


def _roster_verify_lines():
    """The verify command lines of the byte roster of tools/bytecheck.py."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"
    spec = importlib.util.spec_from_file_location("bytecheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv for argv in module.ROSTER if argv[0] == "verify"]


def test_sigma_symmetry_defect_matches_all_six_permutations(monkeypatch, capsys):
    # the two 3-cycles are inverse to each other and give the same maximum, so
    # dropping one keeps every bit, and so does folding the four differences
    # into one running elementwise maximum reduced once; random, symmetrized
    # and near-symmetric tensors, tensors with signed zeros and NaNs, stacks and
    # single points, the zoo's sigmas, and every sigma batch of the byte
    # roster's verify lines
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 2, 3, 5, 8):
        raw = rng.standard_normal((40, n, n, n))
        sym = sum(np.transpose(raw, (0,) + tuple(1 + k for k in p)) for p in itertools.permutations(range(3))) / 6
        near = sym + 1e-15 * rng.standard_normal(sym.shape)
        cases += [raw, sym, near, raw[0], near[0]]
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 8):
        zeros = np.where(rng.random((30, n, n, n)) < 0.5, -0.0, 0.0)
        sparse = np.where(rng.random(zeros.shape) < 0.7, zeros, rng.standard_normal(zeros.shape))
        nan = np.where(rng.random(zeros.shape) < 0.02, np.nan, sparse)
        nan[3, 0, 0, 0] = np.nan
        assert np.isnan(sigma_symmetry_defect(nan)[3])
        cases += [zeros, sparse, nan, zeros[0], nan[3]]
    cases += [_sigma(entry.chart, _points(entry.chart, 15, seed=6)) for entry in ENTRIES]

    def checked(sigma):
        got = sigma_symmetry_defect(sigma)
        assert np.shape(got) == sigma.shape[:-3]
        assert np.array_equal(_bits(got), _bits(_symmetry_defect_all_six(sigma))), sigma.shape
        return got

    for sigma in cases:
        checked(sigma)
    batches = []

    def checked_in_verify(sigma):
        batches.append(sigma.shape)
        return checked(sigma)

    monkeypatch.setattr(verify, "sigma_symmetry_defect", checked_in_verify)
    lines = _roster_verify_lines()
    for argv in lines:
        cli.main(argv)
    capsys.readouterr()
    assert len(batches) >= len(lines) >= 30


def test_minimality_and_legendrian_on_zoo():
    for entry in ENTRIES:
        chart = entry.chart
        pd = point_data(chart, _points(chart, 15, seed=7))
        assert np.all(legendrian_residual(pd.frame) < 1e-10)
        assert np.all(minimality_residual(pd.sigma) < 1e-9)


def test_calabi_sigma_matches_adapted_form():
    # rotate the computed tensor into the eigenbasis of S; after fixing the
    # sign of the top eigenvector it must equal the closed form
    for n in (3, 4):
        chart = zoo.calabi_torus(n).chart
        want = zoo.calabi_sigma_closed_form(n)
        pts = _points(chart, 5, seed=8)
        for u, sig in zip(pts, _sigma(chart, pts)):
            res = sym_eigen(fundamental_matrix(sig))
            q = res.vectors
            rot = np.einsum("abc,ai,bj,ck->ijk", sig, q, q, q)
            if rot[0, 0, 0] < 0.0:
                rot = np.einsum("abc,ai,bj,ck->ijk", rot, *(np.diag([-1.0] + [1.0] * (n - 1)),) * 3)
            assert np.max(np.abs(rot - want)) < 1e-9, (n, u)


def test_sigma_full_contraction_invariant():
    # I = sigma_abk sigma_bcl sigma_cam sigma_klm is frame-independent, so the
    # computed tensor must reproduce the closed-form value for every n
    def inv(s):
        return float(np.einsum("abk,bcl,cam,klm->", s, s, s, s))

    for n in (2, 3, 4):
        chart = zoo.calabi_torus(n).chart
        want = inv(zoo.calabi_sigma_closed_form(n))
        for sig in _sigma(chart, _points(chart, 5, seed=9)):
            assert abs(inv(sig) - want) < 1e-9


# ---- fundamental matrix and spectrum --------------------------------------------


def test_fundamental_matrix_calabi_eigenvalues():
    for n, want in ((2, [1.0, 1.0]), (3, [2.0, 2.0 / 3.0, 2.0 / 3.0])):
        chart = zoo.calabi_torus(n).chart
        u = _points(chart, 1, seed=10)[0]
        s = fundamental_matrix(_sigma(chart, u))
        assert np.max(np.abs(sym_eigen(s).values - want)) < 1e-10


def test_fundamental_matrix_zero_sigma():
    assert np.max(np.abs(fundamental_matrix(np.zeros((3, 3, 3))))) == 0.0


def test_spectrum_fields():
    spec = spectrum_of(np.zeros((5, 5)))
    assert spec.normB2 == 0.0
    assert spec.pinch == 0.0
    assert gauss_rank(spec) == 0


def test_spectrum_normb2_matches_sigma_norm():
    for entry in ENTRIES:
        chart = entry.chart
        sig = _sigma(chart, _points(chart, 1, seed=11)[0])
        spec = spectrum_of(fundamental_matrix(sig))
        assert abs(spec.normB2 - float(np.sum(sig * sig))) < 1e-10


def test_frame_rotation_invariance():
    # conjugating sigma by a random rotation leaves the spectrum fixed
    rng = np.random.default_rng(14)
    for entry in ENTRIES:
        chart = entry.chart
        sig = _sigma(chart, _points(chart, 1, seed=15)[0])
        spec0 = spectrum_of(fundamental_matrix(sig))
        q = random_orthogonal(rng, chart.dim)
        rot = np.einsum("abc,ai,bj,ck->ijk", sig, q, q, q)
        spec1 = spectrum_of(fundamental_matrix(rot))
        assert np.max(np.abs(spec0.lambdas - spec1.lambdas)) < 1e-9
        assert abs(spec0.pinch - spec1.pinch) < 1e-9


def test_gauss_rank_on_zoo():
    for entry in ENTRIES:
        chart = entry.chart
        u = _points(chart, 1, seed=16)[0]
        rank = gauss_rank(point_data(chart, u).spectrum)
        assert isinstance(rank, int) and rank == entry.gauss_rank
        ranks = gauss_rank(point_data(chart, _points(chart, 4, seed=16)).spectrum)
        assert np.array_equal(ranks, [entry.gauss_rank] * 4), entry.name


# ---- simons identity -------------------------------------------------------------


def test_simons_zero_sigma():
    assert simons_residual(np.zeros((4, 4, 4))) == 0.0


def test_simons_closed_form_calabi():
    for n in range(2, 7):
        sig = zoo.calabi_sigma_closed_form(n)
        assert simons_residual(sig) <= 1e-10


def test_simons_computed_sigma():
    # hard entries must satisfy the identity; soft ones are diagnostic only
    # (the equivariant cubic form is not parallel: residual is O(1) there)
    for entry in ENTRIES:
        chart = entry.chart
        res = simons_residual(_sigma(chart, _points(chart, 1, seed=18)[0]))
        if entry.simons_hard:
            assert res <= entry.simons_tol
        else:
            assert np.isfinite(res)


# ---- curvature oracle -------------------------------------------------------------


# The differenced oracle that the exact one replaced, kept verbatim as a
# reference: Christoffel symbols exact from the jets, their derivatives by
# central differences over a (2n+1)-point stencil per sample.
CURVATURE_STEP = 2e-6


def metric_derivative(jac: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """dG[..., l, s, t] = d_l G_st = <d2F_ls, dF_t> + <dF_s, d2F_lt>, exact from the jets.

    jac has shape B + (2n+2, n) and hess B + (2n+2, n, n).
    """
    n = jac.shape[-1]
    batch = jac.shape[:-2]
    # a[..., l, s, t] = <d2F_ls, dF_t>
    a = (_t(hess.reshape(batch + (-1, n * n))) @ jac).reshape(batch + (n, n, n))
    return a + a.swapaxes(-1, -2)


def differenced_scalar_curvature(chart: ImmersionChart, u) -> float | np.ndarray:
    """Scalar curvature from the induced metric alone.

    G and its first derivatives dG come exact from the jets, so the
    Christoffel symbols are exact; only their derivatives are central
    differences with step CURVATURE_STEP, O(step^2) in truncation.  The route
    never touches sigma or the complex structure; it is the independent oracle
    for the Gauss-equation relation R = n(n-1) - |B|^2.  u of shape (n,) gives a
    float; a stack of shape (N, n) gives shape (N,), with the 2n+1 stencil
    points of every sample in one batched jet evaluation.
    """
    u = np.asarray(u, dtype=float)
    n = chart.dim
    h = CURVATURE_STEP * np.eye(n)
    # per sample: the centre, then u + h e_m and u - h e_m for each m
    stencil = np.concatenate([u[..., None, :], u[..., None, :] + h, u[..., None, :] - h], axis=-2)
    _, jac, hess = chart.jet_eval(stencil)
    _, metric, _, _ = metric_factor(stencil, jac)
    ginvs = np.linalg.inv(metric)
    dg = metric_derivative(jac, hess)
    # Gamma^k_st = G^kl (d_s G_lt + d_t G_ls - d_l G_st) / 2
    lowered = 0.5 * (np.einsum("...slt->...lst", dg) + np.einsum("...tls->...lst", dg) - dg)
    gammas = np.einsum("...kl,...lst->...kst", ginvs, lowered)
    ginv, gamma = ginvs[..., 0, :, :], gammas[..., 0, :, :, :]
    # dgamma[..., m, k, s, t] = d_m Gamma^k_st
    dgamma = (gammas[..., 1:n + 1, :, :, :] - gammas[..., n + 1:, :, :, :]) / (2.0 * CURVATURE_STEP)
    term1 = np.einsum("...sskt,...kt->...", dgamma, ginv)
    term2 = np.einsum("...tsks,...kt->...", dgamma, ginv)
    term3 = np.einsum("...ssl,...lkt,...kt->...", gamma, gamma, ginv)
    term4 = np.einsum("...stl,...lks,...kt->...", gamma, gamma, ginv)
    r = term1 - term2 + term3 - term4
    return float(r) if r.ndim == 0 else r


def test_scalar_curvature_named_values():
    cases = [
        (zoo.geodesic_sphere(3).chart, 6.0),
        (zoo.calabi_torus(3).chart, 6.0 - 10.0 / 3.0),
        (zoo.equivariant_sphere3().chart, 2.0 / 3.0),
    ]
    for chart, want in cases:
        u = _points(chart, 1, seed=19)[0]
        assert abs(scalar_curvature_intrinsic(chart, u) - want) < 1e-13


def _gauss_gap(chart, pts):
    n = chart.dim
    r_gauss = n * (n - 1.0) - point_data(chart, pts).spectrum.normB2
    return np.abs(scalar_curvature_intrinsic(chart, pts) - r_gauss)


def test_gauss_equation_consistency():
    for entry in ENTRIES:
        assert np.max(_gauss_gap(entry.chart, _points(entry.chart, 20, seed=20))) < 1e-13


# Largest |exact - differenced| over sample_points seeds 0-19, 20 points each,
# as measured: the truncation and rounding of the differenced oracle.
_DIFFERENCED_GAPS = {
    "geodesic-sphere-n3": 1.3e-07,
    "calabi-n2": 8.8e-11,
    "calabi-n3": 8.8e-09,
    "calabi-n4": 4.1e-08,
    "equivariant-s3": 2.4e-08,
    "flat-torus": 1.4e-15,
}


def test_exact_oracle_matches_differenced_reference():
    for entry in zoo.default_entries():
        chart = entry.chart
        gap = max(np.max(np.abs(scalar_curvature_intrinsic(chart, pts)
                                - differenced_scalar_curvature(chart, pts)))
                  for pts in (_points(chart, 20, seed=seed) for seed in range(20)))
        assert gap <= 5.0 * _DIFFERENCED_GAPS[entry.name], (entry.name, gap)


# Bound on |exact - known R| over sample_points seeds 0-19, 20 points each; each
# is at least 5x the worst measured there and over seeds 0-199.
_KNOWN_SCALAR_BOUNDS = [(entry, 1e-13) for entry in zoo.default_entries()] + [
    (zoo.geodesic_sphere(5), 2e-13), (zoo.calabi_torus(5), 2e-13),
    (zoo.geodesic_sphere(8), 5e-13), (zoo.calabi_torus(8), 5e-13),
    (zoo.geodesic_sphere(13), 2e-12), (zoo.calabi_torus(13), 2e-12),
]


@pytest.mark.parametrize("entry, bound", _KNOWN_SCALAR_BOUNDS,
                         ids=[entry.name for entry, _ in _KNOWN_SCALAR_BOUNDS])
def test_exact_oracle_matches_known_scalar(entry, bound):
    chart, n = entry.chart, entry.chart.dim
    scalar = float(n * (n - 1) - sum(entry.spectrum))
    gap = max(np.max(np.abs(scalar_curvature_intrinsic(chart, _points(chart, 20, seed=seed))
                            - scalar)) for seed in range(20))
    assert gap <= bound, (entry.name, gap)


def test_scalar_curvature_batched_matches_per_point():
    for entry in zoo.default_entries():
        chart = entry.chart
        pts = _points(chart, 20, seed=7)
        batched = scalar_curvature_intrinsic(chart, pts)
        assert batched.shape == (20,)
        single = np.array([scalar_curvature_intrinsic(chart, u) for u in pts])
        assert isinstance(scalar_curvature_intrinsic(chart, pts[0]), float)
        assert np.max(np.abs(batched - single)) <= 1e-12, entry.name
        # jet_eval takes a stack of any leading batch shape, unflattened
        for part, flat in zip(chart.jet_eval(pts.reshape(4, 5, -1)), chart.jet_eval(pts)):
            assert np.array_equal(part, flat.reshape((4, 5) + flat.shape[1:])), entry.name


def test_scalar_curvature_from_given_jets_is_bit_identical(monkeypatch):
    # verify_chart hands the oracle the jets of its batched pass; given the jets
    # of the same points, the oracle returns the bits it would compute itself,
    # and evaluates nothing
    def refuse(u):
        raise AssertionError("the oracle evaluated jets it was given")

    for entry in zoo.default_entries() + [zoo.calabi_torus(8)]:
        chart = entry.chart
        pts = _points(chart, 20, seed=7)
        for u in (pts, pts[:1], pts[0]):
            own = scalar_curvature_intrinsic(chart, u)
            _, jac, hess = chart.jet_eval(u)
            jets = (jac, hess, geometry.metric_factor(u, jac)[2])
            with monkeypatch.context() as m:
                m.setattr(chart, "jet_eval", refuse)
                given = scalar_curvature_intrinsic(chart, u, jets=jets)
            assert type(given) is type(own) and isinstance(given, float) == (u.ndim == 1), entry.name
            assert np.array_equal(_bits(given), _bits(own)), (entry.name, u.shape)


def test_oracle_given_the_pass_factor_is_bit_identical(monkeypatch):
    # verify_chart hands the oracle the change of basis a of its batched pass
    # as well as the jets: given them, the oracle factors and evaluates nothing
    # and returns the bits of a stand-alone call, on the roster's curvature
    # samples and near the pole margin up to n = 13, for a stack of samples
    # behind other points of a batch and for one point
    def refuse(*args):
        raise AssertionError("the oracle computed what it was given")

    for entry, u in _factor_samples():
        chart = entry.chart
        pd = point_data(chart, np.concatenate([_points(chart, 3, seed=5), u]))
        own, own_one = scalar_curvature_intrinsic(chart, u), scalar_curvature_intrinsic(chart, u[0])
        with monkeypatch.context() as m:
            m.setattr(geometry, "metric_factor", refuse)
            m.setattr(chart, "jet_eval", refuse)
            given = scalar_curvature_intrinsic(chart, u, jets=(pd.jac[3:], pd.hess[3:], pd.frame.a[3:]))
            one = scalar_curvature_intrinsic(chart, u[0], jets=(pd.jac[3], pd.hess[3], pd.frame.a[3]))
        assert np.array_equal(_bits(given), _bits(own)), entry.name
        assert isinstance(one, float) and np.array_equal(_bits(one), _bits(own_one)), entry.name


# Largest Gauss gap at verify's 20 sample points for grid seed 0, as measured
# with the earlier oracle that took dG as well as dGamma by central differences
# (step 5e-5, (2n+1)^2 stencil points per sample).
_NESTED_DIFFERENCE_GAPS = {
    "geodesic-sphere-n3": 4.86e-06,
    "calabi-n2": 5.16e-08,
    "calabi-n3": 3.30e-06,
    "calabi-n4": 1.40e-05,
    "equivariant-s3": 9.12e-06,
    "flat-torus": 1.33e-07,
}


def test_gauss_gap_below_nested_differences():
    for entry in zoo.default_entries():
        gap = np.max(_gauss_gap(entry.chart, _points(entry.chart, 20, seed=7)))
        assert gap <= _NESTED_DIFFERENCE_GAPS[entry.name] / 100.0, (entry.name, gap)


def test_derivative_cross_check_on_zoo():
    # the exact curvature oracle reads the same d2F as sigma does, so only these
    # differences of point values check the jets themselves, at large n too
    large = [zoo.geodesic_sphere(8), zoo.calabi_torus(8), zoo.geodesic_sphere(13), zoo.calabi_torus(13)]
    for entry in ENTRIES + large:
        chart = entry.chart
        pts = _points(chart, 50 if chart.dim < 8 else 10, seed=21)
        # from n = 8 the stencil's jets are large, so one point per call
        d1, d2 = (derivative_cross_check(chart, pts) if chart.dim < 8
                  else np.array([derivative_cross_check(chart, u) for u in pts]).T)
        assert d1.shape == d2.shape == (len(pts),)
        assert np.all(d1 < 1e-6) and np.all(d2 < 1e-6), entry.name


def test_derivative_cross_check_batched_matches_per_point():
    for entry in zoo.default_entries():
        chart = entry.chart
        pts = _points(chart, 5, seed=24)
        batched = np.stack(derivative_cross_check(chart, pts), axis=1)
        single = [derivative_cross_check(chart, u) for u in pts]
        assert all(isinstance(g, float) for pair in single for g in pair)
        assert np.array_equal(batched, np.array(single)), entry.name


# ---- negative controls -------------------------------------------------------------


def test_non_legendrian_chart_flagged():
    def fn(u):
        u1, u2 = u
        e = jets.cis(u2)
        return (jets.cos(u1) * e, jets.sin(u1) * e, 0.0 * e)

    chart = ImmersionChart(
        "not-legendrian", 2,
        (Interval(0.1, 1.4), Interval(0.0, 2 * np.pi, periodic=True)),
        fn,
    )
    fr = point_data(chart, np.array([0.7, 1.3])).frame
    assert abs(np.linalg.norm(fr.F) - 1.0) < 1e-12
    assert legendrian_residual(fr) > 0.5


def test_non_minimal_chart_flagged():
    def fn(u):
        t1, t2 = u
        g = (jets.cis(t1), jets.cis(t2), (1.0 + 0.2 * jets.cos(t1)) * jets.cis(-(t1 + t2)))
        s = g[0] * jets.conj(g[0]) + g[1] * jets.conj(g[1]) + g[2] * jets.conj(g[2])
        r = jets.sqrt(s.real_part())
        return tuple(c / r for c in g)

    chart = ImmersionChart(
        "not-minimal", 2,
        (Interval(0.0, 2 * np.pi, periodic=True), Interval(0.0, 2 * np.pi, periodic=True)),
        fn,
    )
    pd = point_data(chart, _points(chart, 5, seed=22))
    assert np.max(np.abs(np.linalg.norm(pd.frame.F, axis=-1) - 1.0)) < 1e-12
    assert np.max(minimality_residual(pd.sigma)) > 0.01


# ---- point_data convenience ---------------------------------------------------------


def test_point_data_consistent_with_parts():
    # a single point against its row of a batched call, and against its parts
    chart = zoo.calabi_torus(3).chart
    u = _points(chart, 1, seed=23)[0]
    pd = point_data(chart, u)
    row = point_data(chart, np.concatenate([u[None], _points(chart, 2, seed=24)]))
    assert np.array_equal(pd.frame.e.shape, row.frame.e.shape[1:])
    assert np.max(np.abs(pd.sigma - row.sigma[0])) < 1e-15
    assert abs(pd.spectrum.pinch - 4.0) < 1e-9
