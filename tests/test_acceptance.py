"""Acceptance battery: ten numbered criteria, one verdict line each.

Run with -s to see the verdict lines; each test also fails loudly on its own.
"""

import subprocess
import sys
import time

import numpy as np
from _helpers import checkout_env, random_orthogonal, random_orthogonal_family

from minleg.geometry import (
    derivative_cross_check,
    fundamental_matrix,
    point_data,
    scalar_curvature_intrinsic,
    simons_residual,
    spectrum_of,
)
from minleg.lu_inequality import MatrixFamily, canonical_extremal, extremal_search, lu_check
from minleg.symmat import symmetrize
from minleg.verify import integral_p1, sample_points
from minleg.zoo import (
    calabi_sigma_closed_form,
    calabi_torus,
    default_entries,
    equivariant_sphere3,
    flat_torus,
)


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_calabi_spectra():
    worst_lam = worst_pinch = 0.0
    for n in range(2, 7):
        entry = calabi_torus(n)
        want = np.array([n - 1.0] + [2.0 / n] * (n - 1))
        for u in sample_points(entry.chart, 200, seed=100 + n):
            sp = point_data(entry.chart, u).spectrum
            worst_lam = max(worst_lam, float(np.max(np.abs(sp.lambdas - want))))
            worst_pinch = max(worst_pinch, abs(sp.pinch - (n + 1.0)))
    ok = worst_lam <= 1e-9 and worst_pinch <= 1e-9
    _verdict(1, ok, f"lambda dev {worst_lam:.2e}, pinch dev {worst_pinch:.2e}")


def test_criterion_02_equivariant_values():
    entry = equivariant_sphere3()
    worst_b = worst_l3 = worst_pinch = 0.0
    ranks = set()
    for u in sample_points(entry.chart, 200, seed=202):
        sp = point_data(entry.chart, u).spectrum
        worst_b = max(worst_b, abs(sp.normB2 - 16.0 / 3.0))
        worst_l3 = max(worst_l3, abs(sp.lambdas[2]))
        worst_pinch = max(worst_pinch, abs(sp.pinch - 8.0))
        ranks.add(int(np.sum(sp.lambdas > 1e-8)))
    ok = worst_b <= 1e-8 and worst_l3 <= 1e-9 and worst_pinch <= 1e-8 and ranks == {2}
    _verdict(2, ok, f"|B|^2 dev {worst_b:.2e}, lambda_3 {worst_l3:.2e}, "
                    f"pinch dev {worst_pinch:.2e}, ranks {sorted(ranks)}")


def test_criterion_03_flat_torus():
    entry = flat_torus()
    worst_b = 0.0
    for u in sample_points(entry.chart, 50, seed=303):
        worst_b = max(worst_b, abs(point_data(entry.chart, u).spectrum.normB2 - 2.0))
    worst_r = float(np.max(np.abs(scalar_curvature_intrinsic(
        entry.chart, sample_points(entry.chart, 10, seed=304)))))
    ok = worst_b <= 1e-9 and worst_r <= 1e-9
    _verdict(3, ok, f"|B|^2 dev {worst_b:.2e}, intrinsic R dev {worst_r:.2e}")


def test_criterion_04_lu_fuzz_and_equality_grid():
    rng = np.random.default_rng(404)
    min_slack = np.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        fam = random_orthogonal_family(rng, n)
        min_slack = min(min_slack, lu_check(fam).slack)
    worst_eq = 0.0
    for n in range(2, 7):
        for k in range(1, n):
            for mu in (0.0, 0.3, 1.0, 2.0):
                worst_eq = max(worst_eq, abs(lu_check(canonical_extremal(n, k, mu)).slack))
    ok = min_slack >= -1e-10 and worst_eq <= 1e-12
    _verdict(4, ok, f"min fuzz slack {min_slack:.2e}, max |equality slack| {worst_eq:.2e}")


def test_criterion_05_optimizer_reaches_bound():
    t0 = time.perf_counter()
    best, _, _ = extremal_search(4, (1.0, 1.0, 1.0), restarts=100, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = 4.0 - 1e-4 <= best <= 4.0 + 1e-6 and elapsed < 30.0
    _verdict(5, ok, f"best {best:.12f}, {elapsed:.1f}s for 100 restarts")


def test_criterion_06_simons_identity_closed_form():
    worst = 0.0
    for n in range(2, 7):
        worst = max(worst, simons_residual(calabi_sigma_closed_form(n)))
    _verdict(6, worst <= 1e-10, f"max residual {worst:.2e} over n=2..6")


def test_criterion_07_gauss_oracle():
    worst = 0.0
    for entry in default_entries():
        chart = entry.chart
        n = chart.dim
        pts = sample_points(chart, 20, seed=707)
        gap = np.abs(scalar_curvature_intrinsic(chart, pts)
                     - (n * (n - 1.0) - point_data(chart, pts).spectrum.normB2))
        worst = max(worst, float(np.max(gap)))
    _verdict(7, worst <= 1e-13, f"max |R_metric - (n(n-1) - |B|^2)| = {worst:.2e}")


def test_criterion_08_integral_obstruction():
    values = {e.name: integral_p1(e.chart) for e in default_entries()}
    max_p1 = max(values.values())
    zero_names = ["geodesic-sphere-n3", "calabi-n2", "calabi-n3", "calabi-n4"]
    worst_zero = max(abs(values[name]) for name in zero_names)
    eq_val = values["equivariant-s3"]
    ok = max_p1 <= 1e-8 and worst_zero <= 1e-8 and eq_val < -1.0
    _verdict(8, ok, f"max p1 {max_p1:.2e}, flat-case dev {worst_zero:.2e}, "
                    f"equivariant p1 {eq_val:.4g}")


def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(909)
    worst_rot = 0.0
    worst_fd = 0.0
    for entry in default_entries():
        chart = entry.chart
        for u in sample_points(chart, 5, seed=910):
            sig = point_data(chart, u).sigma
            lam = spectrum_of(fundamental_matrix(sig)).lambdas
            q = random_orthogonal(rng, chart.dim)
            rot = np.einsum("ai,bj,ck,abc->ijk", q, q, q, sig)
            lam_rot = spectrum_of(fundamental_matrix(rot)).lambdas
            worst_rot = max(worst_rot, float(np.max(np.abs(lam - lam_rot))))
        d1, d2 = derivative_cross_check(chart, sample_points(chart, 50, seed=911))
        worst_fd = max(worst_fd, float(np.max(d1)), float(np.max(d2)))
    worst_conj = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        fam = random_orthogonal_family(rng, n)
        q = random_orthogonal(rng, n)
        rotated = np.einsum("pi,aij,qj->apq", q, fam.mats, q)
        conj = MatrixFamily(n=n, mats=np.stack([symmetrize(a) for a in rotated]))
        worst_conj = max(worst_conj, abs(lu_check(fam).slack - lu_check(conj).slack))
    ok = worst_rot <= 1e-9 and worst_conj <= 1e-10 and worst_fd <= 1e-6
    _verdict(9, ok, f"rotation dev {worst_rot:.2e}, conjugation dev {worst_conj:.2e}, "
                    f"derivative dev {worst_fd:.2e}")


def test_criterion_10_report_determinism():
    cmd = [sys.executable, "-m", "minleg", "verify", "--example", "calabi",
           "--n", "3", "--grid", "24", "--no-timing"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=checkout_env())
    second = subprocess.run(cmd, capture_output=True, check=True, env=checkout_env())
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _verdict(10, ok, f"{len(first.stdout)} report bytes, byte-identical={ok}")
