#!/usr/bin/env python3
"""Two independent routes to the same curvature numbers.

The geometry engine differentiates charts with forward-mode jets, so its
sigma-tensor route to scalar curvature R = n(n-1) - |B|^2 is analytic.  The
oracle route below never touches sigma, J or the tangent frame: it takes the
part h of d2F normal to the tangent space in R^(2n+2), with G from the
induced metric, and applies the Gauss formula R = |H|^2 - |h|^2.  Both
routes are exact up to rounding.  Agreement of the two is the Gauss-equation
consistency check; disagreement would mean the frame construction, the
complex structure or the eigensolver is wrong, or that d2F has a wrong
component along F or JF, which sigma does not see.

What the metric route no longer does: being exact at the point, it does not
compare d2F against differences of dF at nearby points, so a d2F that is
wrong yet consistent in both routes passes it.  The Richardson cross-check
further down is the check on the jets themselves.
"""

import numpy as np

from minleg.geometry import (
    derivative_cross_check,
    point_data,
    scalar_curvature_intrinsic,
    simons_residual,
)
from minleg.verify import sample_points
from minleg.zoo import calabi_sigma_closed_form, default_entries

print(f"{'chart':<20} {'R (sigma route)':>16} {'R (metric route)':>17} {'gap':>10}")
for entry in default_entries():
    chart = entry.chart
    n = chart.dim
    u = sample_points(chart, 1, seed=11)[0]
    r_sigma = n * (n - 1.0) - point_data(chart, u).spectrum.normB2
    r_metric = scalar_curvature_intrinsic(chart, u)
    print(f"{entry.name:<20} {r_sigma:>16.10f} {r_metric:>17.10f} "
          f"{abs(r_sigma - r_metric):>10.2e}")
print()

# ---- jet derivatives against Richardson differences ---------------------------

print("jet jacobian/hessian vs Richardson central differences (worst of 10 pts):")
for entry in default_entries():
    g1, g2 = derivative_cross_check(entry.chart, sample_points(entry.chart, 10, seed=12))
    d1, d2 = np.max(g1), np.max(g2)
    print(f"  {entry.name:<20} first-order {d1:.2e}   second-order {d2:.2e}")
print()

# ---- the matrix identity for parallel cubic forms ------------------------------

# the closed-form Calabi sigma satisfies the identity to rounding error;
# the equivariant example does not (its cubic form is not parallel), and the
# residual is exactly the size of the missing derivative term
print("matrix identity residual on closed-form cubic tensors:")
for n in range(2, 7):
    res = simons_residual(calabi_sigma_closed_form(n))
    print(f"  calabi n={n}: {res:.2e}")

from minleg.zoo import equivariant_sphere3

entry = equivariant_sphere3()
u = sample_points(entry.chart, 1, seed=13)[0]
res = simons_residual(point_data(entry.chart, u).sigma)
print(f"  equivariant-s3 (computed sigma): {res:.3f}  <- not parallel, reported soft")
