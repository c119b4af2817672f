#!/usr/bin/env python3
"""Tour of the reference immersions.

Walks the example roster, evaluates the cubic form at a few points of each
chart, and prints the spectral data that the rest of the toolkit keeps
checking: the squared norm of the second fundamental form, the eigenvalues
of the fundamental matrix, and the pinching quantity |B|^2 + lambda_2.
"""

import numpy as np

from minleg.geometry import legendrian_residual, minimality_residual, point_data
from minleg.verify import sample_points
from minleg.zoo import default_entries

np.set_printoptions(precision=6, suppress=True)

for entry in default_entries():
    chart = entry.chart
    n = chart.dim
    print(f"== {entry.name}  (n = {n}, ambient sphere S^{2 * n + 1})")
    print(f"   {entry.notes}")

    # three interior points; every printed quantity is point-independent
    # for these homogeneous examples, which is part of what makes them
    # useful as fixed targets
    for u in sample_points(chart, 3, seed=42):
        pd = point_data(chart, u)
        sp = pd.spectrum
        print(f"   u = {np.array2string(u, precision=3)}")
        print(f"     legendrian residual  {legendrian_residual(pd.frame):.2e}")
        print(f"     minimality residual  {minimality_residual(pd.sigma):.2e}")
        print(f"     |B|^2 = {sp.normB2:.12f}   lambdas = {sp.lambdas}")
        print(f"     pinch |B|^2 + lambda_2 = {sp.pinch:.12f}"
              f"   (registry says {entry.pinch:g})")
    print()

# the pinching quantity separates the roster into the Calabi family (minimal
# Legendrian S^1 x S^(n-1), flat only at n = 2) and the flat torus congruent
# to its n = 2 member, sitting exactly at n + 1, and the cases away from it
print("roster summary:")
for entry in default_entries():
    n = entry.chart.dim
    gap = entry.pinch - (n + 1.0)
    side = "at the borderline" if abs(gap) < 1e-12 else f"off by {gap:+g}"
    print(f"  {entry.name:<20} pinch = {entry.pinch:g}  vs n+1 = {n + 1}  ({side})")
