#!/usr/bin/env python3
"""The commutator-norm inequality, its equality families, and the search.

For a Hilbert-Schmidt-orthogonal family of symmetric matrices A_1, ..., A_m
with ||A_1|| = 1 and descending tail norms, the inequality bounds

    sum_a ||[A_1, A_a]||^2   by   ||A_2||^2 + sum_a ||A_a||^2   (a >= 2).

This script checks random families, builds the canonical equality family,
and runs the projected-ascent search to watch it climb back to the bound.
"""

import numpy as np

from minleg.lu_inequality import (
    MatrixFamily,
    canonical_extremal,
    extremal_search,
    lu_bound,
    lu_check,
)
from minleg.symmat import frobenius_inner, frobenius_norm, symmetrize

rng = np.random.default_rng(7)

# ---- random families never violate the bound ---------------------------------

print("500 random orthogonalized families, n <= 6:")
slacks, violated = [], 0
for _ in range(500):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, n + 1))
    mats = []
    for i in range(m):
        a = symmetrize(rng.standard_normal((n, n)))
        for b in mats:
            a = a - frobenius_inner(a, b) / frobenius_inner(b, b) * b
        mats.append(a / frobenius_norm(a))
    tail = sorted(rng.uniform(0.2, 2.0, size=m - 1), reverse=True)
    scaled = [mats[0]] + [t * a for t, a in zip(tail, mats[1:])]
    report = lu_check(MatrixFamily(n=n, mats=np.stack(scaled)))
    slacks.append(report.slack)
    violated += report.verdict == "violated"
slacks = np.array(slacks)
print(f"  slack = rhs - lhs: min {slacks.min():.6f}, mean {slacks.mean():.6f}")
print(f"  verdict 'violated' (slack < -rounding bound): {violated} of 500")
print()

# ---- the canonical equality family -------------------------------------------

# A_1 carries a k-block spectrum, the tail matrices pair the distinguished
# first coordinate with the remaining block directions
print("canonical equality family, n = 4, k = 2, mu = 1:")
fam = canonical_extremal(4, 2, 1.0)
report = lu_check(fam)
print(f"  A_1 diagonal: {np.diag(fam.mats[0])}")
print(f"  lhs = {report.lhs:.15f}")
print(f"  rhs = {report.rhs:.15f}")
print(f"  slack {report.slack:.2e}, rounding bound {report.rounding_bound:.2e}, verdict {report.verdict}")
print()

# ---- projected ascent finds the bound from random starts ---------------------

print("search: n = 4, tail norm profile (1, 1, 1), 20 restarts, seed 0")
best, best_fam, stats = extremal_search(4, (1.0, 1.0, 1.0), restarts=20, seed=0)
bound = lu_bound(best_fam)
print(f"  bound     = {bound:.15f}")
print(f"  best Phi  = {best:.15f}")
print(f"  gap       = {bound - best:.3e}")
print(f"  exits     = {stats.exits}, {stats.steps} gradient steps")
print("  leading matrix of the best family (eigenvalues):")
print(f"  {np.linalg.eigvalsh(best_fam.mats[0])}")
