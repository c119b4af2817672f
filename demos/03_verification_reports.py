#!/usr/bin/env python3
"""Verification reports end to end.

Runs the full check battery on one example, prints the report, then shows
the two properties reports are designed around: the integral obstruction
separates the borderline examples from the strict one, and report bytes are
deterministic so runs can be diffed.
"""

from minleg.verify import GridSpec, Tolerances, integral_p1, verify_chart
from minleg.zoo import default_entries, get_entry

# ---- one full report ----------------------------------------------------------

entry = get_entry("calabi", n=3)
report = verify_chart(entry, grid=GridSpec(points_per_dim=8))
print(report.to_text(), end="")
print()

# ---- every roster entry passes --------------------------------------------------

print("roster pass/fail with per-example grids:")
for e in default_entries():
    grid = GridSpec(points_per_dim=max(4, 10 - e.chart.dim * 2))
    r = verify_chart(e, grid=grid)
    hard = [c for c in r.checks if c.hard]
    print(f"  {e.name:<20} pass={r.passed}  "
          f"({sum(c.passed for c in hard)}/{len(hard)} hard checks)")
print()

# ---- the integral obstruction ---------------------------------------------------

# lambda_1 (n + 1 - |B|^2 - lambda_2) integrates to <= 0; zero exactly on
# the families sitting at the borderline, strictly negative otherwise
print("integral obstruction per closed chart:")
for e in default_entries():
    value = integral_p1(e.chart, GridSpec(points_per_dim=8))
    print(f"  {e.name:<20} p1 = {value: .6e}")
print()

# ---- determinism -----------------------------------------------------------------

a = verify_chart(entry, grid=GridSpec(points_per_dim=6)).to_text(include_timing=False)
b = verify_chart(entry, grid=GridSpec(points_per_dim=6)).to_text(include_timing=False)
print(f"two timing-free runs byte-identical: {a == b}")

# a tightened tolerance shows up as a failed check, never an exception
strict = verify_chart(entry, grid=GridSpec(points_per_dim=6),
                      tolerances=Tolerances(geometry=2e-15))
failing = [c.name for c in strict.checks if not c.passed]
print(f"with geometry tolerance 2e-15 the failing checks are: {failing}")
