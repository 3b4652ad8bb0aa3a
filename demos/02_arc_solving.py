"""Arc solving: one circle per level, pinned by an exact sub-arc angle.

Each level needs the circle through (0,0) and (width, height) whose center
lies on the perpendicular bisector, below the x-axis, such that the sub-arc
down to the next height line subtends exactly the next angle step.  Pushing
the center outward shrinks that angle monotonically, so one center fits;
it has a closed form, and the angle recomputed from it in extended
precision matches the target to a few units in the last place.
"""

from fractions import Fraction

import numpy as np

from _geometry import angle_profile, perp_bisector_axis_crossing
from cantortubes import build_schedule, derive_sequences, solve_table_arcs

table = derive_sequences(build_schedule(1, 3), Fraction(1, 16))
sols = solve_table_arcs(table)

print("=== solved arcs (strict default table) ===")
for sol in sols:
    print(f"  level {sol.level}: center ({float(sol.center[0]):.6f}, "
          f"{float(sol.center[1]):.6f}), radius {float(sol.radius):.6f}")
    print(f"    target sub-arc angle {float(sol.sub_angle):.3e}, "
          f"residual {float(sol.residual):.3e}")
    checks = sol.check()
    print(f"    invariants: {'all pass' if checks.ok else 'FAILURES'}")

print("\n=== why the center is unique: the angle profile is monotone ===")
d, D = table.delta_(1), table.Delta_(1)
print(f"  bisector crosses the x-axis at {perp_bisector_axis_crossing(d, D)}")
ts = np.linspace(0.0, 2000.0, 9)
angles = angle_profile(d, D, table.Delta_(2), ts)
for t, a in zip(ts, angles):
    print(f"  center offset {t:8.1f}  ->  sub-arc angle {a:.6e}")
print("  (strictly decreasing toward zero, so exactly one offset meets the "
      "target angle)")
