"""Rotated copies and their tube covering.

Every rotation angle gets a translation vector, defined by a three-case
recursion on the dyadic angle grid and by left limits elsewhere, chosen so
that rotated copies of the curve overlap heavily.  Inflated, rotated,
translated boxes around each level's anchors then cover every rotated copy;
the intersection of these stage unions is the covering set.
"""

import random
from fractions import Fraction
from pathlib import Path

from _geometry import empirical_v_bounds
from cantortubes import Construction, RotationFamily, build_schedule, \
    derive_sequences
from cantortubes.render import render_gamma_theta, render_tube_stage

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

cons = Construction(derive_sequences(build_schedule(1, 3), Fraction(1, 16)))
rf = RotationFamily(cons)

print("=== translation vectors on the angle grid ===")
table = rf.translation_table(2)
for e in table[:6]:
    print(f"  index {e.index:3d} (theta = {e.index}*2^-8): "
          f"v = ({e.x:+.6f}, {e.y:+.6f})   [{e.case}]")
print(f"  ... {len(table)} grid entries at level 2")

print("\n=== off-grid angles: certified left limits ===")
for th in (0.3, 0.777):
    res = rf.v_limit(th)
    print(f"  theta = {th}: v = ({float(res.point.real):+.9f}, "
          f"{float(res.point.imag):+.9f}) +- {res.error_bound:.2e} "
          f"(grid level {res.grid_level})")

print("\n=== measured translation-size constants ===")
for n in (1, 2):
    b = empirical_v_bounds(rf, n, rng=random.Random(0))
    print(f"  below angle step {n}: |v_x| <= {b['K_x']:.3f} * step, "
          f"|v_y| <= {b['K_y']:.3f} * height scale "
          f"({b['samples']} samples)")

print("\n=== containment of rotated copies in the tube stages ===")
for th in (0.125, 0.51, 0.97):
    for n in (1, 2):
        rep = rf.check_containment(Fraction(th).limit_denominator(10**9), n,
                                   C=16, n_samples=200,
                                   rng=random.Random(3))
        print(f"  theta={th:5.3f} level {n}: minimal sufficient C = "
              f"{rep.C_min:6.2f} ({'inside' if rep.contained else 'OUTSIDE'} "
              f"at C=16)")
print("  (level 1 needs C up to ~29 near theta = 1: its constants carry a "
      "factor 1/c; level 2 sits below 2)")

(OUT / "tubes_stage1.svg").write_text(render_tube_stage(rf, 1, family_stride=2))
(OUT / "gamma_copies.svg").write_text(render_gamma_theta(
    rf, [0.0, 0.25, 0.5, 0.75], 2, n_samples=200))
print(f"\nwrote {OUT / 'tubes_stage1.svg'} and {OUT / 'gamma_copies.svg'}")
