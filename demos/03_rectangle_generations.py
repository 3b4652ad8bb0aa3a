"""Rectangle generations: materialized shallow levels, lazy deep levels.

Each rectangle spawns children along its level's arc; the uniform child
count is the minimum over parents of a binary-searched containment count.
Level 3 of the strict default table already holds ~1.7e10 rectangles, so it
is only reachable through closed-form anchors indexed by child paths.
"""

import random
from fractions import Fraction
from pathlib import Path

from cantortubes import (
    Construction,
    PopulationCapError,
    build_schedule,
    derive_sequences,
    projection_lengths,
    verify_counts,
    verify_spacing,
)
from cantortubes.render import render_level_set

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

cons = Construction(derive_sequences(build_schedule(1, 3), Fraction(1, 16)))

print("=== child counts (exact, binary search per parent) ===")
print(f"  N_1 = {cons.N(1)} (the unit square's children)")
print(f"  N_2 = {cons.N(2)} (minimum over the {len(cons.level(2))} "
      "level-2 parents)")
print(f"  level-3 population = N_1 * N_2 = {cons.population(3):,}")

try:
    cons.level(3)
except PopulationCapError as exc:
    print(f"  materializing level 3: {exc}")

print("\n=== lazy access by path ===")
rng = random.Random(1)
for _ in range(3):
    path = (rng.randint(1, cons.N(1)), rng.randint(1, cons.N(2)))
    a = cons.anchor_by_path(path)
    print(f"  path {path}: anchor ({float(a.real):.12f}, {float(a.imag):.12f})")

print("\n=== verification ===")
for rep in (verify_spacing(cons, 2),
            verify_spacing(cons, 3, n_samples=500, rng=random.Random(2)),
            verify_counts(cons, 2)):
    bad = [e.name for e in rep.entries if e.status != "pass"]
    print(f"  {rep.title}: "
          f"{'all pass' if not bad else 'non-passing: ' + ', '.join(bad)}")
print("  (the level-1 angle-ratio bound fails with exact equality 16 == 16; "
      "the first level's unit width leaves no headroom)")

print("\n=== projections ===")
ly2, lx2 = projection_lengths(cons, 2)
ly3, lx3 = projection_lengths(cons, 3)
print(f"  level 2: vertical mass {float(ly2):.6f}, horizontal {float(lx2):.6f}")
print(f"  level 3: vertical mass {float(ly3):.6f}, horizontal {float(lx3):.3e}"
      " (computed lazily)")
print("  vertical mass stays near 1 while the horizontal support collapses: "
      "the limit curve is a graph over a null Cantor set")

svg = render_level_set(cons, 2)
(OUT / "level2.svg").write_text(svg)
print(f"\nwrote {OUT / 'level2.svg'}")
