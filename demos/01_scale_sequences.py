"""Scale sequences: exact dyadic derivation and validation.

Three sequences drive everything downstream: per-level heights (powers of
two), widths (powers of two times the base constant c), and rotation steps.
The width schedule targets a chosen box dimension s of the horizontal
projection.  Everything here is exact rational arithmetic: every constraint
is decided by an exact comparison, and its margin is the exact slack (printed
here as a float).
"""

from fractions import Fraction

from cantortubes import build_schedule, derive_sequences, validate_sequences
from cantortubes.dyadic import short_repr

for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
    table = derive_sequences(build_schedule(s, 3), Fraction(1, 16))
    print(f"\n=== target dimension s = {s} (c = 1/16, depth 3) ===")
    print(f"  width exponents s_n : {[str(x) for x in table.schedule.s_n]}")
    for n in range(1, 4):
        print(f"  level {n}: width {short_repr(table.delta_(n)):>8}   "
              f"height {short_repr(table.Delta_(n)):>8}   "
              f"angle step {short_repr(table.theta_(n)):>8}")
    report = validate_sequences(table)
    worst = min(e.margin for e in report.entries if e.margin is not None)
    print(f"  validation: {'all pass' if report.ok else 'FAILURES'}; "
          f"{len(report.entries)} checks, smallest margin {float(worst):g}")

print("\n=== depth limits ===")
from cantortubes import DepthUnreachableError  # noqa: E402

try:
    derive_sequences(build_schedule(1, 12), Fraction(1, 16))
except DepthUnreachableError as exc:
    print(f"  requested depth 12 -> {exc}")
    print("  (widths shrink super-exponentially; exponents pass 10^5 bits "
          "around level 8)")
