"""Per-level circular arcs, solved in closed form.

Each level n needs the circle through (0, 0) and (delta_n, Delta_n) whose
center sits on the perpendicular bisector of those points, below the x-axis,
such that the sub-arc from the origin to the intersection with the line
y = Delta_{n+1} subtends exactly theta_{n+1}.  The center has a closed form
(see `solve_arc`); each solution re-derives its achieved angle from the
center and verifies it against the target.  A construction works at its
solutions' precision; `hierarchy.child_anchor` gives the arc's points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
from mpmath.libmp import dps_to_prec

from .dyadic import is_dyadic
from .errors import BracketError, FeasibilityError
from .numerics import arith_error, default_precision, frac_to_mpf, workprec
from .reports import VerificationReport


@dataclass(frozen=True)
class ArcSolution:
    """Solved circle for one level: center below the x-axis, radius,
    the line intersection q, and the achieved sub-arc angle.  The target
    angle is stored as the integers num, e: sub_angle = num*2**-e."""

    level: int
    center: tuple
    radius: object
    num: int
    e: int
    achieved: object
    q: tuple
    residual: object
    prec: int
    corner: tuple
    line_height: Fraction

    @property
    def sub_angle(self) -> Fraction:
        return Fraction(self.num, 1 << self.e)

    @cached_property
    def center_c(self):
        """The center as one mpc, built once at the solution's precision:
        use it under a working precision of at least `prec`, or through
        complex()."""
        with workprec(self.prec):
            return mpmath.mpc(self.center[0], self.center[1])

    def turn(self, j: int):
        """j angle steps, j*sub_angle, as an mpf at the current working
        precision: only the integer j*num is rounded, so this is bit for bit
        frac_to_mpf(j*sub_angle)."""
        return mpmath.ldexp(mpmath.mpf(j * self.num), -self.e)

    def expm1_turn(self, j: int):
        """exp(-i*t) - 1 for t = turn(j), without cancellation: -2*s*s -
        2i*s*c from one (c, s) = cos_sin(t/2), each within one ulp; -2*s is
        exact, so each component is one rounded product, within 2.5 ulps (5*
        2**-prec relative).  A point a moved j steps along its orbit about
        the centre c moves by (a - c)*expm1_turn(j), not at the scale of |c|."""
        c, s = mpmath.cos_sin(self.turn(j) / 2)
        return mpmath.mpc(-2 * s * s, -2 * s * c)

    def turn_float(self, j: int) -> float:
        """j*sub_angle rounded once to float64 (int true division rounds
        correctly), bit for bit float(j*sub_angle)."""
        return (j * self.num) / (1 << self.e)

    def check(self) -> VerificationReport:
        """Verify the solution invariants with tracked error margins."""
        rep = VerificationReport(title=f"arc solution, level {self.level}")
        with workprec(self.prec):
            ax, ay = self.center
            err = arith_error(self.prec, scale=max(1, abs(self.radius)))
            d_origin = mpmath.hypot(ax, ay)
            cx, cy = frac_to_mpf(self.corner[0]), frac_to_mpf(self.corner[1])
            d_corner = mpmath.hypot(ax - cx, ay - cy)
            rep.add_equality(
                "center equidistant from both arc endpoints",
                d_origin - d_corner, err, detail="bisector membership")
            rep.add_inequality("center strictly below the x-axis", -ay, err)
            qx, qy = self.q
            rep.add_equality("q lies on the circle",
                             mpmath.hypot(qx - ax, qy - ay) - self.radius, err)
            rep.add("q on the height line",
                    qy == frac_to_mpf(self.line_height),
                    detail="exact by construction")
            rep.add_inequality("q in the first quadrant", qx, err)
            rep.add_equality("achieved angle equals the target", self.residual,
                             arith_error(self.prec, self.turn(1)))
        return rep

    def to_json(self) -> dict:
        dps = 40
        with workprec(self.prec):
            return {
                "level": self.level,
                "precision_bits": self.prec,
                "decimal_digits": dps,
                "center": [_decimal(v, dps) for v in self.center],
                "radius": _decimal(self.radius, dps),
                "sub_angle": str(self.sub_angle),
                "achieved": _decimal(self.achieved, dps),
                "q": [_decimal(v, dps) for v in self.q],
                "residual": _decimal(self.residual, dps),
            }


def _decimal(x, dps: int) -> str:
    """`mpmath.nstr(x, dps)` wherever that call succeeds.  Past Python's
    limit on the decimal digits of an int (a value far below 1 held to
    thousands of bits, as deep arcs' q is) x is first rounded to the
    precision dps digits need, then formatted."""
    try:
        return mpmath.nstr(x, dps)
    except ValueError:
        with workprec(dps_to_prec(dps)):
            return mpmath.nstr(+x, dps)


def _angle_at_center(ax, ay, h):
    """Sub-arc angle from the origin to the line y = h for center (ax, ay).

    Uses the cancellation-free chord form: the intersection abscissa is
    x_q = ax * u / (1 + sqrt(1 - u)) with u = h*(h - 2*ay)/ax^2, and the
    angle is 2*asin(chord / (2r)).  Returns (angle, (x_q, h), radius).
    """
    r = mpmath.hypot(ax, ay)
    u = h * (h - 2 * ay) / (ax * ax)
    if u >= 1:
        raise BracketError("circle does not reach the height line")
    xq = ax * u / (1 + mpmath.sqrt(1 - u))
    chord = mpmath.hypot(xq, h)
    return 2 * mpmath.asin(chord / (2 * r)), (xq, h), r


def solve_arc(
    delta_n,
    Delta_n,
    Delta_next,
    theta_next,
    prec: int,
    level: int = 0,
) -> ArcSolution:
    """Closed-form circle center achieving the target sub-arc angle.

    Feasibility (exact, rational): 0 < theta_next < Delta_next*delta_n/Delta_n^2,
    a lower bound for the angle attained with the center on the x-axis; the
    target must be dyadic, as every table angle is.
    With k = cot(theta/2) and h = Delta_next, the chord from the origin to
    q = (x_q, h) subtends theta at the center (x_q/2 + k*h/2, h/2 - k*x_q/2),
    and that center lies on the bisector of the origin and (delta, Delta)
    exactly when x_q = (delta^2 + Delta^2 - h*Delta - k*h*delta)/(delta - k*Delta);
    the denominator is below -0.8*Delta.  The achieved angle and q are then
    recomputed from the center.
    """
    d = Fraction(delta_n)
    D = Fraction(Delta_n)
    h = Fraction(Delta_next)
    target = Fraction(theta_next)
    if not 0 < d <= D <= 1:
        raise FeasibilityError(f"need 0 < delta <= Delta <= 1, got {d}, {D}")
    if not 0 < h < D:
        raise FeasibilityError(f"need 0 < Delta_next < Delta_n, got {h}, {D}")
    if not 0 < target < h * d / (D * D):
        raise FeasibilityError(
            f"target angle {target} must lie below {h * d / (D * D)}, a lower "
            "bound for the angle with the center on the x-axis")
    if not is_dyadic(target):
        raise FeasibilityError(f"target angle {target} is not dyadic")

    with workprec(prec):
        hm, tm = frac_to_mpf(h), frac_to_mpf(target)
        k = mpmath.cot(tm / 2)
        xq = ((frac_to_mpf(d * d + D * D - h * D) - k * hm * frac_to_mpf(d))
              / (frac_to_mpf(d) - k * frac_to_mpf(D)))
        ax, ay = (xq + k * hm) / 2, (hm - k * xq) / 2
        achieved, q, r = _angle_at_center(ax, ay, hm)
        return ArcSolution(
            level=level,
            center=(ax, ay),
            radius=r,
            num=target.numerator,
            e=target.denominator.bit_length() - 1,
            achieved=achieved,
            q=q,
            residual=abs(achieved - tm),
            prec=prec,
            corner=(d, D),
            line_height=h,
        )


def solve_table_arcs(table, prec: int | None = None) -> tuple[ArcSolution, ...]:
    """Solve the arc for every level of a sequence table (levels 1..depth-1)."""
    prec = prec or default_precision(table)
    return tuple(
        solve_arc(table.delta_(n), table.Delta_(n), table.Delta_(n + 1),
                  table.theta_(n + 1), prec=prec, level=n)
        for n in range(1, table.depth))

