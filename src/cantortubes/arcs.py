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

import mpmath
import numpy as np

from .errors import BracketError, FeasibilityError
from .numerics import arith_error, default_precision, frac_to_mpf, workprec
from .reports import VerificationReport


@dataclass(frozen=True)
class ArcSolution:
    """Solved circle for one level: center below the x-axis, radius,
    the line intersection q, and the achieved sub-arc angle."""

    level: int
    center: tuple
    radius: object
    sub_angle: Fraction
    achieved: object
    q: tuple
    residual: object
    prec: int
    corner: tuple
    line_height: Fraction

    @property
    def center_c(self):
        return mpmath.mpc(self.center[0], self.center[1])

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
                             arith_error(self.prec, frac_to_mpf(self.sub_angle)))
        return rep

    def to_json(self) -> dict:
        dps = 40
        with workprec(self.prec):
            return {
                "level": self.level,
                "precision_bits": self.prec,
                "decimal_digits": dps,
                "center": [mpmath.nstr(v, dps) for v in self.center],
                "radius": mpmath.nstr(self.radius, dps),
                "sub_angle": str(self.sub_angle),
                "achieved": mpmath.nstr(self.achieved, dps),
                "q": [mpmath.nstr(v, dps) for v in self.q],
                "residual": mpmath.nstr(self.residual, dps),
            }


def perp_bisector_axis_crossing(delta_n, Delta_n) -> tuple[Fraction, Fraction]:
    """Where the perpendicular bisector of (0,0)-(delta, Delta) meets the
    x-axis: ((delta^2 + Delta^2) / (2 delta), 0), exactly."""
    d, D = Fraction(delta_n), Fraction(Delta_n)
    return ((d * d + D * D) / (2 * d), Fraction(0))


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


def angle_profile(delta_n, Delta_n, Delta_next, ts: np.ndarray) -> np.ndarray:
    """Float64 sweep of the achieved angle over center offsets `ts`.

    Independent, vectorized view of the same geometry: the angle shrinks
    monotonically to zero as the center moves outward, so the target angle
    is met by exactly one center; `ts` are offsets along the bisector
    measured from its x-axis crossing.
    """
    d = float(delta_n)
    D = float(Delta_n)
    h = float(Delta_next)
    L = np.hypot(d, D)
    mx, my = d / 2.0, D / 2.0
    ux, uy = D / L, -d / L
    t_axis = D * L / (2.0 * d)
    ax = mx + (t_axis + ts) * ux
    ay = my + (t_axis + ts) * uy
    r = np.hypot(ax, ay)
    u = h * (h - 2.0 * ay) / (ax * ax)
    xq = ax * u / (1.0 + np.sqrt(1.0 - u))
    chord = np.hypot(xq, h)
    return 2.0 * np.arcsin(chord / (2.0 * r))


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
    a lower bound for the angle attained with the center on the x-axis.
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
            sub_angle=target,
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

