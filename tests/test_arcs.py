from fractions import Fraction

import mpmath
import numpy as np
import pytest

from _geometry import angle_profile, perp_bisector_axis_crossing
from cantortubes.arcs import (
    ArcSolution,
    _angle_at_center,
    solve_arc,
    solve_table_arcs,
)
from cantortubes.errors import FeasibilityError
from cantortubes.hierarchy import child_anchor
from cantortubes.numerics import default_precision, frac_to_mpf, workprec
from cantortubes.sequences import build_schedule, derive_sequences

#: The arc's equidistant points are the orbit of the origin.
ORIGIN = mpmath.mpc(0, 0)


def brute_force_scan(delta_n, Delta_n, Delta_next, target, t_end, n=1_000_000):
    """Independent oracle: dense scan of the angle profile; returns the
    number of sign changes of (angle - target) and the bracketing offsets."""
    ts = np.linspace(0.0, t_end, n)
    angles = angle_profile(delta_n, Delta_n, Delta_next, ts)
    sign = np.sign(angles - float(target))
    flips = np.nonzero(np.diff(sign) != 0)[0]
    return len(flips), ts[flips], angles


def test_solve_level2_strict_against_scan_oracle(strict_table):
    # Level-2 solve of the strict default table, checked against a
    # 10^6-point brute-force scan that confirms a unique bracketing interval.
    d2, D2 = strict_table.delta_(2), strict_table.Delta_(2)
    D3, t3 = strict_table.Delta_(3), strict_table.theta_(3)
    flips, where, angles = brute_force_scan(d2, D2, D3, t3, t_end=40000.0)
    assert flips == 1, "scan must find exactly one crossing of the target"
    assert np.all(np.diff(angles) < 0)

    sol = solve_arc(d2, D2, D3, t3, prec=200, level=2)
    assert float(sol.residual) <= 1e-14
    # The solved center must sit inside the scan's bracketing step.
    axis_x = float(perp_bisector_axis_crossing(d2, D2)[0])
    L = float(np.hypot(float(d2), float(D2)))
    ux = float(D2) / L
    t_solved = (float(sol.center[0]) - axis_x) / ux  # offset past the axis crossing
    assert where[0] <= t_solved <= where[0] + 40000.0 / 999_999


def test_solution_invariants_level1(strict_table):
    sol = solve_arc(1, 1, strict_table.Delta_(2), strict_table.theta_(2),
                    prec=160, level=1)
    report = sol.check()
    assert report.ok, [e.name for e in report.entries if e.status != "pass"]
    assert float(sol.center[1]) < 0
    # Radius consistency: ||center|| is the radius.
    with workprec(sol.prec):
        assert abs(float(mpmath.hypot(*sol.center) - sol.radius)) < 1e-30


def test_arc_point_endpoints(strict_table, strict_arcs):
    sol = strict_arcs[0]
    with workprec(sol.prec):
        p1 = child_anchor(ORIGIN, sol, 1)
        assert p1 == 0
        p2 = child_anchor(ORIGIN, sol, 2)
        q = mpmath.mpc(*sol.q)
        # p2 rotates by the exact target angle; q sits at the achieved one,
        # so they agree up to residual * radius.
        tol = float(sol.residual) * float(sol.radius) * 4 + 1e-30
        assert abs(p2 - q) < tol


def test_arc_points_equidistant(strict_arcs):
    sol = strict_arcs[0]
    with workprec(sol.prec):
        step = abs((1 - mpmath.expj(-frac_to_mpf(sol.sub_angle))) * sol.center_c)
        pts = [child_anchor(ORIGIN, sol, k) for k in range(1, 20)]
        for a, b in zip(pts, pts[1:]):
            assert abs(abs(b - a) - step) < 1e-30


def test_arc_points_monotone_in_unit_box(strict_arcs):
    sol = strict_arcs[0]
    with workprec(sol.prec):
        pts = [child_anchor(ORIGIN, sol, k) for k in range(1, 18)]
        inside = [p for p in pts if p.real <= 1 and p.imag <= 1]
        for a, b in zip(inside, inside[1:]):
            assert b.real > a.real and b.imag > a.imag


def test_arc_point_y_increments_bounded(strict_table, strict_arcs):
    # Concavity: successive y-increments never exceed the first one, which
    # equals the next height scale exactly.
    sol = strict_arcs[0]
    D2 = float(strict_table.Delta_(2))
    with workprec(sol.prec):
        pts = [child_anchor(ORIGIN, sol, k) for k in range(1, 18)]
        incs = [float(b.imag - a.imag) for a, b in zip(pts, pts[1:])]
        assert abs(incs[0] - D2) < 1e-25
        for inc in incs:
            assert 0 < inc <= D2 + 1e-25


def test_infeasible_angle_rejected(strict_table):
    D2 = strict_table.Delta_(2)
    bound = D2 * 1 / 1  # delta = Delta = 1: bound is Delta_2 itself
    with pytest.raises(FeasibilityError):
        solve_arc(1, 1, D2, bound * 2, prec=128)
    with pytest.raises(FeasibilityError):
        solve_arc(1, Fraction(1, 2), D2, strict_table.theta_(2), prec=128)
    # The bound itself is refused: the feasibility check is strict.
    d, D, h = Fraction(1, 2), Fraction(3, 4), Fraction(1, 8)
    with pytest.raises(FeasibilityError):
        solve_arc(d, D, h, h * d / (D * D), prec=128)
    # A feasible angle that is not dyadic has no exact integer step.
    with pytest.raises(FeasibilityError, match="not dyadic"):
        solve_arc(d, D, h, Fraction(1, 3 * 2**10), prec=128)


def test_turn_is_the_fraction_step_bit_for_bit():
    # The integer step against the Fraction product it replaces, at the
    # solution's precision and the doubled retry precision, for step counts
    # up to the deep ones (> 2**64) of lazily reached levels and past the
    # solution's precision (3**400 has 634 bits), where j*num is rounded.
    for table in (derive_sequences(build_schedule(1, 4), Fraction(1, 16)),
                  derive_sequences(build_schedule(1, 4), Fraction(1, 16),
                                   profile="demo")):
        for sol in solve_table_arcs(table):
            assert Fraction(sol.num, 2**sol.e) == table.theta_(sol.level + 1)
            for j in (0, 1, 2, 3, 2**40 + 1, 3**45, 2**70 - 1, 5**80, 3**400):
                angle = j * sol.sub_angle
                assert sol.turn_float(j) == float(angle), (sol.level, j)
                for prec in (sol.prec, 2 * sol.prec):
                    with workprec(prec):
                        assert sol.turn(j) == frac_to_mpf(angle), (prec, j)


def test_arc_point_range_errors(strict_arcs):
    sol = strict_arcs[0]
    with pytest.raises(ValueError):
        child_anchor(ORIGIN, sol, 0)


def test_solution_json_roundtrippable(strict_arcs):
    blob = strict_arcs[0].to_json()
    assert blob["level"] == 1
    assert blob["decimal_digits"] == 40
    assert float(blob["residual"]) < 1e-14


def bisection_bracket(delta_n, Delta_n, Delta_next, theta_next, prec):
    """Reference oracle, independent of the closed form: bisect the center
    offset t along the bisector (measured from the midpoint of the origin
    and the corner) until the angles at the bracket ends differ by at most
    2**-60 times the target.  The angle falls as t grows, so the
    exact center lies in the returned bracket.  Returns (lo, hi, midpoint,
    unit direction) at `prec` bits."""
    with workprec(prec):
        d, D = frac_to_mpf(delta_n), frac_to_mpf(Delta_n)
        h, target = frac_to_mpf(Delta_next), frac_to_mpf(theta_next)
        L = mpmath.hypot(d, D)
        mid, u = (d / 2, D / 2), (D / L, -d / L)

        def angle(t):
            return _angle_at_center(mid[0] + t * u[0], mid[1] + t * u[1], h)[0]

        lo = D * L / (2 * d)  # the x-axis crossing
        step = L
        while angle(lo + step) >= target:
            step *= 2
        hi = lo + step
        tol = target * mpmath.ldexp(1, -60)
        while angle(lo) - angle(hi) > tol:
            t = (lo + hi) / 2
            if angle(t) >= target:
                lo = t
            else:
                hi = t
        return lo, hi, mid, u


ORACLE_TABLES = {
    "strict-3": (1, Fraction(1, 16), 3, "strict"),
    "strict-4": (1, Fraction(1, 16), 4, "strict"),
    "strict-5": (1, Fraction(1, 16), 5, "strict"),
    "demo-4": (1, Fraction(1, 16), 4, "demo"),
    "demo-5": (1, Fraction(1, 16), 5, "demo"),
    "s-half-c-2^-5": (Fraction(1, 2), Fraction(1, 32), 3, "strict"),
    "s-zero": (0, Fraction(1, 16), 3, "strict"),
}


@pytest.mark.parametrize("name", list(ORACLE_TABLES))
def test_closed_form_center_inside_bisection_bracket(name):
    s, c, depth, profile = ORACLE_TABLES[name]
    table = derive_sequences(build_schedule(s, depth), c, profile=profile)
    prec = default_precision(table)
    for sol in solve_table_arcs(table, prec):
        n = sol.level
        lo, hi, mid, u = bisection_bracket(
            table.delta_(n), table.Delta_(n), table.Delta_(n + 1),
            table.theta_(n + 1), prec)
        with workprec(prec):
            ax, ay = sol.center
            # The closed-form center's offset along the bisector, and its
            # distance off the bisector.
            t = (ax - mid[0]) * u[0] + (ay - mid[1]) * u[1]
            off = (ax - mid[0]) * u[1] - (ay - mid[1]) * u[0]
            slack = sol.radius * mpmath.ldexp(1, 16 - prec)
            assert lo - slack <= t <= hi + slack, (name, n)
            assert abs(off) <= slack, (name, n)
            # The bracket holds the center to the oracle's own tolerance.
            assert (hi - lo) / sol.radius < mpmath.ldexp(1, -58), (name, n)
        assert sol.check().ok, (name, n)


def test_demo_depth6_arcs_solve_and_check():
    # The deepest demo table: a bracket search by doubling gave up here.
    table = derive_sequences(build_schedule(1, 6), Fraction(1, 16),
                             profile="demo")
    sols = solve_table_arcs(table)
    assert [sol.level for sol in sols] == [1, 2, 3, 4, 5]
    for sol in sols:
        report = sol.check()
        assert report.ok, (sol.level, [e.to_json() for e in report.entries
                                       if e.status != "pass"])


@pytest.mark.parametrize("profile, depth", [("strict", 5), ("demo", 6)])
def test_deep_arc_checks_write_nonzero_bounds(profile, depth):
    # theta_5 and 2**-3188 underflow a float; every tolerance check must
    # still write a nonzero bound and the angle check a nonzero margin (the
    # exact height-line check writes no bound).
    table = derive_sequences(build_schedule(1, depth), Fraction(1, 16),
                             profile=profile)
    for sol in solve_table_arcs(table):
        checks = {c["name"]: c for c in sol.check().to_json()["checks"]}
        assert all(c["status"] == "pass" for c in checks.values())
        assert checks.pop("q on the height line")["bound"] is None
        assert all(c["bound"] not in (0, None) for c in checks.values())
        angle = checks["achieved angle equals the target"]
        assert (angle["margin"] != 0) == (sol.residual != 0), sol.level
