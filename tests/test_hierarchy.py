import functools
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantortubes import hierarchy
from cantortubes.arcs import solve_table_arcs
from cantortubes.dyadic import ceil_frac, floor_log2
from cantortubes.errors import ConstructionError, PopulationCapError
from cantortubes.hierarchy import (
    Construction,
    _certified_transition,
    _extreme_pairs,
    _increments,
    _sampled_pairs,
    _worst_deviation,
    child_anchor,
    count_children,
    count_search_bound,
    verify_counts,
    verify_level_invariants,
    verify_spacing,
)
from cantortubes.numerics import (
    arith_error,
    default_precision,
    frac_to_mpf,
    workprec,
)
from cantortubes.reports import (
    EXPECTED_FAILURES,
    FAIL,
    MARGIN_FACTOR,
    PASS,
    classify,
    to_json_number,
)
from cantortubes.rotations import RotationFamily
from cantortubes.sequences import SequenceTable, build_schedule, derive_sequences


@pytest.fixture(scope="module")
def cons(strict_table, strict_arcs):
    return Construction(strict_table, sols=strict_arcs)


def arc_point(sol, k: int, prec: int | None = None):
    """The former closed form of the k-th equidistant point of a solved
    circle, 1-based: the origin rotated clockwise by (k-1) sub-arc angles
    about the center, at `prec` bits (the solution's by default).  At 4x
    the working precision, the oracle for `child_anchor` from the origin."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    phi = (k - 1) * sol.sub_angle
    if float(phi) > 6.283185307179587:
        raise ValueError(f"k = {k} winds beyond a full turn")
    with workprec(prec or sol.prec):
        alpha = mpmath.mpc(*sol.center)
        return alpha * (1 - mpmath.expj(-frac_to_mpf(phi)))


def local_step_bound(parent_anchor, sol, a_k):
    """Bound on the distance of a_k = child_anchor(parent_anchor, sol, k)
    from the exact orbit point of the same parent anchor, from the local
    frame's arithmetic (`child_anchor`): 7*2**-prec*|d| for the move
    d = a_k - a and 2**-prec*|a_k| for the sum, doubled for second-order
    terms, plus the world-form oracle's own rounding at 4x the precision,
    a few 2**(-4*prec) of |c|."""
    with workprec(4 * sol.prec):
        d, c = abs(a_k - parent_anchor), abs(mpmath.mpc(*sol.center))
        return mpmath.ldexp(14 * d + 2 * abs(a_k), -sol.prec) \
            + mpmath.ldexp(16 * (c + 1), -4 * sol.prec)


def assert_child_anchor_within_bound(parent_anchor, sol, k):
    """child_anchor(parent_anchor, sol, k) against the world-form map at 4x
    the working precision (`fraction_child_anchor`), from the same parent
    anchor, centre and exact angle."""
    a_k = child_anchor(parent_anchor, sol, k)
    want = fraction_child_anchor(parent_anchor, sol, k, prec=4 * sol.prec)
    with workprec(4 * sol.prec):
        assert abs(a_k - want) <= local_step_bound(parent_anchor, sol, a_k), \
            (sol.level, k, abs(a_k - want))
    return a_k


def test_child_anchor_k1_is_parent(cons):
    with workprec(cons.prec):
        p = mpmath.mpc("0.3", "0.4")
        assert child_anchor(p, cons.sol(1), 1) is p


def test_child_anchor_of_origin_is_arc_point(request):
    # At every level, against the closed form at 4x the precision: k = 1, 2
    # and the first parent's count N and N + 1 (the anchor that leaves the
    # parent).
    for name in ("cons", "strict4_cons", "demo4_cons"):
        cons = request.getfixturevalue(name)
        for n in range(1, cons.table.depth):
            sol = cons.sol(n)
            N = cons.count_children_by_path((1,) * (n - 1))
            for k in (1, 2, N, N + 1):
                a = child_anchor(mpmath.mpc(0, 0), sol, k)
                with workprec(4 * cons.prec):
                    miss = abs(a - arc_point(sol, k, 4 * cons.prec))
                    assert miss <= local_step_bound(0, sol, a), (name, n, k)


@pytest.mark.parametrize("name", ["cons", "strict4_cons", "demo4_cons"])
def test_child_anchor_against_the_world_form_at_4x(request, name):
    # Every level's orbit map, from built and sampled lazy parents, for the
    # first, a second, a random, the last and the first leaving child,
    # against the world form at 4x the precision.  The world form at the
    # working precision rounds at |c|*2**-prec (4e-35 off at strict depth 3,
    # level 2), far outside the local frame's bound (a few 2**-127).
    cons = request.getfixturevalue(name)
    rng = random.Random(26)
    for n in range(1, cons.table.depth):
        sol = cons.sol(n)
        parents = (cons.level(n).rects if n <= cons.materializable_depth()
                   else [cons.rect_by_path(p) for p in
                         cons.sample_parent_paths(n, 10, rng)])
        for parent in parents[:20]:
            m = cons.count_children_of(parent)
            for k in (1, 2, rng.randint(1, m), m, m + 1):
                assert_child_anchor_within_bound(parent.anchor, sol, k)


def test_rotation_identity_exact_algebra(cons):
    # anchor(k+l) == rot(-l*theta) * anchor(k) + arc_point(l+1), any parent.
    rng = random.Random(7)
    sol = cons.sol(2)
    with workprec(cons.prec):
        parents = cons.level(2).rects
        for _ in range(50):
            p = parents[rng.randrange(len(parents))].anchor
            k = rng.randint(1, 1 << 29)
            l = rng.randint(1, 1 << 29)
            lhs = child_anchor(p, sol, k + l)
            rot = mpmath.expj(-frac_to_mpf(l * sol.sub_angle))
            rhs = rot * child_anchor(p, sol, k) \
                + arc_point(sol, l + 1)
            assert abs(lhs - rhs) < 1e-12


def test_child_rect_rejects_degenerate(cons):
    # The step to the next sibling must point strictly up and right: it
    # points straight down from a parent anchored one unit right of the arc
    # centre, and down-left half a turn along the orbit from the origin.
    sol, root = cons.sol(1), cons.level(1).rects[0]
    with workprec(cons.prec):
        right_of_c = hierarchy.RectNode(
            level=1, path=(), anchor=sol.center_c + 1, width=Fraction(1),
            height=mpmath.mpf(1))
    half_turn = 1 + int(3.14159 / float(sol.sub_angle))
    for parent, k in ((right_of_c, 1), (root, half_turn)):
        with pytest.raises(ConstructionError, match="spacing assumption"):
            cons.child_rect(parent, k)


def test_first_child_rect_height_is_height_scale(cons, strict_table):
    # The first level-2 rectangle reaches exactly up to the line the arc's
    # q-point sits on, i.e. its height is the level-2 height scale.
    r = cons.level(2).rects[0]
    assert r.width == strict_table.delta_(2)
    with workprec(cons.prec):
        diff = abs(float(r.height - frac_to_mpf(strict_table.Delta_(2))))
    sol = cons.sol(1)
    assert diff <= float(sol.residual) * float(sol.radius) * 4 + 1e-30


def orbit_factors(sol, hi) -> tuple:
    """The count predicate's step and bound factors, expm1_turn(1) and
    expm1_turn(hi)."""
    with workprec(sol.prec):
        return sol.expm1_turn(1), sol.expm1_turn(hi)


def test_count_children_matches_enumeration_oracle(cons, strict_table):
    # Independent oracle: direct enumeration over k = 1..32 checking the
    # containment criterion one anchor at a time.
    parent = cons.level(1).rects[0]
    sol = cons.sol(1)
    with workprec(cons.prec):
        kept = 0
        for k in range(1, 33):
            a = child_anchor(parent.anchor, sol, k + 1)
            if parent.contain_slack(a - parent.anchor) >= 0:
                kept = k
            else:
                break
    hi = count_search_bound(strict_table, 1)
    assert count_children(parent, sol, hi, cons.anchor_error(2),
                          *orbit_factors(sol, hi)) == kept
    assert cons.N(1) == kept


def test_contain_slack_converts_the_width_at_the_working_precision():
    # The width is converted once per (width, precision): a width that is
    # not a binary fraction shows a conversion made at another precision.
    # The slack reads the displacement d from the anchor, never the anchor.
    node = hierarchy.RectNode(level=2, path=(1,), anchor=mpmath.mpc(5, 7),
                              width=Fraction(1, 3), height=mpmath.mpf(1))
    for prec in (53, 200, 53, 400):
        with workprec(prec):
            d = mpmath.mpc(mpmath.mpf(3) / 10, mpmath.mpf(1) / 2)
            assert node.contain_slack(d) == frac_to_mpf(Fraction(1, 3)) - d.real


@pytest.mark.parametrize("profile, depth", [
    *(("strict", d) for d in (2, 3, 4, 5)), *(("demo", d) for d in (3, 4, 5, 6))])
def test_count_search_bound_from_the_sandwich(profile, depth):
    # The former inline bound: one past the ceiling of the sandwich's top.
    table = derive_sequences(build_schedule(1, depth), Fraction(1, 16),
                             profile=profile)
    for n in range(1, depth):
        ratio = table.Delta_(n) / table.Delta_(n + 1)
        hi = ratio * (1 + table.c2 * table.delta_(n - 1))
        assert count_search_bound(table, n) == ceil_frac(hi) + 1


def reference_count(parent, sol, hi, prec):
    """The plain binary search over [1, hi] on the containment criterion,
    with its own doubled-precision retry, through the test-local anchor
    formula `fraction_child_anchor`: the oracle for the closed-form start
    and the gated predicate of `count_children`."""
    def pred(k):
        def slack(p):
            with workprec(p):
                a = fraction_child_anchor(parent.anchor, sol, k + 1, prec=p)
                return parent.contain_slack(a - parent.anchor)
        s = slack(prec)
        if abs(s) < mpmath.mpf(2) ** (-(prec // 2)):
            s = slack(prec * 2)
        return s >= 0

    if not pred(1):
        return 0
    assert not pred(hi)
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def assert_counts_match_reference(cons, parents, monkeypatch):
    # Also counts the predicate's anchor evaluations: the closed-form start
    # keeps a search to a few of them.
    evals = []

    def counted(parent_anchor, sol, k):
        evals.append(k)
        return child_anchor(parent_anchor, sol, k)

    for parent in parents:
        sol = cons.sol(parent.level)
        hi = count_search_bound(cons.table, parent.level)
        evals.clear()
        with monkeypatch.context() as m:
            m.setattr(hierarchy, "child_anchor", counted)
            got = count_children(parent, sol, hi,
                                 cons.anchor_error(parent.level + 1),
                                 *orbit_factors(sol, hi))
        assert len(evals) <= 4, parent.path
        assert got == reference_count(parent, sol, hi, cons.prec), parent.path


def test_count_children_matches_reference_levels_1_and_2(cons, monkeypatch):
    parents = cons.level(1).rects + cons.level(2).rects
    assert len(parents) == 1 + 16
    assert_counts_match_reference(cons, parents, monkeypatch)


@pytest.fixture(scope="module")
def strict4_cons():
    return Construction(derive_sequences(build_schedule(1, 4), Fraction(1, 16)))


@pytest.fixture(scope="module")
def demo4_cons(demo_table, demo_arcs):
    return Construction(demo_table, sols=demo_arcs)


@pytest.fixture(scope="module")
def shallow_cons():
    """A table whose level 3 (3,856 rectangles, 16 parents) materializes,
    with arc centres far from the anchors: |c| = 4.1e3 at level 2."""
    c = Fraction(1, 16)
    return Construction(SequenceTable(
        c=c, depth=3, delta=(Fraction(1), Fraction(1, 2**8), Fraction(1, 2**40)),
        Delta=(Fraction(1), Fraction(1, 2**4), Fraction(1, 2**12)),
        theta=(c, c / 2**4, c / 2**20), c1=Fraction(2), C_tube=Fraction(16),
        profile="strict", schedule=build_schedule(1, 3)))


@pytest.mark.parametrize("name", ["strict4_cons", "demo4_cons"])
def test_count_children_matches_reference_sampled_level3(request, name,
                                                        monkeypatch):
    # Level-3 parents are reachable only lazily (level 3 exceeds the cap).
    cons = request.getfixturevalue(name)
    paths = cons.sample_parent_paths(3, 40, random.Random(9))
    assert_counts_match_reference(
        cons, [cons.rect_by_path(p) for p in paths], monkeypatch)


def walk_from_origin(cons, path):
    """The reference walk: every child-anchor step from the origin."""
    with workprec(cons.prec):
        p = mpmath.mpc(0, 0)
        for i, k in enumerate(path):
            p = child_anchor(p, cons.sol(i + 1), k)
        return p


@pytest.mark.parametrize("name", ["cons", "strict4_cons", "demo4_cons"])
def test_anchor_by_path_from_materialized_prefix(request, name):
    # Walks that start at the materialized level 2 give the origin walk's
    # values exactly; indices beyond a level's count fall back to the walk.
    # An index that winds the orbit past the top of its circle addresses no
    # rectangle: its step to the next sibling points down, and it is
    # refused.
    cons = request.getfixturevalue(name)
    cons.level(2)
    built = set(cons._levels)
    N1, N2 = cons.N(1), cons.N(2)
    paths = cons.sample_parent_paths(3, 30, random.Random(17))
    paths += [(), (1,), (N1,), (N1, 1), (N1 + 1, 5), (3, N2 + 1)]
    for p in paths:
        assert cons.anchor_by_path(p) == walk_from_origin(cons, p), p
    with pytest.raises(ConstructionError, match="spacing assumption"):
        cons.anchor_by_path((3, 10**30))
    assert set(cons._levels) == built


def test_anchor_by_path_never_materializes(strict_table, strict_arcs):
    fresh = Construction(strict_table, sols=strict_arcs)
    assert fresh.anchor_by_path((5, 7)) == walk_from_origin(fresh, (5, 7))
    assert set(fresh._levels) == {1}


@pytest.mark.parametrize("name", ["strict4_cons", "demo4_cons"])
@pytest.mark.parametrize("level", [3, 4])
def test_anchors_float64_within_derived_bound(request, name, level):
    cons = request.getfixturevalue(name)
    paths = cons.sample_parent_paths(level, 60, random.Random(level))
    if name == "strict4_cons" and level == 4:
        assert max(p[-1] for p in paths) > 2**63  # beyond int64
    got, e = cons.anchors_float64(paths)
    with workprec(cons.prec):
        ref = np.array([[float(a.real), float(a.imag)]
                        for a in map(cons.anchor_by_path, paths)])
    assert np.hypot(*(got - ref).T).max() <= e
    # Tight enough to screen with: about ten times the observed error.
    assert e < 1e-14


def fraction_child_anchor(parent_anchor, sol, k: int, prec: int | None = None):
    """The child-anchor map with its angle as the Fraction product
    (k - 1)*sub_angle, at `prec` bits (the solution's by default): the
    oracle for `child_anchor`'s integer step, and the anchor formula of the
    references that run above the construction's precision."""
    if k == 1:
        return parent_anchor
    with workprec(prec or sol.prec):
        rot = mpmath.expj(-frac_to_mpf((k - 1) * sol.sub_angle))
        return mpmath.mpc(*sol.center) * (1 - rot) + rot * parent_anchor


def fraction_anchors_float64(cons, paths) -> tuple:
    """`Construction.anchors_float64` with its angles rounded from the
    Fraction product, t = float((k - 1)*sub_angle): the oracle for its
    integer float step, rows and bound."""
    u = 2.0 ** -53
    a = np.zeros(len(paths), dtype=complex)
    E = np.zeros(len(paths))
    mp_err = 0.0
    for i in range(len(paths[0])):
        sol = cons.sols[i]
        t = np.array([float((p[i] - 1) * sol.sub_angle) for p in paths])
        s = np.sin(0.5 * t)
        m = -2 * s * s - 1j * np.sin(t)
        c = complex(mpmath.mpc(*sol.center))
        c_abs = abs(c)
        mp_err += float(arith_error(
            cons.prec, scale=2 * c_abs + np.abs(a).max(), ops=8))
        d = c - a
        a = a - d * m
        mu = u * t * (3 + 3 * t)
        E = (E * (1 + mu) + np.abs(m) * u * (c_abs + 4 * np.abs(d))
             + np.abs(d) * mu + u * np.abs(a))
    e = np.max(E + u * np.abs(a), initial=0.0) + mp_err
    return np.stack([a.real, a.imag], axis=1), float(e) * (1 + 2.0 ** -20)


def test_integer_step_matches_fraction_step_bit_for_bit(strict4_cons):
    # Strict depth 4, level-4 sampled paths: the last indices pass 2**64.
    # Each mpmath step, on its integer angle, lies within the local frame's
    # bound of the world form on the Fraction angle at 4x the precision, and
    # the lazy anchor is that walk; the float64 anchors and bound equal the
    # Fraction-step oracle's bit for bit.
    cons = strict4_cons
    paths = cons.sample_parent_paths(4, 20, random.Random(4))
    assert max(p[-1] for p in paths) > 2**64
    for path in paths:
        a = mpmath.mpc(0, 0)
        for j, k in enumerate(path):
            a = assert_child_anchor_within_bound(a, cons.sol(j + 1), k)
        assert cons.anchor_by_path(path) == a
    got, e = cons.anchors_float64(paths)
    ref, e_ref = fraction_anchors_float64(cons, paths)
    assert np.array_equal(got, ref) and e == e_ref


def test_anchors_float64_rejects_bad_paths(cons):
    with pytest.raises(ValueError):
        cons.anchors_float64([(1, 0)])
    with pytest.raises(ValueError):
        cons.anchors_float64([(1, 2), (3,)])
    with pytest.raises(ValueError):
        cons.anchors_float64([(1, 1, 1)])
    pts, e = cons.anchors_float64([])
    assert pts.shape == (0, 2) and e == 0


@pytest.mark.parametrize("count, hint, hi, max_calls", [
    (37, 37, 100, 2),    # exact
    (37, 36, 100, 3),    # one low
    (37, 38, 100, 2),    # one high
    (37, 0, 100, 13),    # far low
    (37, 99, 100, 13),   # far high
    (37, 500, 100, 13),  # clamped into [0, hi - 1]
    (99, 99, 100, 1),    # the bracket's upper end is the known-false bound
    (0, 0, 100, 1),      # no child fits
    (0, 99, 100, 13),
    (0, 0, 1, 0),
])
def test_certified_transition(count, hint, hi, max_calls):
    calls = []

    def pred(k):
        calls.append(k)
        return k <= count

    assert _certified_transition(pred, hint, hi) == count
    # pred(0) and pred(hi) are given, never evaluated; a close hint
    # certifies at once, a far one costs a logarithmic search.
    assert all(0 < k < hi for k in calls)
    assert len(calls) <= max_calls


def test_count_children_rejects_undersized_bound(cons):
    # hi must be a strict upper bound; the true count (16) is not one.
    parent = cons.level(1).rects[0]
    with pytest.raises(ConstructionError,
                       match="monotone-exit assumption violated"):
        count_children(parent, cons.sol(1), cons.N(1), cons.anchor_error(2),
                       *orbit_factors(cons.sol(1), cons.N(1)))


def test_count_predicate_decides_by_the_report_rule(cons, monkeypatch):
    # A slack decides its anchor only when it clears MARGIN_FACTOR times
    # the error passed in; one inside that gate refuses the count.
    parent = cons.level(1).rects[0]
    sol, err = cons.sol(1), cons.anchor_error(2)
    hi = count_search_bound(cons.table, 1)

    def count_at(factor):
        slack = mpmath.fmul(factor, err, exact=True)
        monkeypatch.setattr(hierarchy.RectNode, "contain_slack",
                            lambda self, z: slack)
        return count_children(parent, sol, hi, err, *orbit_factors(sol, hi))

    assert count_at(-MARGIN_FACTOR) == 0  # every anchor decided outside
    with pytest.raises(ConstructionError, match="monotone-exit"):
        count_at(MARGIN_FACTOR)  # every anchor decided inside, hi included
    for factor in (-MARGIN_FACTOR + 1, 0, MARGIN_FACTOR - 1):
        with pytest.raises(ConstructionError, match="inconclusive"):
            count_at(factor)


def cached_counts_and_verdicts(cons, n_samples):
    """The count cache after the verify stage's spacing checks (every pair
    where the child level is materialized, `n_samples` sampled pairs
    beyond) and the counts of every materialized parent level, with those
    checks' statuses."""
    mat, depth = cons.materializable_depth(), cons.table.depth
    reports = [verify_spacing(cons, child) for child in range(2, mat + 1)]
    reports += [verify_spacing(cons, child, n_samples=n_samples,
                               rng=random.Random(child))
                for child in range(mat + 1, depth + 1)]
    for n in range(1, min(mat, depth - 1) + 1):
        cons.counts(n)
    return cons._counts, [(e.name, e.status)
                          for r in reports for e in r.entries]


@pytest.mark.parametrize("profile, depth", [
    ("strict", 3), ("strict", 4), ("demo", 4)])
def test_counts_at_the_derived_precision_match_the_former_rule(profile, depth):
    # The former precision rule, twice the finest step's bits plus 64 and at
    # least 128, spends more bits than the derived one; every cached count
    # and every spacing verdict comes out the same (300 samples per lazy
    # level).
    table = derive_sequences(build_schedule(1, depth), Fraction(1, 16),
                             profile=profile)
    former = max(128, 2 * -floor_log2(table.theta_(depth)) + 64)
    derived = Construction(table)
    assert derived.prec < former
    counts, verdicts = cached_counts_and_verdicts(derived, 300)
    # The 17 parents of levels 1 and 2, and 300 sampled level-3 parents.
    assert len(counts) == 17 + (300 if depth == 4 else 0)
    assert (counts, verdicts) == cached_counts_and_verdicts(
        Construction(table, sols=solve_table_arcs(table, former)), 300)


def test_count_sandwich_and_angle_bound(cons):
    report = verify_counts(cons, max_parent_level=2)
    failures = [e.name for e in report.entries if e.status != "pass"]
    # The level-1 angle-ratio bound is attained with equality (N_1 == 16 ==
    # the ratio): the unit first level leaves no headroom.  Everything else
    # must pass.
    assert failures == sorted(EXPECTED_FAILURES)
    # Frozen from the first verified run of the strict default table; the
    # exact sandwich check above is the oracle for these values.
    assert cons.N(1) == 16
    assert cons.N(2) == 1012768224


def test_level2_structure(cons):
    report = verify_level_invariants(cons, 2)
    assert report.ok, [e.to_json() for e in report.entries if e.status != "pass"]
    level = cons.level(2)
    assert len(level) == cons.N(1)
    assert level.rects[0].path == (1,)


def test_population_identity_and_cap(cons):
    assert cons.population(2) == cons.N(1)
    assert cons.population(3) == cons.N(1) * cons.N(2)
    with pytest.raises(PopulationCapError):
        cons.level(3)
    assert cons.materializable_depth() == 2


# -- the materialization boundary against the exception-catching loops --------

def reference_materializable_depth(cons):
    """The former loop: build level after level until one is refused."""
    n = max(cons._levels)
    while n < cons.table.depth:
        try:
            cons.level(n + 1)
        except PopulationCapError:
            return n
        n += 1
    return n


def reference_grid_depth(cons):
    """The former `RotationFamily.grid_depth` loop: ask for uniform counts
    level after level until one is refused."""
    n = 1
    while n < cons.table.depth:
        try:
            cons.N(n)
        except PopulationCapError:
            break
        n += 1
    return n


@pytest.fixture(scope="module")
def boundary_tables():
    """(table, arcs) per (profile, depth) of the boundary oracle."""
    out = {}
    for profile, depth in (("strict", 2), ("strict", 3), ("strict", 4),
                           ("demo", 3), ("demo", 4)):
        table = derive_sequences(build_schedule(1, depth), Fraction(1, 16),
                                 profile=profile)
        out[profile, depth] = table, solve_table_arcs(table)
    return out


@pytest.mark.parametrize("cap", [10, 16, 17, 2_000_000])
@pytest.mark.parametrize("profile, depth", [
    ("strict", 2), ("strict", 3), ("strict", 4), ("demo", 3), ("demo", 4)])
def test_materialization_boundary_matches_reference(boundary_tables, profile,
                                                    depth, cap):
    # Level 2 holds 16 rectangles, so the caps 10, 16 and 17 sit around it.
    table, sols = boundary_tables[profile, depth]

    def fresh():
        return Construction(table, sols=sols, cap=cap)

    for new, old in ((Construction.materializable_depth,
                      reference_materializable_depth),
                     (lambda c: RotationFamily(c).grid_depth(),
                      reference_grid_depth)):
        ref_cons, new_cons = fresh(), fresh()
        assert new(new_cons) == old(ref_cons)
        # Deciding builds no level the reference did not.
        assert set(new_cons._levels) <= set(ref_cons._levels)
    cons = fresh()
    assert cons.counted_depth() == min(depth, cons.materializable_depth() + 1)


def test_product_lower_bound(cons, strict_table):
    # population(n+1) * Delta_{n+1} >= prod_{l=1}^{n-1} (1 - c2*delta_l), exact.
    c2 = strict_table.c2
    for n in (1, 2):
        pop = cons.population(n + 1)
        bound = Fraction(1)
        for l in range(1, n):
            bound *= 1 - c2 * strict_table.delta_(l)
        assert pop * strict_table.Delta_(n + 1) >= bound


def test_anchor_by_path_basics(cons):
    sol = cons.sol(1)
    assert cons.anchor_by_path([1, 1]) == 0
    for k in (2, 7, 16):
        a = cons.anchor_by_path([k])
        with workprec(4 * cons.prec):
            assert abs(a - arc_point(sol, k, 4 * cons.prec)) \
                <= local_step_bound(0, sol, a)


def test_anchor_by_path_matches_stepwise_composition(cons):
    # Two evaluation orders as each other's oracle: the path walk vs an
    # explicitly unrolled sum of rotated arc-center terms.
    rng = random.Random(3)
    with workprec(cons.prec):
        for _ in range(20):
            path = [rng.randint(1, 16), rng.randint(1, 10**9)]
            direct = cons.anchor_by_path(path)
            # Closed form: each level contributes its rotated-center term,
            # multiplied by the rotations of every later level.
            acc = mpmath.mpc(0, 0)
            carry = mpmath.mpc(1, 0)
            for lvl, k in reversed(list(enumerate(path, start=1))):
                sol = cons.sol(lvl)
                rot = mpmath.expj(-frac_to_mpf((k - 1) * sol.sub_angle))
                acc += carry * sol.center_c * (1 - rot)
                carry *= rot
            assert abs(direct - acc) < 1e-14


def reference_level(cons, n):
    """The former `build_level` loop at 4x the working precision:
    (level, path, width, anchor, height) of the first N(n - 1) children of
    every level-(n - 1) rectangle, from one shared list of world-form child
    anchors of the built parent, each height the difference of two of
    them."""
    sol, N, prec = cons.sol(n - 1), cons.N(n - 1), 4 * cons.prec
    rects = []
    with workprec(prec):
        for parent in cons.level(n - 1).rects:
            anchors = [fraction_child_anchor(parent.anchor, sol, k, prec=prec)
                       for k in range(1, N + 2)]
            for k in range(1, N + 1):
                rects.append((n, parent.path + (k,), cons.table.delta_(n),
                              anchors[k - 1],
                              anchors[k].imag - anchors[k - 1].imag))
    return rects


def rect_fields(r):
    return r.level, r.path, r.anchor, r.height, r.width


@pytest.mark.parametrize("name", ["cons", "strict4_cons", "demo4_cons"])
def test_level_matches_reference_loop(request, name):
    # Paths and widths exactly; anchors within the local frame's bound, and
    # heights, Im((a_k - c)*E_1), within |E_1| times it plus their own
    # product's rounding (`child_anchor`'s analysis with one more product).
    cons = request.getfixturevalue(name)
    ref = reference_level(cons, 2)
    rects = cons.level(2).rects
    assert len(ref) == len(rects) == 16
    sol, parent = cons.sol(1), cons.level(1).rects[0]
    with workprec(4 * cons.prec):
        E1 = abs(sol.expm1_turn(1))
        # The reference height subtracts two anchors, each within a few
        # 2**(-4*prec) of |c|.
        oracle = mpmath.ldexp(32 * (abs(mpmath.mpc(*sol.center)) + 1),
                              -4 * cons.prec)
        for r, (level, path, width, anchor, height) in zip(rects, ref):
            assert (r.level, r.path, r.width) == (level, path, width)
            bound = local_step_bound(parent.anchor, sol, r.anchor)
            assert abs(r.anchor - anchor) <= bound, path
            step_bound = (E1 * bound + mpmath.ldexp(16 * height, -cons.prec)
                          + oracle)
            assert abs(r.height - height) <= step_bound, path


def test_by_path_reads_return_the_built_rect(strict_table, strict_arcs,
                                             monkeypatch):
    cons = Construction(strict_table, sols=strict_arcs)
    parents = cons.level(2).rects
    assert all(cons.rect_by_path(r.path) is r for r in parents)
    cons.counts(2)
    counted = []

    def recording(parent, *args, **kwargs):
        counted.append(parent.path)
        return count_children(parent, *args, **kwargs)

    monkeypatch.setattr(hierarchy, "count_children", recording)
    report = verify_spacing(cons, 3, n_samples=300, rng=random.Random(11))
    assert report.stats["pairs"] == 300
    # Every sampled parent is a level-2 rectangle counts(2) counted.
    assert counted == []


def test_rect_by_path_rejects_paths_past_the_table(cons):
    with pytest.raises(ValueError, match="exceeds table depth"):
        cons.rect_by_path((1, 1, 1))
    with pytest.raises(ValueError, match="exceeds table depth"):
        cons.anchor_by_path((1, 1, 1))


def test_lazy_rect_matches_materialized(cons, strict_table, strict_arcs):
    fresh = Construction(strict_table, sols=strict_arcs)
    level = cons.level(2)
    for idx in (0, 5, len(level) - 1):
        r = level.rects[idx]
        assert rect_fields(fresh.rect_by_path(r.path)) == rect_fields(r)
    assert set(fresh._levels) == {1}


def test_lazy_counts_match_materialized(cons, strict_table, strict_arcs):
    fresh = Construction(strict_table, sols=strict_arcs)
    counts = cons.counts(2)
    for idx in (0, 3, 15):
        path = cons.level(2).rects[idx].path
        assert fresh.count_children_by_path(path) == counts[idx]
    assert set(fresh._levels) == {1}


def test_spacing_level2_full(cons):
    report = verify_spacing(cons, child_level=2)
    assert report.ok, [e.to_json() for e in report.entries if e.status != "pass"]
    assert report.stats["pairs"] == cons.N(1) - 1


def test_spacing_level3_sampled(cons):
    report = verify_spacing(cons, child_level=3, n_samples=300,
                            rng=random.Random(11))
    assert report.ok, [e.to_json() for e in report.entries if e.status != "pass"]


def test_spacing_detects_corruption(cons, strict_table):
    # Synthetic violation: a table whose angle step is 4x too large must fail
    # the height-increment bound.
    bad = SequenceTable(
        c=strict_table.c, depth=3,
        delta=strict_table.delta,
        Delta=strict_table.Delta,
        theta=tuple(t / 4 for t in strict_table.theta),  # bound shrinks 4x
        c1=strict_table.c1, C_tube=strict_table.C_tube,
        profile="strict", schedule=strict_table.schedule,
    )
    bad_cons = Construction(bad, sols=cons.sols)
    report = verify_spacing(bad_cons, child_level=2)
    assert not report.ok


def test_construction_takes_the_precision_of_its_arcs(strict_table):
    assert Construction(strict_table).prec == default_precision(strict_table)
    sols = solve_table_arcs(strict_table, 200)
    assert Construction(strict_table, sols=sols).prec == 200


def test_construction_refuses_arcs_of_mixed_precision(strict_table,
                                                      strict_arcs):
    mixed = (strict_arcs[0], solve_table_arcs(strict_table, 200)[1])
    with pytest.raises(ValueError, match="mix precisions"):
        Construction(strict_table, sols=mixed)


def test_sample_parent_paths_reproducible(cons):
    a = cons.sample_parent_paths(2, 10, random.Random(5))
    b = cons.sample_parent_paths(2, 10, random.Random(5))
    assert a == b
    assert all(len(p) == 1 and 1 <= p[0] <= cons.N(1) for p in a)
    with pytest.raises(ValueError, match="outside table depth"):
        cons.sample_parent_paths(4, 10, random.Random(5))


def test_demo_construction_depth4(demo_table, demo_arcs):
    cons = Construction(demo_table, sols=demo_arcs)
    assert cons.N(1) == 16
    # Level 3 has ~2^24 rects: beyond the default cap, reachable lazily.
    with pytest.raises(PopulationCapError):
        cons.level(3)
    report = verify_spacing(cons, child_level=4, n_samples=50,
                            rng=random.Random(2))
    assert report.ok, [e.to_json() for e in report.entries if e.status != "pass"]


@pytest.fixture(scope="module")
def depth5():
    """The depth-5 construction of a profile, built once per module so the
    tests that sample it share its count cache."""
    return functools.cache(lambda profile: Construction(derive_sequences(
        build_schedule(1, 5), Fraction(1, 16), profile=profile)))


@pytest.mark.parametrize("profile", ["strict", "demo"])
def test_level5_spacing_margins_in_mpmath(depth5, profile):
    # The level-5 spacing margins over 30 sampled pairs, as fractions of
    # their bounds, recomputed in mpmath so that no float cast can round a
    # margin or its bound away: each must keep at least half its bound.
    cons = depth5(profile)
    table = cons.table
    sol = cons.sol(4)
    assert cons.counted_depth() < 4  # level-4 parents: per-parent counts
    rng = random.Random(0)
    worst_y = worst_x = mpmath.inf
    with workprec(cons.prec):
        bound_y = frac_to_mpf(table.c1 * table.theta_(5))
        Delta = frac_to_mpf(table.Delta_(5))
        stride = frac_to_mpf(table.delta_(4) / table.Delta_(4) * table.Delta_(5))
        for ppath in cons.sample_parent_paths(4, 30, rng):
            parent = cons.rect_by_path(ppath)
            k = rng.randint(1, cons.count_children_of(parent) - 1)
            d = (child_anchor(parent.anchor, sol, k + 1)
                 - child_anchor(parent.anchor, sol, k))
            worst_y = min(worst_y, 1 - abs(Delta - d.imag) / bound_y)
            worst_x = min(worst_x, 1 - abs(stride - d.real) / (3 * bound_y))
    assert worst_y >= 0.5 and worst_x >= 0.5, (float(worst_y), float(worst_x))


def test_level5_spacing_report_writes_exact_margins(depth5):
    # At 3,188 bits theta_5 and the error bound underflow a float.  The
    # report must still write a nonzero margin and bound for each check,
    # each margin within 10% of its mpmath recomputation over the same pairs.
    cons = depth5("strict")
    table, sol = cons.table, cons.sol(4)
    report = verify_spacing(cons, 5, n_samples=30, rng=random.Random(0))
    assert cons.counted_depth() < 4  # level-4 parents: per-parent counts
    rng = random.Random(0)
    with workprec(cons.prec):
        pairs = []
        for ppath in cons.sample_parent_paths(4, 30, rng):
            parent = cons.rect_by_path(ppath)
            k = rng.randint(1, cons.count_children_of(parent) - 1)
            pairs.append(child_anchor(parent.anchor, sol, k + 1)
                         - child_anchor(parent.anchor, sol, k))
        bound_y = frac_to_mpf(table.c1 * table.theta_(5))
        Delta = frac_to_mpf(table.Delta_(5))
        stride = frac_to_mpf(table.delta_(4) / table.Delta_(4) * table.Delta_(5))
        width = frac_to_mpf(table.delta_(5))
        expected = [min(bound_y - abs(Delta - d.imag) for d in pairs),
                    min(3 * bound_y - abs(stride - d.real) for d in pairs),
                    min(d.real - 3 * width for d in pairs)]
        checks = report.to_json()["checks"]
        assert [c["status"] for c in checks] == ["pass"] * 3
        for check, want in zip(checks, expected):
            margin, bound = mpmath.mpf(check["margin"]), mpmath.mpf(check["bound"])
            assert margin != 0 and bound != 0, check
            assert abs(margin - want) <= abs(want) / 10, check


def test_y_projection_checks_split_siblings_from_cousins(cons, shallow_cons):
    # Level 2 has one parent: its siblings share endpoints exactly, and no
    # pair has different parents.
    checks = {e.name: e for e in verify_level_invariants(cons, 2).entries}
    siblings = checks["y-projections of siblings share an endpoint"]
    assert siblings.status == "pass" and abs(siblings.margin) <= siblings.bound
    assert "y-projections of different parents' children disjoint" not in checks
    assert checks["rectangles contained in the unit square"].status == "pass"
    # A shallow table whose level 3 (3,856 rectangles) materializes: children
    # of different level-2 parents leave a real gap.
    assert shallow_cons.materializable_depth() == 3
    report = verify_level_invariants(shallow_cons, 3)
    assert report.ok, [e.to_json() for e in report.entries if e.status != "pass"]
    cousins = {e.name: e for e in report.entries}[
        "y-projections of different parents' children disjoint"]
    assert cousins.margin > 1e6 * cousins.bound


# -- spacing increments in the arc's local frame ------------------------------

def sampled_pairs(cons, n, n_samples, seed):
    """(parent, k) of each pair a sampled check draws: the rng replayed, k
    from 1..N(n) - 1 while level n is counted, from 1..count - 1 beyond."""
    rng = random.Random(seed)
    pairs = []
    for ppath in cons.sample_parent_paths(n, n_samples, rng):
        parent = cons.rect_by_path(ppath)
        kids = (cons.N(n) if n < cons.counted_depth()
                else cons.count_children_of(parent))
        pairs.append((parent, rng.randint(1, kids - 1)))
    return pairs


def all_pairs(cons, n):
    """(parent, k) of every pair of consecutive children of the
    materialized level n + 1, read off the built level."""
    rects = cons.level(n + 1).rects
    return [(cons.rect_by_path(a.path[:-1]), a.path[-1])
            for a, b in zip(rects, rects[1:]) if a.path[:-1] == b.path[:-1]]


def reference_increments(cons, n, pairs):
    """The increments of `pairs` at 4x precision, from the same parent
    anchors and centre."""
    sol, prec = cons.sol(n), 4 * cons.prec
    with workprec(prec):
        return [fraction_child_anchor(p.anchor, sol, k + 1, prec=prec)
                - fraction_child_anchor(p.anchor, sol, k, prec=prec)
                for p, k in pairs]


def worst_margins(cons, child_level, increments):
    """The three spacing margins of `increments`, each a min over every
    pair."""
    table, n = cons.table, child_level - 1
    with workprec(cons.prec):
        by = frac_to_mpf(table.c1 * table.theta_(child_level))
        Dm = frac_to_mpf(table.Delta_(child_level))
        Sm = frac_to_mpf(table.delta_(n) / table.Delta_(n)
                         * table.Delta_(child_level))
        g = frac_to_mpf(3 * table.delta_(child_level))
        return [min(by - abs(Dm - d.imag) for d in increments),
                min(3 * by - abs(Sm - d.real) for d in increments),
                min(d.real - g for d in increments)]


def two_anchor_worst(cons, child_level, n_samples, seed):
    """The former sampled check: each increment the difference of two
    `child_anchor` calls.  The oracle for the local-frame increments and
    the min/max reduction."""
    n = child_level - 1
    sol = cons.sol(n)
    with workprec(cons.prec):
        pairs = [child_anchor(p.anchor, sol, k + 1) - child_anchor(p.anchor, sol, k)
                 for p, k in sampled_pairs(cons, n, n_samples, seed)]
    return worst_margins(cons, child_level, pairs)


def two_anchor_all_pairs_worst(cons, child_level):
    """The former all-pairs check: each increment the difference of two
    built anchors, b.anchor - a.anchor.  Its oracle."""
    rects = cons.level(child_level).rects
    with workprec(cons.prec):
        pairs = [b.anchor - a.anchor for a, b in zip(rects, rects[1:])
                 if a.path[:-1] == b.path[:-1]]
    return worst_margins(cons, child_level, pairs)


def assert_matches_oracle(cons, report, want, level):
    err = cons.anchor_error(level)
    checks = report.to_json()["checks"]
    assert [c["status"] for c in checks] == [classify(w, err) for w in want]
    assert [c["margin"] for c in checks] == [to_json_number(w) for w in want]
    assert report.ok


LOCAL_FRAME_CASES = [("cons", 3, 300), ("strict4_cons", 3, 100),
                     ("strict4_cons", 4, 100)]
ALL_PAIRS_CASES = [("cons", 2), ("strict4_cons", 2), ("demo4_cons", 2),
                   ("shallow_cons", 3)]


@pytest.mark.parametrize("name, level, n_samples", LOCAL_FRAME_CASES)
def test_sampled_increments_within_anchor_error(request, name, level,
                                                n_samples):
    # Against the increments of the same parent anchors at 4x precision:
    # the local frame stays inside the reported error, where the difference
    # of two anchors of size |c| (|c| = 1.6e4 at level 3, 1.8e16 at strict
    # depth 4, level 4) does not.
    cons = request.getfixturevalue(name)
    n = level - 1
    with workprec(cons.prec):
        got = _increments(cons, n, _sampled_pairs(cons, n, n_samples,
                                                  random.Random(level)))
    pairs = sampled_pairs(cons, n, n_samples, level)
    assert len(got) == len(pairs) == n_samples
    with workprec(4 * cons.prec):
        worst = max(abs(d - r) for d, r
                    in zip(got, reference_increments(cons, n, pairs)))
    assert worst <= cons.anchor_error(level), (name, level, worst)


@pytest.mark.parametrize("name, level", ALL_PAIRS_CASES)
def test_all_pairs_increments_within_anchor_error(request, name, level):
    # Every pair of a materialized level, against the same parent anchors
    # at 4x precision.  At level 3 of the shallow table (|c| = 4.1e3) the
    # difference of the two built anchors is off by 1.2e-35, against a
    # reported error of 1.9e-37; the local frame by 1.5e-42.
    cons = request.getfixturevalue(name)
    n = level - 1
    pairs = all_pairs(cons, n)
    assert len(pairs) == cons.population(n) * (cons.N(n) - 1)
    with workprec(cons.prec):
        got = _increments(cons, n, pairs)
    with workprec(4 * cons.prec):
        worst = max(abs(d - r) for d, r
                    in zip(got, reference_increments(cons, n, pairs)))
    assert worst <= cons.anchor_error(level), (name, level, worst)


@pytest.mark.parametrize("name, level", ALL_PAIRS_CASES)
def test_all_pairs_spacing_matches_two_anchor_oracle(request, name, level):
    cons = request.getfixturevalue(name)
    report = verify_spacing(cons, level)
    assert report.stats["pairs"] == len(all_pairs(cons, level - 1))
    assert_matches_oracle(cons, report, two_anchor_all_pairs_worst(cons, level),
                          level)


@pytest.mark.parametrize("name, level, n_samples",
                         LOCAL_FRAME_CASES + [("demo4_cons", 4, 50)])
def test_sampled_spacing_matches_two_anchor_oracle(request, name, level,
                                                   n_samples):
    cons = request.getfixturevalue(name)
    report = verify_spacing(cons, level, n_samples=n_samples,
                            rng=random.Random(level))
    assert_matches_oracle(cons, report,
                          two_anchor_worst(cons, level, n_samples, level), level)


@st.composite
def deviation_data(draw):
    """(prec, bound, centre, values): mpfs carrying more bits than `prec`,
    the centre below, above or among the values."""
    prec = draw(st.integers(24, 300))
    scale = draw(st.integers(-40, 40))
    mantissa = st.integers(-2 ** (prec + 24), 2 ** (prec + 24))
    with workprec(prec + 64):
        def mpf(m, shift=0):
            return mpmath.ldexp(mpmath.mpf(m), scale - prec - shift)

        values = [mpf(m) for m in draw(st.lists(mantissa, min_size=1,
                                                max_size=12))]
        offset = abs(mpf(draw(mantissa), draw(st.integers(-8, 40))))
        side = draw(st.sampled_from(["below", "above", "among"]))
        if side == "below":
            centre = min(values) - offset
        elif side == "above":
            centre = max(values) + offset
        else:
            centre = draw(st.sampled_from(values)) + offset * draw(
                st.sampled_from([-1, 0, 1]))
        bound = mpf(draw(mantissa), draw(st.integers(-8, 8)))
    return prec, bound, centre, values


@given(deviation_data())
@settings(max_examples=300, deadline=None)
def test_worst_deviation_equals_the_per_value_min(data):
    prec, bound, centre, values = data
    with workprec(prec):
        got = _worst_deviation(bound, centre, values)
        want = min(bound - abs(centre - v) for v in values)
    assert got == want


def test_sampled_spacing_work_at_a_materialized_parent_level(cons,
                                                             monkeypatch):
    # Level 2 is built and its counts are known: each pair the screen keeps
    # costs one child anchor, and no expj is made.
    cons.counts(2)
    calls = {"child_anchor": 0, "expj": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hierarchy, "child_anchor",
                        counted("child_anchor", hierarchy.child_anchor))
    monkeypatch.setattr(mpmath, "expj", counted("expj", mpmath.expj))
    report = verify_spacing(cons, 3, n_samples=200, rng=random.Random(3))
    assert report.ok and report.stats["pairs"] == 200
    assert 1 <= calls["child_anchor"] <= 8
    assert calls["expj"] == 0


def test_per_level_count_constants_found_once(strict_table, strict_arcs,
                                              monkeypatch):
    fresh = Construction(strict_table, sols=strict_arcs)
    bounds, counts = [], []

    def counted_bound(table, n):
        bounds.append(n)
        return count_search_bound(table, n)

    def counted_counts(n):
        counts.append(n)
        return Construction.counts(fresh, n)

    monkeypatch.setattr(hierarchy, "count_search_bound", counted_bound)
    monkeypatch.setattr(fresh, "counts", counted_counts)
    for _ in range(3):
        assert fresh.N(1) == 16 and fresh.population(3) == 16 * fresh.N(2)
        fresh.sample_parent_paths(3, 50, random.Random(1))
    assert counts == [1, 2] and bounds == [1, 2]

    # Failures are not cached: past the cap, or with a childless parent.
    capped = Construction(strict_table, cap=10, sols=strict_arcs)
    for _ in range(2):
        with pytest.raises(PopulationCapError):
            capped.N(2)
    monkeypatch.setattr(capped, "counts", lambda n: (0, 5))
    for _ in range(2):
        with pytest.raises(ConstructionError, match="admits no children"):
            capped.N(3)
    monkeypatch.setattr(capped, "counts", lambda n: (4, 5))
    assert capped.N(3) == 4


# -- the count search in the arc's local frame ---------------------------------

def sampled_parents(cons, level, n, seed):
    paths = cons.sample_parent_paths(level, n, random.Random(seed))
    return [cons.rect_by_path(p) for p in paths]


@pytest.fixture(scope="module")
def strict5_cons():
    return Construction(derive_sequences(build_schedule(1, 5), Fraction(1, 16)))


@pytest.mark.parametrize("name, level", [
    ("cons", 2), ("strict4_cons", 3), ("demo4_cons", 3)])
def test_local_frame_exit_hint_equals_the_certified_count(request, name,
                                                          level):
    # The tan-half-angle hint, solved at bits(hi) + 64, lands on the count
    # itself, so a search certifies it with pred(m) and pred(m + 1).
    cons = request.getfixturevalue(name)
    sol, hi = cons.sol(level), count_search_bound(cons.table, level)
    for parent in sampled_parents(cons, level, 200, 24):
        with workprec(cons.prec):
            z = parent.anchor - sol.center_c
        assert z.real < 0 < z.imag  # the frame the docstring assumes
        assert hierarchy._exit_step(parent, sol, z, hi) == \
            cons.count_children_of(parent), parent.path


@pytest.mark.parametrize("level", [3, 4])
def test_deep_counts_against_an_independent_containment_oracle(strict5_cons,
                                                               level):
    # Each returned m: child m + 1 decided inside and child m + 2 outside,
    # each from its own global-frame anchor (`child_anchor`), its slack and
    # the report rule at the child level's error.
    cons = strict5_cons
    sol, err = cons.sol(level), cons.anchor_error(level + 1)
    for parent in sampled_parents(cons, level, 20, 5):
        m = cons.count_children_of(parent)
        with workprec(cons.prec):
            inside, outside = (parent.contain_slack(
                child_anchor(parent.anchor, sol, k) - parent.anchor)
                for k in (m + 1, m + 2))
        assert classify(inside, err) == PASS, parent.path
        assert classify(outside, err) == FAIL, parent.path


def counted_child_anchor(monkeypatch) -> list:
    """Record every `child_anchor` call made through the hierarchy module."""
    calls = []
    monkeypatch.setattr(hierarchy, "child_anchor",
                        lambda *args: calls.append(args) or child_anchor(*args))
    return calls


def test_lazy_rect_builds_one_child_anchor_per_lazy_index(strict5_cons,
                                                         monkeypatch):
    # Level 2 is built, so a path's first index reads a built rectangle and
    # each later one costs one orbit point: the height needs no second one.
    cons = Construction(strict5_cons.table, sols=strict5_cons.sols)
    cons.level(2)
    paths = cons.sample_parent_paths(5, 10, random.Random(8))
    paths += [p[:j] for p in paths[:3] for j in range(4)]
    paths += [(cons.N(1) + 1, 1), (cons.N(1) + 1,)]  # past the built level
    calls = counted_child_anchor(monkeypatch)
    for p in paths:
        lazy = len(p) - 1 if p and 1 <= p[0] <= cons.N(1) else len(p)
        calls.clear()
        cons.rect_by_path(p)
        assert len(calls) == lazy, p


@pytest.mark.parametrize("parent_level", [3, 4, 5])
def test_sample_parent_paths_builds_each_lazy_prefix_once(strict5_cons,
                                                         parent_level,
                                                         monkeypatch):
    # Strict depth 5 counts levels 1 and 2 exactly; each index drawn from a
    # per-parent count (parent_level - 3 per path) costs one orbit point,
    # from the rectangle the draw carries down its path.  A second draw from
    # the same seed, every count now cached, gives the same paths.
    cons = Construction(strict5_cons.table, sols=strict5_cons.sols)
    cons.level(2)
    cons.counted_depth()
    calls = counted_child_anchor(monkeypatch)
    paths = cons.sample_parent_paths(parent_level, 20, random.Random(6))
    assert len(calls) == 20 * (parent_level - 3)
    assert paths == cons.sample_parent_paths(parent_level, 20,
                                             random.Random(6))


@pytest.mark.parametrize("name, level", [("strict4_cons", 3),
                                         ("demo4_cons", 3)])
def test_count_search_work_guard(request, name, level, monkeypatch):
    # A search makes no child_anchor call and at most two expm1_turn calls
    # per parent; the bound factor expm1_turn(hi) and the step factor
    # expm1_turn(1) are made once per level.
    cons = request.getfixturevalue(name)
    fresh = Construction(cons.table, sols=cons.sols)
    parents = sampled_parents(fresh, level, 60, 3)
    assert level not in fresh._consts
    turns, anchors = [], []
    expm1_turn = type(fresh.sol(level)).expm1_turn

    def counted_turn(sol, j):
        turns.append(j)
        return expm1_turn(sol, j)

    monkeypatch.setattr(type(fresh.sol(level)), "expm1_turn", counted_turn)
    monkeypatch.setattr(hierarchy, "child_anchor",
                        lambda *args: anchors.append(args))
    counts = [fresh.count_children_of(parent) for parent in parents]
    hi = count_search_bound(fresh.table, level)
    assert anchors == []
    assert turns.count(hi) == 1 and turns.count(1) <= 1
    assert len(turns) <= 2 * len(parents) + 2
    assert counts == [cons.count_children_of(p) for p in parents]


# -- the float64 screen of spacing extremes ------------------------------------

SCREEN_CASES = [("cons", 3, 2000), ("strict4_cons", 3, 300),
                ("strict4_cons", 4, 300), ("demo4_cons", 4, 300),
                ("strict5_cons", 5, 4), ("cons", 2, None)]


def screened_pairs(cons, level, n_samples):
    """The (parent, k) pairs `verify_spacing` checks at `level`: every pair
    (n_samples None) or one per parent sampled from Random(level)."""
    n = level - 1
    if n_samples is None:
        return [(p, k) for p in cons.level(n).rects for k in range(1, cons.N(n))]
    return list(_sampled_pairs(cons, n, n_samples, random.Random(level)))


@pytest.fixture(scope="module")
def cap10_cons(strict_table, strict_arcs):
    """Level 1 materialized only: level 2 is sampled, from N(1) = 16."""
    return Construction(strict_table, sols=strict_arcs, cap=10)


@pytest.mark.parametrize("name, level, n_samples", [
    ("cons", 3, 2000), ("cap10_cons", 2, 2000), ("strict4_cons", 3, 300),
    ("strict4_cons", 4, 300), ("demo4_cons", 4, 300)])
def test_sampled_pairs_lie_in_the_level(request, name, level, n_samples):
    # Both children k and k + 1 of a sampled pair are level-`level`
    # rectangles: the first N(n) children of each parent while level n is
    # counted, the first `count_children_of` beyond.  Every parent here has
    # at least two children, so each sampled parent yields its pair.
    cons = request.getfixturevalue(name)
    n = level - 1
    pairs = list(_sampled_pairs(cons, n, n_samples, random.Random(level)))
    assert len(pairs) == n_samples
    for parent, k in pairs:
        kids = (cons.N(n) if n < cons.counted_depth()
                else cons.count_children_of(parent))
        assert 1 <= k and k + 1 <= kids, (parent.path, k, kids)


@pytest.mark.parametrize("name, level, n_samples", SCREEN_CASES)
def test_screen_keeps_every_pair_that_attains_an_extreme(request, name, level,
                                                         n_samples):
    # The oracle: the mpmath increments of every pair.  Each pair attaining
    # the least or greatest of either coordinate is kept.
    cons = request.getfixturevalue(name)
    n = level - 1
    pairs = screened_pairs(cons, level, n_samples)
    with workprec(cons.prec):
        kept = {id(pair) for pair in _extreme_pairs(cons, n, pairs)}
        increments = _increments(cons, n, pairs)
    for values in ([d.real for d in increments], [d.imag for d in increments]):
        for extreme in (min(values), max(values)):
            attaining = [pair for pair, v in zip(pairs, values) if v == extreme]
            assert attaining and all(id(pair) in kept for pair in attaining)


@pytest.mark.parametrize("name, level, n_samples", SCREEN_CASES)
def test_screen_work_guard(request, name, level, n_samples, monkeypatch):
    # verify_spacing evaluates the increments of at most 8 pairs, and still
    # reports every pair it checked.
    cons = request.getfixturevalue(name)
    evaluated = []

    def counted(cons, n, pairs):
        evaluated.append(len(pairs))
        return _increments(cons, n, pairs)

    monkeypatch.setattr(hierarchy, "_increments", counted)
    report = verify_spacing(cons, level, n_samples=n_samples,
                            rng=random.Random(level))
    total = len(screened_pairs(cons, level, n_samples))
    assert report.stats["pairs"] == total
    assert all(c["detail"] == f"worst over {total} pairs"
               for c in report.to_json()["checks"])
    assert len(evaluated) == 1 and 1 <= evaluated[0] <= 8, evaluated


@pytest.mark.parametrize("force", ["far parent", "huge scale"])
def test_screen_keeps_every_pair_when_a_value_is_not_finite(cons, force,
                                                            monkeypatch):
    pairs = screened_pairs(cons, 2, None)
    if force == "far parent":  # a - a_ref overflows float64
        far = hierarchy.RectNode(level=1, path=(2,),
                                 anchor=mpmath.mpc(mpmath.ldexp(1, 2000), 0),
                                 width=Fraction(1), height=mpmath.mpf(1))
        pairs.append((far, 1))
    else:  # the scale 2**E overflows every scaled value
        monkeypatch.setattr(hierarchy, "floor_log2", lambda x: -2000)
    with workprec(cons.prec):
        assert _extreme_pairs(cons, 1, pairs) == pairs
