import dataclasses
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cantortubes.dyadic import floor_frac
from cantortubes.errors import OffGridError, PopulationCapError
from cantortubes.hierarchy import Construction, child_anchor
from cantortubes.measures import neighborhood_area
from cantortubes import rotations
from cantortubes.numerics import frac_to_mpf, workprec
from cantortubes.rotations import (
    CASE_ANCHOR,
    CASE_COMPOSED,
    CASE_ROTATION_ONLY,
    ContainmentReport,
    RotationFamily,
    verify_translation_invariants,
)
from cantortubes.sequences import build_schedule, derive_sequences


@pytest.fixture(scope="module")
def cons(strict_table, strict_arcs):
    return Construction(strict_table, sols=strict_arcs)


@pytest.fixture(scope="module")
def rf(cons):
    return RotationFamily(cons)


@pytest.fixture(scope="module")
def demo_rf(demo_table, demo_arcs):
    return RotationFamily(Construction(demo_table, sols=demo_arcs))


def v_case(rf, theta):
    """The recursion case of v(theta), theta on the finest grid."""
    level = rf.grid_depth()
    i = Fraction(theta) / rf.cons.table.theta_(level)
    assert i.denominator == 1
    return rf._v(level, i.numerator)[1]


def v_any(rf, theta):
    """The former two-way any-angle entry, the oracle for `v_limit`: v itself
    with bound 0 on the grid, else v at the finest grid point below theta
    with the tail bound of the finest grid level."""
    theta = Fraction(theta)
    try:
        return rf.v(theta), 0.0
    except OffGridError:
        level = rf.grid_depth()
        step = rf.cons.table.theta_(level)
        return (rf.v(floor_frac(theta / step) * step),
                float(rf.tail_bound(level)))


def test_grid_depth(rf):
    assert rf.grid_depth() == 3


def test_v_zero_and_coarse_grid(rf, strict_table):
    assert rf.v(Fraction(0)) == 0
    # Multiples of the coarsest step are pure rotations: no translation.
    for j in (1, 5, 16):
        th = j * strict_table.theta_(1)
        assert rf.v(th) == 0
        assert v_case(rf, th) == CASE_ROTATION_ONLY


def test_v_anchor_case(rf, cons, strict_table):
    # Below one coarse step, v at k fine steps is the (k+1)-th child anchor
    # of the first parent.
    sol = cons.sol(1)
    with workprec(cons.prec):
        for k in (1, 3, 15):
            th = k * strict_table.theta_(2)
            anchor = child_anchor(mpmath.mpc(0, 0), sol, k + 1)
            assert abs(rf.v(th) - anchor) < 1e-40
            assert v_case(rf, th) == CASE_ANCHOR


def test_v_composed_case_identity(rf, cons, strict_table):
    # v(j*step_n + rem) == rot(-j*step_n) * v(rem) + v(j*step_n), the defining
    # recursion, evaluated both ways.
    t1, t2 = strict_table.theta_(1), strict_table.theta_(2)
    with workprec(cons.prec):
        for j, k in ((1, 1), (3, 7), (15, 15)):
            th = j * t1 + k * t2
            direct = rf.v(th)
            composed = mpmath.expj(-frac_to_mpf(j * t1)) * rf.v(k * t2) \
                + rf.v(j * t1)
            assert abs(direct - composed) < 1e-40
            assert v_case(rf, th) == CASE_COMPOSED


def test_v_rotated_anchor_case(rf, cons, strict_table):
    # Fine-grid multiples beyond one block: peel whole blocks of N_2 steps.
    N2 = cons.N(2)
    t3 = strict_table.theta_(3)
    with workprec(cons.prec):
        for q, k in ((1, 5), (3, 100)):
            th = (q * N2 + k) * t3
            assert th < strict_table.theta_(2)
            expect = mpmath.expj(-frac_to_mpf(q * N2 * t3)) * rf.v(k * t3)
            assert abs(rf.v(th) - expect) < 1e-40


def test_v_off_grid_rejected(rf):
    with pytest.raises(OffGridError):
        rf.v(Fraction(1, 3))
    for call in (lambda: rf.v(Fraction(3, 2)),
                 lambda: rf.v_limit(Fraction(3, 2)),
                 lambda: rf.v(-1), lambda: rf.v_limit(Fraction(-1, 7))):
        with pytest.raises(ValueError, match=r"angle must lie in \[0, 1\]"):
            call()


def test_v_limit_on_grid_is_stationary(rf, strict_table):
    th = 5 * strict_table.theta_(2)
    res = rf.v_limit(th)
    with workprec(rf.cons.prec):
        assert abs(res.point - rf.v(th)) == 0


def test_v_limit_increments_and_bound(rf, strict_table):
    rng = random.Random(42)
    with workprec(rf.cons.prec):
        for _ in range(30):
            theta = Fraction(rng.random()).limit_denominator(10**12)
            res = rf.v_limit(theta)
            evals = dict(res.evaluations)
            for m in range(1, 3):
                inc = abs(evals[m + 1] - evals[m])
                assert float(inc) <= float(2 * strict_table.Delta_(m))
            # Certified bound decreases with the level and the deepest one
            # bounds the distance to any finer evaluation trivially.
            assert res.error_bound <= float(2 * strict_table.Delta_(3)) * 1.1


@pytest.mark.parametrize("name", ["rf", "demo_rf"])
def test_v_limit_matches_the_two_way_oracle(request, name):
    # On-grid angles (l * theta_m at every usable m) come back exactly with
    # bound 0; off-grid ones with the finest level's tail bound.
    rf = request.getfixturevalue(name)
    rng = random.Random(5)
    table = rf.cons.table
    thetas = [Fraction(0), Fraction(1)]
    for m in range(1, rf.grid_depth() + 1):
        n_steps = floor_frac(1 / table.theta_(m))
        thetas += [rng.randint(0, n_steps) * table.theta_(m) for _ in range(20)]
    thetas += [Fraction(rng.random()).limit_denominator(10**12)
               for _ in range(40)]
    on_grid = 0
    for theta in thetas:
        res = rf.v_limit(theta)
        point, bound = v_any(rf, theta)
        assert res.point == point and res.error_bound == bound, theta
        on_grid += bound == 0.0
    assert on_grid >= 20 * rf.grid_depth()


def test_v_limit_convergence_report(rf):
    res = rf.v_limit(0.3)
    assert res.error_bound < 1e-3
    assert res.error_bound > 0


def test_translation_invariants_report(rf):
    report = verify_translation_invariants(rf, rng=random.Random(1))
    assert report.ok, [e.to_json() for e in report.entries if e.status != "pass"]


def test_translation_table_levels(rf, strict_table):
    t1 = rf.translation_table(1)
    assert len(t1) == 17
    assert all(e.x == 0 and e.y == 0 for e in t1)
    t2 = rf.translation_table(2)
    assert len(t2) == 257
    assert t2[0].case == CASE_ROTATION_ONLY
    assert t2[1].case == CASE_ANCHOR
    with pytest.raises(PopulationCapError):
        rf.translation_table(3)


def test_gamma_theta_zero_is_identity(rf, cons):
    pts, v, bound, sampled = rf.gamma_anchors(Fraction(0), 2)
    assert not sampled and bound == 0
    ref = cons.level(2).anchors_float()
    assert np.allclose(pts, ref, atol=1e-12)


def test_gamma_anchor_map_identity(rf, cons, strict_table):
    # Rotating by k fine steps maps anchor (j, l) onto anchor (j, l+k).
    sol = cons.sol(2)
    t3 = strict_table.theta_(3)
    k = 7
    with workprec(cons.prec):
        parent = cons.level(2).rects[4].anchor
        p_l = child_anchor(parent, sol, 3)
        p_lk = child_anchor(parent, sol, 3 + k)
        moved = mpmath.expj(-frac_to_mpf(k * t3)) * p_l + rf.v(k * t3)
        assert abs(moved - p_lk) < 1e-12


def test_gamma_composition(rf, cons, strict_table):
    # gamma(j*step + phi) = rot(-j*step) * gamma(phi) + v(j*step), on anchors.
    t1, t2 = strict_table.theta_(1), strict_table.theta_(2)
    j, k = 3, 5
    phi = k * t2
    th = j * t1 + phi
    pts, _, _, _ = rf.gamma_anchors(th, 2)
    inner, _, _, _ = rf.gamma_anchors(phi, 2)
    z = (inner[:, 0] + 1j * inner[:, 1]) * np.exp(-1j * float(j * t1))
    v = rf.v(j * t1)
    z = z + complex(float(v.real), float(v.imag))
    assert np.allclose(np.stack([z.real, z.imag], 1), pts, atol=1e-12)


def test_gamma_sampled_level3(rf):
    pts, _, bound, sampled = rf.gamma_anchors(0.25, 3, n_samples=50,
                                              rng=random.Random(4))
    assert sampled and len(pts) == 50
    assert bound >= 0
    assert np.all(np.isfinite(pts))


def test_tube_family_axis_aligned_at_zero(rf, cons, strict_table):
    fam = rf.tube_family(2, 0, C=16, variant="T")
    assert fam.rotation == 0
    assert np.allclose(fam.centers, cons.level(2).anchors_float())
    assert fam.half_width == 16 * float(strict_table.theta_(2))
    assert fam.half_height == 16 * float(strict_table.Delta_(2))


def test_tube_family_covers_level(rf, cons):
    # Every level rectangle sits inside its own centered tube at C = 16.
    for n in (1, 2):
        fam = rf.tube_family(n, 0, C=16, variant="T")
        for rect, c in zip(cons.level(n).rects, fam.centers):
            x0, y0, x1, y1 = rect.corners_float()
            assert x0 >= c[0] - fam.half_width - 1e-12
            assert x1 <= c[0] + fam.half_width + 1e-12
            assert y0 >= c[1] - fam.half_height - 1e-12
            assert y1 <= c[1] + fam.half_height + 1e-12


def test_tube_shift_rotate_coherence(rf, cons, strict_table):
    # A tube centered on a level-3 anchor and rotated by K = q*N_2 + l fine
    # steps coincides with the l-step tube rotated by the whole blocks; whole
    # blocks only fit below the coarser step from level 2 on, and level-3
    # centers exceed the cap, so the identity is checked on sampled anchors.
    N2 = cons.N(2)
    t3 = strict_table.theta_(3)
    q, l = 2, 9
    K = q * N2 + l
    assert K * t3 < strict_table.theta_(2)
    rng = random.Random(21)
    paths = cons.sample_parent_paths(3, 20, rng)
    with workprec(cons.prec):
        block = mpmath.expj(-frac_to_mpf(q * N2 * t3))
        for p in paths:
            z = cons.anchor_by_path(p)
            lhs = mpmath.expj(-frac_to_mpf(K * t3)) * z + rf.v(K * t3)
            rhs = block * (mpmath.expj(-frac_to_mpf(l * t3)) * z + rf.v(l * t3))
            assert abs(lhs - rhs) < 1e-12


def test_tube_prime_variant_doubles_extents(rf):
    t = rf.tube_family(2, 3, C=16, variant="T")
    tp = rf.tube_family(2, 3, C=16, variant="T_prime")
    assert tp.half_width == 2 * t.half_width
    assert tp.half_height == 2 * t.half_height
    assert tp.rotation == t.rotation
    assert np.allclose(tp.centers, t.centers)


def test_tube_center_identity(rf, cons, strict_table):
    # Rotating the (j,k) primed tube by l fine steps recenters it on the
    # (j, k+l) anchor.
    sol = cons.sol(2)
    t3 = strict_table.theta_(3)
    rng = random.Random(13)
    with workprec(cons.prec):
        for _ in range(25):
            j = rng.randrange(len(cons.level(2).rects))
            k = rng.randint(1, 10**6)
            l = rng.randint(1, 10**6)
            parent = cons.level(2).rects[j].anchor
            p_k = child_anchor(parent, sol, k)
            center = mpmath.expj(-frac_to_mpf(l * t3)) * p_k + rf.v(l * t3)
            p_kl = child_anchor(parent, sol, k + l)
            assert abs(center - p_kl) < 1e-12


def test_besicovitch_stage_counts(rf, cons):
    stage1 = rf.besicovitch_stage(1, C=16)
    assert len(stage1) == 17  # indices 0..16: the unrotated family plus 1/theta_1
    assert all(len(f) == 1 for f in stage1)
    stage2 = rf.besicovitch_stage(2, C=16)
    assert len(stage2) == 257
    assert all(len(f) == cons.N(1) for f in stage2)
    with pytest.raises(PopulationCapError):
        rf.besicovitch_stage(3, C=16)


def test_tube_families_built_once(rf):
    # One family per (level, l, C, variant), shared by every caller.
    fam = rf.tube_family(2, 5, C=16)
    assert rf.tube_family(2, 5, C=Fraction(16), variant="T") is fam
    assert rf.tube_family(2, 5, C=16, variant="T_prime") is not fam
    stage = rf.besicovitch_stage(2, C=16)
    assert stage[5] is fam
    assert all(f is rf.tube_family(2, l, C=16) for l, f in enumerate(stage))


@pytest.mark.parametrize("C", [-1, Fraction(-1, 3)])
def test_negative_tube_constant_refused(rf, C):
    # Negative half-extents: the painter would fail on them, and
    # containment would report a C_min for tubes that do not exist.
    with pytest.raises(ValueError, match="C must be >= 0"):
        rf.tube_family(2, 3, C=C)
    with pytest.raises(ValueError, match="C must be >= 0"):
        rf.besicovitch_stage(1, C=C)
    with pytest.raises(ValueError, match="C must be >= 0"):
        rf.check_containment(0.21, 2, C=C)


def test_zero_tube_constant_builds_point_tubes(rf, strict_table):
    # RunConfig accepts C_tube = 0: every box is a point.
    fam = rf.tube_family(2, 3, C=0)
    assert fam.half_width == fam.half_height == 0.0
    assert len(rf.besicovitch_stage(1, C=0)) == strict_table.family_count(1)
    rep = rf.check_containment(0.21, 1, C=0)
    assert rep.C == 0.0 and not rep.contained
    radius = float(strict_table.theta_(2))
    assert neighborhood_area([fam], radius, radius / 4).cells_on > 0


def test_shared_families_and_level_anchors_are_read_only(rf, cons):
    fam = rf.tube_family(2, 5, C=16)
    with pytest.raises(ValueError):
        fam.centers[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.rotation = 0.0
    anchors = cons.level(2).anchors_float()
    assert cons.level(2).anchors_float() is anchors
    with pytest.raises(ValueError):
        anchors[0, 0] = 1.0


def test_tube_families_past_the_memo_cap_built_fresh(rf, cons, monkeypatch):
    refs = [rf.tube_family(2, l, C=16) for l in range(4)]
    monkeypatch.setattr(rotations, "STAGE_TUBE_CAP", 2 * cons.N(1))
    small = RotationFamily(cons)
    fams = [small.tube_family(2, l, C=16) for l in range(4)]
    again = [small.tube_family(2, l, C=16) for l in range(4)]
    # The memo fills with the first two families; the rest are rebuilt.
    assert [a is b for a, b in zip(fams, again)] == [True, True, False, False]
    for ref, fam in zip(refs, again):
        assert np.array_equal(fam.centers, ref.centers)
        assert {k: v for k, v in vars(fam).items() if k != "centers"} \
            == {k: v for k, v in vars(ref).items() if k != "centers"}


def test_containment_on_grid_single_family(rf, strict_table):
    # At an exact grid angle the copy sits inside that angle's own family.
    th = 7 * strict_table.theta_(1)
    rep = rf.check_containment(th, 1, C=16)
    assert rep.contained
    assert rep.family_index == 7
    assert rep.C_min_single_family <= 16
    assert not rep.scanned_all_families


def test_containment_off_grid_level1_needs_union(rf):
    # Off-grid angles at the first level overflow the single family (the
    # translation vector alone has x about one unit) but the union covers.
    rep = rf.check_containment(0.21, 1, C=16)
    assert rep.contained
    assert rep.C_min <= 16
    assert rep.scanned_all_families
    assert rep.C_min_single_family > 16


def test_containment_level2_random_thetas(rf):
    rng = random.Random(77)
    for _ in range(5):
        th = rng.random()
        rep = rf.check_containment(th, 2, n_samples=200,
                                   rng=random.Random(5))
        assert rep.contained, rep.to_json()
        assert rep.C_min <= 16
        assert rep.sampled
    # An on-grid angle with the default multiplier.
    assert rf.check_containment(Fraction(1, 4), 2, n_samples=50).contained


def test_stage_nesting_under_inflation(rf, strict_table):
    # A stage tube inflated by its own angle step stays inside the primed
    # tube with the same center: the doubled half-extents absorb the step.
    t2 = float(strict_table.theta_(2))
    for l in (0, 5, 200):
        t = rf.tube_family(2, l, C=16, variant="T")
        tp = rf.tube_family(2, l, C=16, variant="T_prime")
        assert np.allclose(t.centers, tp.centers)
        assert t.rotation == tp.rotation
        assert t.half_width + t2 <= tp.half_width
        assert t.half_height + t2 <= tp.half_height


# -- containment against the all-mpmath anchors ----------------------------------

def reference_gamma_anchors(rf, theta, level, n_samples=None, rng=None):
    """Rotated anchors with every sampled anchor built by `anchor_by_path`
    in mpmath and rounded to float64."""
    theta = Fraction(theta)
    v, bound = v_any(rf, theta)
    try:
        pts = rf.cons.level(level).anchors_float()
        sampled = False
    except PopulationCapError:
        rng = rng or random.Random(0)
        paths = rf.cons.sample_parent_paths(level, n_samples, rng)
        with workprec(rf.cons.prec):
            pts = np.array([
                [float(a.real), float(a.imag)]
                for a in (rf.cons.anchor_by_path(p) for p in paths)])
        sampled = True
    z = (pts[:, 0] + 1j * pts[:, 1]) * np.exp(-1j * float(theta)) \
        + complex(float(v.real), float(v.imag))
    return np.stack([z.real, z.imag], axis=1), v, bound, sampled


def reference_containment(rf, theta, n, C=None, n_samples=1000, rng=None):
    """The containment check over the all-mpmath anchors, without a screen."""
    table = rf.cons.table
    C = Fraction(C if C is not None else table.C_tube)
    theta = Fraction(theta)
    pts, _v, v_bound, sampled = reference_gamma_anchors(
        rf, theta, n + 1, n_samples=n_samples, rng=rng)
    theta_n = table.theta_(n)
    i0 = min(floor_frac(theta / theta_n), floor_frac(1 / theta_n))

    def needed_C(family):
        local = family.local_coords(pts)
        ratios = np.maximum(np.abs(local[..., 0]) / float(theta_n),
                            np.abs(local[..., 1]) / float(table.Delta_(n)))
        return ratios.min(axis=1)

    fam = rf.tube_family(n, i0, C, "T")
    local = fam.local_coords(pts)
    per_anchor_single = needed_C(fam)
    best = per_anchor_single.copy()
    scanned_all = False
    if best.max() > float(C):
        scanned_all = True
        for l in range(floor_frac(1 / theta_n) + 1):
            if l != i0:
                best = np.minimum(best, needed_C(rf.tube_family(n, l, C, "T")))
    worst = int(np.argmax(per_anchor_single))
    j_best = int(np.argmin(np.maximum(
        np.abs(local[worst, :, 0]) / float(theta_n),
        np.abs(local[worst, :, 1]) / float(table.Delta_(n)))))
    return ContainmentReport(
        theta=float(theta), level=n, C=float(C),
        C_min=float(best.max()),
        C_min_single_family=float(per_anchor_single.max()),
        contained=bool(best.max() <= float(C)),
        family_index=i0, n_anchors=len(pts), sampled=sampled,
        worst_x_ratio=float(np.abs(local[worst, j_best, 0]) / float(theta_n)),
        worst_y_ratio=float(np.abs(local[worst, j_best, 1])
                            / float(table.Delta_(n))),
        v_error_bound=float(v_bound), scanned_all_families=scanned_all)


def assert_matches_reference(rf, monkeypatch, theta, n, C=None, seed=5):
    """The screened report equals the reference; returns it and the number
    of anchors the screen refined in mpmath."""
    cons = rf.cons
    calls = []

    def counted(path):
        calls.append(path)
        return Construction.anchor_by_path(cons, path)

    with monkeypatch.context() as m:
        m.setattr(cons, "anchor_by_path", counted)
        got = rf.check_containment(theta, n, C=C, n_samples=400,
                                   rng=random.Random(seed))
    ref = reference_containment(rf, theta, n, C=C, n_samples=400,
                                rng=random.Random(seed))
    assert got == ref, (got.to_json(), ref.to_json())
    return got, len(calls)


def seeded_angles(k, seed):
    rng = random.Random(seed)
    return [Fraction(rng.random()).limit_denominator(10**12) for _ in range(k)]


@pytest.mark.parametrize("name", ["rf", "demo_rf"])
@pytest.mark.parametrize("n", [1, 2])
def test_containment_matches_mpmath_reference(request, monkeypatch, name, n):
    rf = request.getfixturevalue(name)
    for theta in seeded_angles(4, 31 + n):
        rep, refined = assert_matches_reference(rf, monkeypatch, theta, n)
        assert rep.sampled == (n == 2)
        # The screen leaves only the anchors at the maximum to mpmath.
        assert refined <= 3 if rep.sampled else refined == 0


def test_containment_reference_off_grid_scan(rf, monkeypatch):
    rep, _ = assert_matches_reference(rf, monkeypatch, 0.21, 1, C=16)
    assert rep.scanned_all_families


@pytest.mark.parametrize("name", ["rf", "demo_rf"])
def test_containment_reference_maximum_at_C(request, monkeypatch, name):
    # With C set to the single-family maximum itself (and one float below
    # it), the screened maximum lies within 2*L*e of C: the screen scans
    # every family and the mpmath anchors decide whether the report does.
    rf = request.getfixturevalue(name)
    theta = seeded_angles(1, 8)[0]
    top = reference_containment(rf, theta, 2, n_samples=400,
                                rng=random.Random(5)).C_min_single_family
    at, _ = assert_matches_reference(rf, monkeypatch, theta, 2, C=Fraction(top))
    assert not at.scanned_all_families and at.contained
    below, _ = assert_matches_reference(
        rf, monkeypatch, theta, 2, C=Fraction(np.nextafter(top, 0)))
    assert below.scanned_all_families


@pytest.fixture(scope="module")
def lazy_rf(strict_table, strict_arcs):
    # A cap below level 2's 16 rectangles: level-1 checks sample lazy paths.
    return RotationFamily(Construction(strict_table, sols=strict_arcs, cap=10))


@pytest.mark.parametrize("name, n, thetas", [
    ("rf", 2, seeded_angles(2, 12)),
    ("lazy_rf", 1, seeded_angles(3, 12) + [Fraction(21, 100)]),
])
def test_containment_screen_holds_at_its_bound(request, monkeypatch, name, n,
                                               thetas):
    # Screened anchors as far from the mpmath ones as a deliberately wide
    # bound allows: the refinement margins alone must still find every row
    # that decides the report, with and without the scan of every family.
    rf = request.getfixturevalue(name)
    cons = rf.cons
    wide = 1e-3
    noise = np.random.default_rng(7)

    def displaced(paths):
        with workprec(cons.prec):
            exact = np.array([[float(a.real), float(a.imag)]
                              for a in map(cons.anchor_by_path, paths)])
        r = wide * noise.uniform(0, 1, len(paths))
        phi = noise.uniform(0, 2 * np.pi, len(paths))
        return exact + np.stack([r * np.cos(phi), r * np.sin(phi)], 1), wide

    def report(check, theta, C):
        return check(rf, theta, n, C=C, n_samples=400, rng=random.Random(5))

    cases = []
    for theta in thetas:
        top = report(reference_containment, theta, None).C_min_single_family
        cases += [(theta, C) for C in (None, Fraction(1), Fraction(top),
                                       Fraction(np.nextafter(top, 0)))]
    monkeypatch.setattr(cons, "anchors_float64", displaced)
    for theta, C in cases:
        got = report(RotationFamily.check_containment, theta, C)
        assert got == report(reference_containment, theta, C), (theta, C)


def test_containment_checks_share_one_level_draw(rf):
    # One draw of a level's anchors serves every angle: each check equals
    # the one that draws for itself from the same seed, and refinements go
    # into the check's own copy (the shifted rows would otherwise be
    # overwritten by the mpmath anchors the refinement reads).
    anchors, paths, e = rf.level_anchors(3, 120, random.Random(8))
    assert paths is not None
    shifted = anchors + 1e-9
    kept = shifted.copy()
    for th in (Fraction(1, 5), Fraction(2, 7), Fraction(5, 9)):
        shared = rf.check_containment(th, 2, sample=(anchors, paths, e))
        drawn = rf.check_containment(th, 2, n_samples=120,
                                     rng=random.Random(8))
        assert shared == drawn
        rf.check_containment(th, 2, sample=(shifted, paths, e))
        assert np.array_equal(shifted, kept)


def table_level(table, theta):
    """The coarsest level whose angle step divides theta, read off the
    table by Fraction division."""
    return next(m for m in range(1, table.depth + 1)
                if (theta / table.theta_(m)).denominator == 1)


def former_v(rf, theta):
    """The Fraction recursion with every orbit point and rotation formed
    afresh, each angle's grid level found from the table: the oracle for
    the integer recursion and the factors `_v_recursion` keeps."""
    cons = rf.cons
    m = table_level(cons.table, theta)
    if m == 1:
        return mpmath.mpc(0, 0)
    n = m - 1
    theta_n = cons.table.theta_(n)
    j = floor_frac(theta / theta_n)
    q, k = divmod(int((theta - j * theta_n) / cons.table.theta_(m)), cons.N(n))
    sol = cons.sol(n)
    with workprec(cons.prec):
        base = child_anchor(mpmath.mpc(0, 0), sol, k + 1)
        if q:
            base = mpmath.expj(-sol.turn(q * cons.N(n))) * base
        if j:
            base = (mpmath.expj(-frac_to_mpf(j * theta_n)) * base
                    + former_v(rf, j * theta_n))
    return base


@pytest.mark.parametrize("profile, depth", [("strict", 3), ("strict", 4),
                                            ("demo", 4)])
def test_v_matches_the_fraction_recursion_on_every_grid_level(profile, depth):
    # Every grid level's first and last index, and 15 seeded multiples of
    # each coarser level's step: v there, and the left-limit evaluations on
    # every grid level there and a third of a step above, equal the
    # Fraction oracle bit for bit.
    rf = RotationFamily(Construction(
        derive_sequences(build_schedule(1, depth), Fraction(1, 16), profile)))
    table, rng = rf.cons.table, random.Random(depth)
    assert rf.grid_depth() == 3
    for level in range(1, rf.grid_depth() + 1):
        step, count = table.theta_(level), table.family_count(level)
        indices = [0, count - 1]
        for m in range(1, level + 1):
            per = int(table.theta_(m) / step)
            indices += [rng.randrange(table.family_count(m)) * per
                        for _ in range(15)]
        assert {table_level(table, i * step) for i in indices} == set(
            range(1, level + 1))
        for i in indices:
            assert rf.v(i * step) == former_v(rf, i * step), (level, i)
            for theta in (i * step, min(i * step + step / 3, Fraction(1))):
                for m, point in rf.v_limit(theta).evaluations:
                    below = (floor_frac(theta / table.theta_(m))
                             * table.theta_(m))
                    assert point == former_v(rf, below), (theta, m)


@pytest.mark.parametrize("profile, depth", [("strict", 3), ("strict", 4),
                                            ("demo", 4)])
def test_own_family_index_is_the_grid_index_coarsened(profile, depth):
    # `check_containment` takes the angle's own family at level n from
    # `v_limit`'s index on the finest grid G, i // (theta_n/theta_G), where
    # the Fraction form is floor(theta/theta_n): they agree on every grid
    # level's points, on theta = 1 and on seeded angles off the grid.
    rf = RotationFamily(Construction(
        derive_sequences(build_schedule(1, depth), Fraction(1, 16), profile)))
    table, rng = rf.cons.table, random.Random(10 + depth)
    grid = rf.grid_depth()
    thetas = [Fraction(1)] + [Fraction(rng.random()).limit_denominator(10**12)
                              for _ in range(30)]
    for m in range(1, grid + 1):
        step, count = table.theta_(m), table.family_count(m)
        for k in [0, 1, count - 1] + [rng.randrange(count) for _ in range(10)]:
            thetas += [k * step, max(k * step - table.theta_(grid), 0)]
    for theta in thetas:
        res = rf.v_limit(theta)
        for n in range(1, grid + 1):
            n_fam = table.family_count(n)
            assert (min(res.index // rf._steps(n, grid), n_fam - 1)
                    == min(floor_frac(theta / table.theta_(n)), n_fam - 1)), \
                (theta, n)
    with pytest.raises(ValueError, match="outside 1..3"):
        rf.check_containment(Fraction(1, 3), grid + 1, n_samples=10)


def test_kept_orbit_factors_give_v_bit_for_bit(cons, monkeypatch):
    # The level-2 table forms its 15 orbit points and 15 coarse rotations
    # once each; every v, on the level-2 and the level-3 grid, equals the
    # former recursion's exactly.  Level-3 angles repeat orbit indices k
    # across coarse indices j, so the kept points are read back.
    fresh = RotationFamily(cons)
    calls = []
    monkeypatch.setattr(rotations, "child_anchor",
                        lambda *args: calls.append(args) or child_anchor(*args))
    fresh.translation_table(2)
    assert len(calls) == 15
    assert sorted(fresh._orbit) == [(1, k) for k in range(1, 16)]
    assert sorted(fresh._coarse) == [(1, j) for j in range(1, 16)]
    table, rng = cons.table, random.Random(25)
    t2, t3 = table.theta_(2), table.theta_(3)
    thetas = [rng.randrange(table.family_count(2)) * t2 for _ in range(30)]
    for _ in range(20):
        theta = rng.randrange(1 << 48) * t3
        thetas += [theta, theta + t2, theta - t2]
    thetas = [th for th in thetas if 0 <= th <= 1]
    for theta in thetas:
        assert fresh.v(theta) == former_v(fresh, theta), theta
    assert any(key[0] == 2 for key in fresh._orbit)
    assert len(fresh._orbit) < 15 + len(thetas)
