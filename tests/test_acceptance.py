"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with `pytest tests/test_acceptance.py -v -s`).

Two sub-checks fail by the construction's own geometry and are asserted
faithfully anyway (see notes in the relevant tests): the first level's
child count *equals* the angle-step ratio instead of staying below it, and
the first level's tube containment needs a width multiplier near 29, not 16.
Both trace to the first level having unit width, which inflates the degree-1
constants by the reciprocal of the base constant.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cantortubes.hierarchy import Construction, verify_counts, verify_spacing
from cantortubes.measures import covering_sum, neighborhood_area
from cantortubes.pipeline import RunConfig, run_pipeline
from cantortubes.reports import EXPECTED_FAILURES
from cantortubes.rotations import RotationFamily
from cantortubes.sequences import build_schedule, derive_sequences

# Frozen at the first verified run of the strict default table (s=1, c=2^-4).
FROZEN_N1 = 16
FROZEN_N2 = 1012768224
FROZEN_AREA = 9.611589431762695       # stage 2, radius theta_2, cell theta_2/4
FROZEN_AREA_K = 153.78543090820312    # = area / (Delta_2/Delta_1)
FROZEN_K0 = 1.0                       # covering-sum ceiling (max observed 0.397)


@pytest.fixture(scope="module")
def cons(strict_table, strict_arcs):
    return Construction(strict_table, sols=strict_arcs)


@pytest.fixture(scope="module")
def rf(cons):
    return RotationFamily(cons)


def _report(num: int, ok: bool, detail: str, t0: float, budget: float):
    dt = time.time() - t0
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail} "
          f"({dt:.1f}s / budget {budget:.0f}s)")
    assert dt < budget, f"criterion {num} exceeded its runtime budget"
    return ok


def _rotation_identity_residual(cons, n: int, samples: int,
                                rng: random.Random) -> float:
    """Max residual of anchor(k+l) == rot(-l*step)*anchor(k) + first-parent
    anchor(l+1) over random (j, k, l), evaluated in float64 (the identity is
    algebraic; only arithmetic error remains)."""
    sol = cons.sol(n)
    step = float(sol.sub_angle)
    alpha = complex(float(sol.center[0]), float(sol.center[1]))
    parents = cons.level(n).anchors_float()
    pz = parents[:, 0] + 1j * parents[:, 1]
    N = cons.N(n)
    j = np.array([rng.randrange(len(pz)) for _ in range(samples)])
    k = np.array([rng.randint(1, N) for _ in range(samples)])
    l = np.array([rng.randint(1, N + 1 - kk) for kk in k])
    p = pz[j]

    def one_minus_rot(phi):
        # 1 - e^{-i phi} without the 1-cos cancellation (the arc radius is
        # ~1e4, which would amplify that loss above the tolerance).
        s = np.sin(phi / 2)
        return 2 * s * (s + 1j * np.cos(phi / 2))

    def anchor(base, idx):
        omr = one_minus_rot((idx - 1) * step)
        return alpha * omr + (1 - omr) * base

    lhs = anchor(p, k + l)
    rhs = (1 - one_minus_rot(l * step)) * anchor(p, k) + anchor(0.0, l + 1)
    return float(np.abs(lhs - rhs).max())


def test_criterion_01_rotation_identity(cons):
    t0 = time.time()
    rng = random.Random(101)
    worst = max(_rotation_identity_residual(cons, n, 10_000, rng)
                for n in (1, 2))
    ok = worst <= 1e-12
    _report(1, ok, f"max residual {worst:.2e} over 2x10^4 samples", t0, 10)
    assert ok


def test_criterion_02_spacing(cons):
    t0 = time.time()
    full = verify_spacing(cons, child_level=2)
    sampled = verify_spacing(cons, child_level=3, n_samples=10_000,
                             rng=random.Random(202))
    ok = full.ok and sampled.ok
    margins = [e.margin for r in (full, sampled) for e in r.entries]
    _report(2, ok, f"all margins positive, min {float(min(margins)):.3e}",
            t0, 30)
    assert ok, [e.to_json() for r in (full, sampled) for e in r.entries
                if e.status != "pass"]


def test_criterion_03_count_bounds(cons, strict_table):
    t0 = time.time()
    report = verify_counts(cons, 2)
    sandwich = [e for e in report.entries if "sandwich" in e.name
                or "per-parent" in e.name]
    ratio_checks = {e.name: e for e in report.entries if "angle-step" in e.name}
    ok_sandwich = all(e.status == "pass" for e in sandwich)
    ok_ratio2 = ratio_checks["N_2 below the angle-step ratio"].status == "pass"
    ok_ratio1 = all(ratio_checks[name].status == "pass"
                    for name in EXPECTED_FAILURES)
    ok = ok_sandwich and ok_ratio1 and ok_ratio2
    _report(3, ok,
            f"N_1={cons.N(1)}, N_2={cons.N(2)}; sandwich "
            f"{'ok' if ok_sandwich else 'FAIL'}, strict ratio bound at n=1 "
            f"{'ok' if ok_ratio1 else 'FAIL (N_1 equals the ratio exactly)'}",
            t0, 10)
    assert cons.N(1) == FROZEN_N1 and cons.N(2) == FROZEN_N2
    assert ok_sandwich and ok_ratio2
    # Faithful assertion of the stated criterion.  It fails: the first level
    # has unit width, so the count equals theta_1/theta_2 = 16 exactly (the
    # strict inequality's proof needs width <= angle step, which only holds
    # from level 2 on).  See the decisions ledger.
    assert ok_ratio1, (
        "N_1 < theta_1/theta_2 is violated with equality 16 == 16; "
        "genuine property of the construction, not an implementation bug")


def test_criterion_04_projection_mass(cons, strict_table):
    t0 = time.time()
    from cantortubes.measures import projection_lengths

    c2 = strict_table.c2
    len_y2, _ = projection_lengths(cons, 2)
    bound2 = 1 - c2 * strict_table.delta_(1)
    ok_y = float(len_y2) >= float(bound2)
    mass3 = cons.population(3) * strict_table.Delta_(3)
    bound3 = (1 - c2 * strict_table.delta_(1)) * (1 - c2 * strict_table.delta_(2))
    ok_3 = mass3 >= bound3  # exact rational comparison
    ok = ok_y and ok_3
    _report(4, ok,
            f"|P_y(level 2)| = {float(len_y2):.4f} >= {float(bound2):.4f}; "
            f"count(level 3)*height = {float(mass3):.4f} >= {float(bound3):.4f}",
            t0, 5)
    assert ok


def test_criterion_05_neighborhood_area(cons, rf, strict_table):
    t0 = time.time()
    stage = rf.besicovitch_stage(2, C=16)
    t2 = strict_table.theta_(2)
    est = neighborhood_area(stage, float(t2), float(t2) / 4)
    ratio = float(strict_table.Delta_(2))
    K = est.value / ratio
    ok = (abs(est.value - FROZEN_AREA) <= 0.05 * FROZEN_AREA
          and est.value <= FROZEN_AREA_K * ratio * 1.05
          and est.lower <= est.value <= est.upper)
    _report(5, ok,
            f"area {est.value:.6f} (frozen {FROZEN_AREA:.6f}, K={K:.2f}), "
            f"bracket [{est.lower:.4f}, {est.upper:.4f}]", t0, 300)
    assert ok


def test_criterion_06_containment(cons, rf):
    t0 = time.time()
    rng = random.Random(606)
    thetas = [Fraction(rng.random()).limit_denominator(10**12)
              for _ in range(100)]
    worst = {1: 0.0, 2: 0.0}
    misses = {1: 0, 2: 0}
    for th in thetas:
        for n in (1, 2):
            rep = rf.check_containment(th, n, C=16, n_samples=400,
                                       rng=random.Random(607))
            worst[n] = max(worst[n], rep.C_min)
            misses[n] += 0 if rep.contained else 1
    ok2 = misses[2] == 0 and worst[2] <= 16
    ok1 = misses[1] == 0 and worst[1] <= 16
    _report(6, ok1 and ok2,
            f"minimal sufficient C: level 1 {worst[1]:.2f} "
            f"({misses[1]} misses), level 2 {worst[2]:.2f} "
            f"({misses[2]} misses) at C=16", t0, 120)
    assert ok2, f"level-2 containment must hold: worst C {worst[2]}"
    # Faithful assertion of the stated criterion.  It fails at the first
    # level: anchors of copies rotated by angles near 1 fall below the whole
    # tube fan, and the minimal sufficient multiplier tops out near 29 (the
    # first level's constants carry a factor 1/c = 16).  See the ledger.
    assert ok1, (
        f"level-1 containment at C=16 fails for some angles "
        f"(minimal sufficient C {worst[1]:.2f}); genuine property of the "
        "construction, not an implementation bug")


def test_criterion_07_v_convergence(cons, rf, strict_table):
    t0 = time.time()
    rng = random.Random(707)
    worst_inc = math.inf
    worst_honesty = math.inf
    from cantortubes.numerics import workprec

    with workprec(cons.prec):
        for _ in range(100):
            theta = Fraction(rng.random()).limit_denominator(10**12)
            res = rf.v_limit(theta)
            evals = dict(res.evaluations)
            for m in range(1, cons.table.depth):
                inc = float(abs(evals[m + 1] - evals[m]))
                worst_inc = min(worst_inc, float(2 * strict_table.Delta_(m)) - inc)
                worst_honesty = min(worst_honesty,
                                    float(rf.tail_bound(m)) - inc)
    ok = worst_inc >= 0 and worst_honesty >= 0
    _report(7, ok,
            f"increment slack {worst_inc:.3e}, bound honesty slack "
            f"{worst_honesty:.3e} over 100 angles", t0, 30)
    assert ok


def test_criterion_08_dimension_schedule():
    t0 = time.time()
    results = []
    for s in (Fraction(1, 2), Fraction(1)):
        table = derive_sequences(build_schedule(s, 3), Fraction(1, 16))
        cc = Construction(table)
        sums = [covering_sum(table, p, cc.population(p)) for p in (2, 3)]
        from cantortubes.measures import box_dimension_x_projection

        est = box_dimension_x_projection(cc, 3)
        mean_sp = float((table.schedule.exponent(2)
                         + table.schedule.exponent(3)) / 2)
        results.append((s, max(sums), est.slope, mean_sp,
                        abs(est.slope - mean_sp)))
    ok = all(k0 <= FROZEN_K0 and dev < 0.15 for _, k0, _, _, dev in results)
    detail = "; ".join(
        f"s={s}: K0={k0:.3f}, slope={sl:.4f} vs mean s_p {m:.4f}"
        for s, k0, sl, m, _ in results)
    _report(8, ok, detail, t0, 30)
    assert ok


def test_criterion_09_demo_structural(demo_table, demo_arcs):
    t0 = time.time()
    cc = Construction(demo_table, sols=demo_arcs)
    rng = random.Random(909)
    worst = max(_rotation_identity_residual(cc, n, 10_000, rng)
                for n in (1, 2))
    ok_rot = worst <= 1e-12
    spacing = [verify_spacing(cc, 2),
               verify_spacing(cc, 3, n_samples=10_000, rng=random.Random(91)),
               verify_spacing(cc, 4, n_samples=300, rng=random.Random(92))]
    ok_spacing = all(r.ok for r in spacing)
    counts = verify_counts(cc, 2)
    # Structural content only: the two-sided sandwiches and the level-2
    # ratio bound; the level-1 strict ratio bound fails for every table
    # (see criterion 3).
    ok_counts = all(
        e.status == "pass" for e in counts.entries
        if e.name not in EXPECTED_FAILURES)
    ok = ok_rot and ok_spacing and ok_counts
    _report(9, ok,
            f"demo depth 4: identity residual {worst:.2e}, spacing through "
            f"level 4 {'ok' if ok_spacing else 'FAIL'}, counts "
            f"N_1={cc.N(1)}, N_2={cc.N(2)}", t0, 120)
    assert ok, [e.to_json() for r in spacing + [counts] for e in r.entries
                if e.status != "pass"]


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg = RunConfig(
        neighborhood_radius=Fraction(1, 64),
        raster_resolution=Fraction(1, 256),
        spacing_samples=60,
        containment_thetas=3,
        containment_anchors=60,
    )
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    ma = json.loads((tmp_path / "a/manifest.json").read_text())
    identical = all(
        (tmp_path / "a" / e["path"]).read_bytes()
        == (tmp_path / "b" / e["path"]).read_bytes()
        for e in ma["files"])
    _report(10, identical,
            f"{len(ma['files'])} files byte-identical across two runs",
            t0, 120)
    assert identical
