from fractions import Fraction

import pytest

from cantortubes.dyadic import is_pow2_reciprocal, pow2
from cantortubes.errors import DepthUnreachableError
from cantortubes.reports import FAIL, PASS
from cantortubes.sequences import (
    SequenceTable,
    build_schedule,
    derive_sequences,
    validate_sequences,
)

C4 = Fraction(1, 16)


def test_schedule_s1():
    sched = build_schedule(1, 3)
    assert sched.s_n == (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


def test_schedule_s0():
    sched = build_schedule(0, 3)
    assert sched.s_n == (Fraction(1), Fraction(1, 2), Fraction(1, 3))


def test_schedule_s_half_depth2():
    sched = build_schedule(Fraction(1, 2), 2)
    assert sched.s_n == (Fraction(1, 4), Fraction(1, 3))


def test_schedule_monotonicity():
    up = build_schedule(Fraction(3, 4), 6).s_n
    assert all(a < b for a, b in zip(up, up[1:]))
    down = build_schedule(0, 6).s_n
    assert all(a > b for a, b in zip(down, down[1:]))


def test_schedule_range_validation():
    with pytest.raises(ValueError):
        build_schedule(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        build_schedule(Fraction(-1, 4), 3)
    with pytest.raises(ValueError):
        build_schedule(1, 0)


def test_derive_hand_checked_depth2():
    # Hand check: Delta_2 = c*delta_1^2 = 2^-4 with equality;
    # delta_2 = c*Delta_2^{1/s_2} = 2^-4 * (2^-4)^{3/2} = 2^-10 <= c*Delta_2*delta_1 = 2^-8.
    table = derive_sequences(build_schedule(1, 2), C4)
    assert table.Delta_(2) == pow2(-4)
    assert table.theta_(2) == pow2(-8)
    assert table.delta_(2) == pow2(-10)


def test_level_one_is_unit():
    for s in (0, Fraction(1, 2), 1):
        table = derive_sequences(build_schedule(s, 3), C4)
        assert table.delta_(1) == 1 and table.Delta_(1) == 1
        assert table.theta_(1) == C4


def test_strict_depth3_default():
    table = derive_sequences(build_schedule(1, 3), C4)
    assert table.Delta_(3) == pow2(-34)
    assert table.theta_(3) == pow2(-48)
    assert table.delta_(3) == pow2(-50)


def test_angle_ratios_are_powers_of_two():
    table = derive_sequences(build_schedule(Fraction(1, 2), 4), C4)
    for n in range(1, table.depth):
        ratio = table.theta_(n) / table.theta_(n + 1)
        assert ratio.denominator == 1
        assert is_pow2_reciprocal(1 / ratio)


@pytest.mark.parametrize("s", [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1])
@pytest.mark.parametrize("c", [pow2(-4), pow2(-5), pow2(-7)])
def test_roundtrip_validation(s, c):
    table = derive_sequences(build_schedule(s, 3), c)
    report = validate_sequences(table)
    assert report.ok, [e.name for e in report.failures]
    # Every recorded slack of a passing check is nonnegative.
    for entry in report.entries:
        if entry.margin is not None and entry.status == PASS:
            assert entry.margin >= 0


def test_demo_profile_depth4():
    table = derive_sequences(build_schedule(1, 4), C4, profile="demo")
    assert table.Delta_(3) == pow2(-24)
    assert table.theta_(3) == pow2(-38)
    assert table.delta_(3) == pow2(-38)
    assert table.Delta_(4) == pow2(-80)
    assert table.theta_(4) == pow2(-122)
    assert validate_sequences(table).ok


def test_narrowing_ratio_decreases():
    table = derive_sequences(build_schedule(1, 3), C4)
    ratios = [table.delta_(n) / table.Delta_(n) for n in range(1, 4)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_corrupt_height_bound_detected():
    good = derive_sequences(build_schedule(1, 2), C4)
    bad = SequenceTable(
        c=good.c, depth=2,
        delta=good.delta,
        Delta=(Fraction(1), pow2(-3)),  # 1/8 > c*delta_1^2 = 1/16
        theta=(good.c, good.c * pow2(-3)),
        c1=good.c1, C_tube=good.C_tube, profile="strict", schedule=good.schedule,
    )
    report = validate_sequences(bad)
    assert not report.ok
    [height] = [e for e in report.failures if "height bound" in e.name]
    assert height.margin == float(Fraction(1, 16) - pow2(-3))


def test_non_dyadic_entry_flagged():
    good = derive_sequences(build_schedule(1, 2), C4)
    bad = SequenceTable(
        c=good.c, depth=2,
        delta=good.delta,
        Delta=(Fraction(1), Fraction(1, 3)),
        theta=(good.c, good.c * Fraction(1, 3)),
        c1=good.c1, C_tube=good.C_tube, profile="strict", schedule=good.schedule,
    )
    report = validate_sequences(bad)
    # 1/Delta_2 = 3 is an integer, so grid integrality itself passes...
    grid = [e for e in report.entries if e.name == "grid integrality: 1/Delta_2 in N"]
    assert grid and grid[0].status == PASS
    # ...but the dyadic-closure check flags the non-dyadic entry.
    dyadic = [e for e in report.entries
              if e.name == "dyadic closure: all Delta entries dyadic"]
    assert dyadic and dyadic[0].status == FAIL


def test_c_preconditions():
    with pytest.raises(ValueError):
        derive_sequences(build_schedule(1, 2), Fraction(1, 8))  # c >= 1/10
    with pytest.raises(ValueError):
        derive_sequences(build_schedule(1, 2), Fraction(3, 32))  # not 2^-k
    with pytest.raises(ValueError):
        derive_sequences(build_schedule(1, 2), Fraction(1, 16), c1=Fraction(100))


def test_depth_unreachable_reports_max():
    with pytest.raises(DepthUnreachableError) as exc:
        derive_sequences(build_schedule(1, 12), C4)
    assert exc.value.max_depth >= 5
    assert exc.value.max_depth < 12
    # The reported depth is actually achievable.
    derive_sequences(build_schedule(1, exc.value.max_depth), C4)


def test_validation_json_is_a_verification_report():
    table = derive_sequences(build_schedule(1, 3), C4)
    blob = validate_sequences(table).to_json()
    assert list(blob) == ["title", "ok", "stats", "checks"]
    assert blob["title"] == "sequence constraints" and blob["ok"]
    for check in blob["checks"]:
        assert list(check) == ["name", "status", "margin", "bound", "detail"]
        assert check["status"] == PASS and check["bound"] is None
    # Margins are the exact slacks as floats, recomputable from the table.
    margins = {e["name"]: e["margin"] for e in blob["checks"]}
    assert margins["constant: c < 1/10"] == float(Fraction(1, 10) - C4)
    assert margins["height bound: Delta_3 <= c*delta_2^3"] == float(
        C4 * table.delta_(2) ** 3 - table.Delta_(3))
    assert margins["base: delta_1 == Delta_1 == 1"] is None


def test_family_count(strict_table):
    assert strict_table.family_count(1) == 17
    assert strict_table.family_count(2) == 257


def test_table_json_shape():
    table = derive_sequences(build_schedule(1, 3), C4)
    blob = table.to_json()
    assert blob["delta"][2] == {"num": 1, "log2_den": 50}
    assert blob["schedule"]["s_n"] == ["1/2", "2/3", "3/4"]
