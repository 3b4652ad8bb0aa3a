"""The one margin path: exact error bounds, exact verdicts, and the rule
by which `to_json_number` writes margins, bounds and statistics."""

import json
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from cantortubes.numerics import arith_error
from cantortubes.reports import (
    FAIL,
    INCONCLUSIVE,
    MARGIN_FACTOR,
    PASS,
    VerificationReport,
    classify,
    exact,
    to_json_number,
)

TINY = mpmath.ldexp(1, -3182)  # 64 * 2**-3188, strict depth 5's bound


def test_arith_error_is_exact_at_any_precision():
    # The float form read 0.0 past about 1,080 bits.
    assert arith_error(3188) == TINY
    assert arith_error(3188, scale=mpmath.ldexp(3, -1562), ops=8) == \
        mpmath.ldexp(24, -4750)


@pytest.mark.parametrize("margin, status", [
    (mpmath.ldexp(1, -1562), PASS),
    (-mpmath.ldexp(1, -1562), FAIL),
    (10 * TINY, PASS),                       # the gate itself decides
    (-10 * TINY, FAIL),
    (9 * TINY, INCONCLUSIVE),
    (Fraction(0), INCONCLUSIVE),
    (Fraction(1, 3), PASS),
])
def test_classify_compares_exact_values(margin, status):
    assert classify(margin, TINY) == status


def test_equality_within_ten_errors():
    rep = VerificationReport("equalities")
    with mpmath.workprec(4000):
        rep.add_equality("at the gate", -10 * TINY, TINY)
        rep.add_equality("one ulp past it", 10 * TINY + mpmath.ldexp(1, -3900),
                         TINY)
    assert [e.status for e in rep.entries] == [PASS, FAIL]
    assert rep.entries[0].margin == -10 * TINY   # kept exact, negated |diff|


@pytest.mark.parametrize("value, written", [
    (None, None),
    (16, 16),
    (2**1100, 2**1100),                  # ints are exact JSON numbers
    (Fraction(1, 3), 1 / 3),
    (mpmath.mpf(0), 0.0),
    (-mpmath.mpf("0.25"), -0.25),
    (Fraction(sys.float_info.min), sys.float_info.min),
    (mpmath.ldexp(1, -3188), "2.0719240103396546e-960"),
    (-mpmath.ldexp(1, -3188), "-2.0719240103396546e-960"),
    (Fraction(sys.float_info.min) / 2, "1.1125369292536007e-308"),
    (Fraction(2**1100, 3), "4.5276617634979528e+330"),
])
def test_json_number_rule(value, written):
    assert to_json_number(value) == written
    if isinstance(written, str):
        # 17 significant digits, and within a relative 1e-16 of the value.
        assert len(written.lstrip("-").split("e")[0].replace(".", "")) == 17
        with mpmath.workprec(200):
            exact = mpmath.mpf(value.numerator) / value.denominator \
                if isinstance(value, Fraction) else value
            assert abs(mpmath.mpf(written) / exact - 1) < 1e-16


def test_report_writes_exact_values_once():
    rep = VerificationReport("deep")
    margin = mpmath.ldexp(3, -1563)
    rep.add_inequality("deep inequality", margin, TINY)
    rep.add("exact", True, margin=Fraction(1, 2**1100))
    rep.stats = {"pairs": 30, "bound_y": Fraction(1, 2**1561), "N": {1: 16}}
    assert rep.entries[0].margin is margin and rep.entries[0].bound is TINY
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["ok"]
    deep, exact = blob["checks"]
    assert mpmath.mpf(deep["margin"]) != 0 and mpmath.mpf(deep["bound"]) != 0
    assert exact["bound"] is None and isinstance(exact["margin"], str)
    assert blob["stats"]["pairs"] == 30 and blob["stats"]["N"] == {"1": 16}
    assert isinstance(blob["stats"]["bound_y"], str)


def former_exact(x) -> Fraction:
    """The former conversion through a Fraction power."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp * (-1 if x < 0 else 1)


@settings(max_examples=300, deadline=None)
@given(sign=st.sampled_from([1, -1]), man=st.integers(0, 2**4000),
       exp=st.one_of(st.integers(-5000, 5000), st.sampled_from([0, -1, 1])))
@example(sign=-1, man=0, exp=-5000)
@example(sign=-1, man=2**4000 - 1, exp=5000)
@example(sign=1, man=3, exp=-5000)
def test_exact_by_shift_equals_the_fraction_power(sign, man, exp):
    # Zero, both signs, wide mantissas and exponents far either side.
    with mpmath.workprec(4100):
        x = mpmath.ldexp(mpmath.mpf(sign * man), exp)
    assert exact(x) == former_exact(x)
    assert exact(x) == sign * man * Fraction(2) ** exp


NAN, INF = mpmath.mpf("nan"), mpmath.mpf("inf")


@pytest.mark.parametrize("margin, err", [
    (mpmath.mpf(1), NAN),        # read as a zero error, it passed
    (mpmath.mpf(-1), INF),       # read as a zero error, it failed
    (INF, TINY), (-INF, TINY), (NAN, TINY), (NAN, NAN),
    (Fraction(1), NAN), (16, INF),
    (float("nan"), 1.0),         # a raw ValueError before
    (1.0, float("inf")), (float("-inf"), TINY),
])
def test_non_finite_margins_decide_nothing(margin, err):
    assert classify(margin, err) == INCONCLUSIVE
    rep = VerificationReport("special values")
    rep.add_equality("not finite", margin, err)
    assert rep.entries[0].status == INCONCLUSIVE


@pytest.mark.parametrize("value", [INF, -INF, NAN, float("inf"), float("nan")])
def test_exact_refuses_non_finite_values(value):
    # mpmath keeps inf and nan as a zero mantissa: they read as 0 before.
    with pytest.raises(ValueError, match="no exact value"):
        exact(value)


@pytest.mark.parametrize("value, written", [
    (INF, "inf"), (-INF, "-inf"), (NAN, "nan"),
    (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
])
def test_non_finite_values_are_written_as_strings(value, written):
    assert to_json_number(value) == written
    assert json.loads(json.dumps(to_json_number({"margin": value}))) == \
        {"margin": written}


def fraction_classify(margin, err) -> str:
    """The comparison through exact Fractions: the oracle for the mpf
    gate."""
    margin, gate = exact(margin), MARGIN_FACTOR * exact(err)
    if margin >= gate:
        return PASS
    return FAIL if margin <= -gate else INCONCLUSIVE


def wide_mpf(sign, man, exp):
    with mpmath.workprec(300):
        return mpmath.ldexp(mpmath.mpf(sign * man), exp)


wide_mpfs = st.builds(wide_mpf, st.sampled_from([1, -1]),
                      st.one_of(st.integers(0, 2**256), st.sampled_from([0, 1])),
                      st.integers(-5000, 5000))


@settings(max_examples=400, deadline=None)
@given(margin=wide_mpfs, err=wide_mpfs,
       tie=st.sampled_from([None, None, 1, -1]),
       nudge=st.sampled_from([0, 1, -1]))
@example(margin=mpmath.mpf(0), err=mpmath.mpf(0), tie=None, nudge=0)
@example(margin=mpmath.mpf(0), err=TINY, tie=None, nudge=0)
@example(margin=TINY, err=mpmath.mpf(0), tie=None, nudge=0)
@example(margin=TINY, err=TINY, tie=1, nudge=-1)
@example(margin=TINY, err=TINY, tie=-1, nudge=1)
@example(margin=TINY, err=-TINY, tie=1, nudge=0)
def test_mpf_gate_equals_the_fraction_comparison(margin, err, tie, nudge):
    # Zero, both signs, exponents to +-5,000, and exact ties at
    # +-MARGIN_FACTOR*err, also moved by one unit in their last place.
    if tie is not None:
        margin = mpmath.fmul(tie * MARGIN_FACTOR, err, exact=True)
        if nudge and margin:
            sign, man, exp, _ = margin._mpf_
            with mpmath.workprec(600):
                margin = mpmath.ldexp(
                    mpmath.mpf((-man if sign else man) * 2**4 + nudge), exp - 4)
        assert (exact(margin) == tie * MARGIN_FACTOR * exact(err)) == \
            (not nudge or not margin)
    assert classify(margin, err) == fraction_classify(margin, err)
