from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantortubes.dyadic import (
    MAX_EXPONENT,
    ceil_frac,
    dyadic_from_json,
    dyadic_to_json,
    exact_str,
    floor_frac,
    floor_log2,
    is_dyadic,
    is_pow2_reciprocal,
    parse_rational,
    pow2,
)

rationals = st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**9))


@given(rationals)
def test_floor_log2_defining_property(x):
    e = floor_log2(x)
    assert pow2(e) <= x < pow2(e + 1)


def test_floor_log2_exact_powers():
    for e in (-80, -5, -1, 0, 1, 7, 60):
        assert floor_log2(pow2(e)) == e


def test_floor_log2_rejects_nonpositive():
    with pytest.raises(ValueError):
        floor_log2(Fraction(0))


@given(st.fractions())
def test_ceil_floor(x):
    assert floor_frac(x) <= x <= ceil_frac(x)
    assert ceil_frac(x) - floor_frac(x) in (0, 1)


def test_is_dyadic():
    assert is_dyadic(Fraction(3, 8))
    assert is_dyadic(Fraction(5))
    assert not is_dyadic(Fraction(1, 3))
    assert not is_dyadic(Fraction(7, 12))


def test_json_roundtrip():
    for x in (Fraction(1, 16), Fraction(-3, 4), Fraction(5), Fraction(0)):
        assert dyadic_from_json(dyadic_to_json(x)) == x
    with pytest.raises(ValueError):
        dyadic_to_json(Fraction(1, 3))


def test_parse_rational():
    assert parse_rational("2^-4") == Fraction(1, 16)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("1e-3") == Fraction(1, 1000)
    assert parse_rational("2.5E+2") == Fraction(250)
    assert parse_rational(2) == Fraction(2)
    assert parse_rational({"num": 1, "log2_den": 5}) == Fraction(1, 32)
    with pytest.raises(ValueError):
        parse_rational("3^-2")
    assert parse_rational(f"2^-{MAX_EXPONENT}") == pow2(-MAX_EXPONENT)
    assert parse_rational(f"1e-{MAX_EXPONENT}") \
        == Fraction(1, 10**MAX_EXPONENT)
    # Malformed values are ValueErrors, never a raw arithmetic or key error;
    # an exponent past the bound is refused before anything is shifted or
    # raised to it (Fraction would compute 10**999999999).
    for bad in ("1/0", "-3/0", {"num": 1}, {"log2_den": 4},
                {"num": 1, "log2_den": MAX_EXPONENT + 1},
                f"2^{MAX_EXPONENT + 1}", f"2^-{MAX_EXPONENT + 1}",
                "2^99999999999999999999", "2^-99999999999999999999",
                f"1e{MAX_EXPONENT + 1}", "1e-999999999", "1E999999999",
                "1e-1_000_000_000", "1ex"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(max_denominator=10**6))
def test_exact_str_is_str_within_the_digit_limit(x):
    assert exact_str(x) == str(x)


def test_exact_str_past_the_digit_limit():
    # str() raises here: the denominator has 30,005 decimal digits, past
    # the 4,300 that Python converts.
    x = pow2(-99_674)
    with pytest.raises(ValueError):
        str(x)
    assert exact_str(x) == "2^-99674"
    assert parse_rational(exact_str(x)) == x
    with pytest.raises(ValueError):
        exact_str(3 * x)
