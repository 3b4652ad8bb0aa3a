"""Exact arithmetic helpers for dyadic rationals.

Every scale parameter in the construction is kept as a `fractions.Fraction`
whose denominator is a power of two, so ordering, integrality and slack
computations are exact integer comparisons.
"""

from __future__ import annotations

from fractions import Fraction

#: Exponents larger than this make downstream extended-precision work
#: impractically slow; the sequence derivation refuses to cross it, and a
#: parsed power of two or decimal exponent must stay within it.
MAX_EXPONENT = 200_000


def is_dyadic(x: Fraction) -> bool:
    """True if x has a power-of-two denominator (2**0 = 1 included)."""
    d = Fraction(x).denominator
    return d & (d - 1) == 0


def is_pow2_reciprocal(x: Fraction) -> bool:
    """True if x == 2**-k for some integer k >= 0."""
    x = Fraction(x)
    return x.numerator == 1 and is_dyadic(x)


def floor_log2(x: Fraction) -> int:
    """Largest integer e with 2**e <= x, exact for any positive rational."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("floor_log2 requires x > 0")
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    # x lies in [2**(e-1), 2**(e+1)); decide between e-1 and e.
    if e >= 0:
        if n < (d << e):
            e -= 1
    else:
        if (n << (-e)) < d:
            e -= 1
    return e


def pow2(e: int) -> Fraction:
    """2**e as an exact Fraction, e may be negative."""
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << (-e))


def ceil_frac(x: Fraction) -> int:
    """Exact ceiling of a rational."""
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def floor_frac(x: Fraction) -> int:
    """Exact floor of a rational."""
    x = Fraction(x)
    return x.numerator // x.denominator


def dyadic_to_json(x: Fraction) -> dict:
    """Serialize a dyadic rational as {"num": int, "log2_den": int}."""
    x = Fraction(x)
    if not is_dyadic(x):
        raise ValueError(f"{x} is not dyadic")
    return {"num": x.numerator, "log2_den": x.denominator.bit_length() - 1}


def _exponent(e) -> int:
    """A parsed power-of-two or decimal exponent, refused beyond
    `MAX_EXPONENT` before anything is shifted or raised by it."""
    e = int(e)
    if abs(e) > MAX_EXPONENT:
        raise ValueError(f"exponent {e} exceeds the bound {MAX_EXPONENT}")
    return e


def dyadic_from_json(obj: dict) -> Fraction:
    if not {"num", "log2_den"} <= obj.keys():
        raise ValueError(f"a dyadic needs keys 'num' and 'log2_den', got {obj}")
    return Fraction(int(obj["num"]), 1 << _exponent(obj["log2_den"]))


def short_repr(x: Fraction) -> str:
    """Compact text for possibly huge rationals: exact powers of two render
    as 2^k, anything with big numerator/denominator as a 2^e approximation."""
    x = Fraction(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    mag = abs(x)
    if mag.numerator == 1 and is_dyadic(mag):
        return f"{sign}2^{-(mag.denominator.bit_length() - 1)}"
    if mag.denominator == 1 and mag.numerator & (mag.numerator - 1) == 0:
        return f"{sign}2^{mag.numerator.bit_length() - 1}"
    if mag.numerator.bit_length() < 64 and mag.denominator.bit_length() < 64:
        return str(x)
    return f"{sign}~2^{floor_log2(mag)}"


def exact_str(x) -> str:
    """str(x) of a rational wherever Python writes it, within its limit on
    the decimal digits of an int (`sys.get_int_max_str_digits()`, 4,300 by
    default).  Past that limit a reciprocal power of two, as every width and
    angle step of a table is, is written exactly as 2^-k, the form
    `parse_rational` reads; any other rational still raises ValueError."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        if not is_pow2_reciprocal(x):
            raise
    return short_repr(x)


def parse_rational(text) -> Fraction:
    """Parse "2^-4", "3/4", "0.25", "1e-3" or plain integers into a
    Fraction; a malformed value (a zero denominator, a missing key, a power
    of two or decimal exponent past `MAX_EXPONENT`) is a ValueError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, dict):
        return dyadic_from_json(text)
    s = str(text).strip()
    if "^" in s:
        base, _, exp = s.partition("^")
        if int(base) != 2:
            raise ValueError(f"only base-2 powers supported, got {s!r}")
        return pow2(_exponent(exp))
    _, e, exp = s.lower().partition("e")
    if e and exp.lstrip("+-").replace("_", "").isdecimal():
        _exponent(exp)  # before Fraction computes 10**abs(exp)
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
