"""Exact arithmetic helpers for dyadic rationals.

Every scale parameter in the construction is kept as a `fractions.Fraction`
whose denominator is a power of two, so ordering, integrality and slack
computations are exact integer comparisons.
"""

from __future__ import annotations

from fractions import Fraction


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


def largest_pow2_leq(x: Fraction) -> Fraction:
    """Largest power of two <= x (x > 0)."""
    return pow2(floor_log2(x))


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


def dyadic_from_json(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), 1 << int(obj["log2_den"]))


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


def parse_rational(text) -> Fraction:
    """Parse "2^-4", "3/4", "0.25" or plain integers into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, dict):
        return dyadic_from_json(text)
    s = str(text).strip()
    if "^" in s:
        base, _, exp = s.partition("^")
        b = int(base)
        e = int(exp)
        if b != 2:
            raise ValueError(f"only base-2 powers supported, got {s!r}")
        return pow2(e)
    return Fraction(s)
