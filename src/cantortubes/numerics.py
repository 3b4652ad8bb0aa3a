"""Extended-precision helpers shared by the geometric modules.

All transcendental work runs under an explicit mpmath working precision; the
conventions here keep conversions from exact rationals loss-free (dyadic
inputs convert exactly at any precision) and provide a uniform, conservative
model for accumulated arithmetic error.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp


def default_precision(table) -> int:
    """Working precision in bits for a sequence table: twice the bits of the
    finest angle step plus guard bits, floored at 128."""
    return max(128, 2 * table.min_scale_bits() + 64)


def frac_to_mpf(x: Fraction):
    """Fraction -> mpf at the current working precision.

    Exact whenever numerator and denominator fit the precision; all dyadic
    table entries are powers of two times small integers, hence exact.
    """
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def arith_error(prec: int, scale=1, ops: int = 64):
    """Conservative absolute error bound for a value of magnitude ~scale
    computed with ~ops rounded operations at `prec` bits: ops*scale*2**-prec
    as an exact mpf, which no float cast can round to 0."""
    return mpmath.ldexp(mpmath.fmul(ops, scale, exact=True), -prec)


def workprec(prec: int):
    """Context manager setting the mpmath working precision."""
    return mp.workprec(prec)
