"""Extended-precision helpers shared by the geometric modules.

All transcendental work runs under one mpmath working precision per
construction, derived from its table alone (`default_precision`); the
conventions here keep conversions from exact rationals loss-free (dyadic
inputs convert exactly at any precision) and provide a uniform, conservative
model for accumulated arithmetic error.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp

from .dyadic import floor_log2


def default_precision(table) -> int:
    """Working precision in bits for a sequence table of depth D:
    bits(theta_D) + max over the arcs n of bits(2/(c*delta_n)) + 64, with
    bits(x) = ceil(log2(x)).

    theta_D is the finest angle step.  Every orbit step of arc n rotates
    about its centre c_n, so it rounds relative to |c_n|, the radius (the
    circle passes through the origin): chord/(2*sin(t/2)) for the chord to
    the height line Delta_{n+1}, which subtends t = theta_{n+1} =
    c*Delta_{n+1}*delta_n.  The arc bends clockwise from the origin to
    (delta_n, Delta_n), so that chord is at least as steep as
    Delta_n/delta_n >= 1 and at most sqrt(2)*Delta_{n+1} long; with
    2*sin(t/2) > t/sqrt(2), |c_n| < 2/(c*delta_n).  64 bits guard the rest.
    """
    centres = (-floor_log2(table.c * table.delta_(n) / 2)
               for n in range(1, table.depth))
    return (-floor_log2(table.theta_(table.depth)) + max(centres, default=0)
            + 64)


def frac_to_mpf(x: Fraction):
    """Fraction -> mpf at the current working precision.

    Exact whenever numerator and denominator fit the precision; all dyadic
    table entries are powers of two times small integers, hence exact.  A
    denominator 2**k, whose conversion costs mpmath time quadratic in k, is
    applied by ldexp instead: the same value."""
    x = Fraction(x)
    if x.denominator & (x.denominator - 1):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.ldexp(mpmath.mpf(x.numerator), 1 - x.denominator.bit_length())


def arith_error(prec: int, scale=1, ops: int = 64):
    """Conservative absolute error bound for a value of magnitude ~scale
    computed with ~ops rounded operations at `prec` bits: ops*scale*2**-prec
    as an exact mpf, which no float cast can round to 0."""
    return mpmath.ldexp(mpmath.fmul(ops, scale, exact=True), -prec)


def workprec(prec: int):
    """Context manager setting the mpmath working precision."""
    return mp.workprec(prec)
