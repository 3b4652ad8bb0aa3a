"""Verification report containers with a three-way verdict, and the ledger
of the construction's known first-level failures.

A numerical inequality is only declared to hold when its margin clears ten
times the accumulated arithmetic error; narrower margins are reported as
inconclusive rather than silently trusted, and so are margins and errors
that are not finite.  Margins and errors stay exact (Fractions or mpfs):
verdicts compare them exactly, `to_json_number` writes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath.libmp import fzero, from_int, mpf_cmp, mpf_mul, mpf_neg

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

#: Margin must exceed this multiple of the error bound to count as decided.
MARGIN_FACTOR = 10

# -- ledger: checks that fail by the construction's own geometry ---------------

#: Check names that fail faithfully at the first level (acceptance criterion
#: 3): the unit-width first level's child count equals the angle-step ratio.
EXPECTED_FAILURES = frozenset({"N_1 below the angle-step ratio"})

#: Measured ceiling of the minimal sufficient tube multiplier at the first
#: level (worst over a dense angle sweep was 28.1; the first level's unit
#: width inflates every constant by 1/c).
FIRST_LEVEL_C_CEILING = 32.0


def known_shortfall(level: int, C_min: float) -> bool:
    """Is a containment miss a known property of the construction rather
    than a defect of the run (acceptance criterion 6)?  Only first-level
    misses within `FIRST_LEVEL_C_CEILING` are."""
    return level == 1 and C_min <= FIRST_LEVEL_C_CEILING


def _finite(x) -> bool:
    """Is a margin or bound a finite number?  mpmath writes its special
    values (inf, -inf, nan) as a zero mantissa with a nonzero exponent."""
    if isinstance(x, mpmath.mpf):
        return bool(x._mpf_[1]) or x._mpf_ == fzero
    return not isinstance(x, float) or math.isfinite(x)


def exact(x) -> Fraction:
    """A finite margin or bound (Fraction, int, float or mpf) as an exact
    Fraction; an mpf's value is (-1)**sign * man * 2**exp, built by a shift.
    A value that is not finite is refused (ValueError)."""
    if not _finite(x):
        raise ValueError(f"{x} has no exact value")
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_
        man = -man if sign else man
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return Fraction(x)


def classify(margin, err_bound) -> str:
    """pass / fail / inconclusive for an inequality with the given slack,
    comparing the exact values; a margin or bound that is not finite decides
    nothing.  Two mpfs compare without Fractions: the gate
    MARGIN_FACTOR * err_bound is an exact product (`mpf_mul` with no
    precision), and `mpf_cmp` compares exactly."""
    if not (_finite(margin) and _finite(err_bound)):
        return INCONCLUSIVE
    if isinstance(margin, mpmath.mpf) and isinstance(err_bound, mpmath.mpf):
        gate = mpf_mul(err_bound._mpf_, from_int(MARGIN_FACTOR))
        if mpf_cmp(margin._mpf_, gate) >= 0:
            return PASS
        if mpf_cmp(margin._mpf_, mpf_neg(gate)) <= 0:
            return FAIL
        return INCONCLUSIVE
    margin, gate = exact(margin), MARGIN_FACTOR * exact(err_bound)
    if margin >= gate:
        return PASS
    if margin <= -gate:
        return FAIL
    return INCONCLUSIVE


def to_json_number(x):
    """JSON form of a margin, bound or statistic: a number when float64 holds
    it as a normal number (or it is 0), else a 17-significant-digit decimal
    string, so nothing underflows to 0 or overflows to inf.  A value that
    is not finite is written as the string "inf", "-inf" or "nan".  Ints,
    strings and None pass through; dicts convert value by value."""
    if isinstance(x, dict):
        return {k: to_json_number(v) for k, v in x.items()}
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if not _finite(x):
        return str(float(x))
    q = exact(x)
    if q == 0 or sys.float_info.min <= abs(q) <= sys.float_info.max:
        return float(q)
    with mpmath.workprec(80):
        return mpmath.nstr(mpmath.mpf(q.numerator) / q.denominator, 17,
                           strip_zeros=False)


@dataclass(frozen=True)
class CheckResult:
    """One verdict.  `margin` and `bound` stay exact (Fraction or mpf);
    `to_json` is the one place they are written."""

    name: str
    status: str
    margin: object = None
    bound: object = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": to_json_number(self.margin),
            "bound": to_json_number(self.bound),
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    title: str
    entries: list[CheckResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(e.status == PASS for e in self.entries)

    @property
    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if e.status == FAIL]

    def add(self, name: str, holds: bool, margin=None, detail: str = ""):
        """A check decided exactly; `margin` is its exact slack, if any."""
        self.entries.append(CheckResult(name, PASS if holds else FAIL, margin,
                                        None, detail))

    def add_inequality(self, name: str, margin, err_bound, detail: str = ""):
        self.entries.append(CheckResult(
            name, classify(margin, err_bound), margin, err_bound, detail))

    def add_equality(self, name: str, diff, err_bound, detail: str = ""):
        """Equality check: holds when the difference is within the tracked
        arithmetic error (there is no slack to demand a margin from)."""
        diff = abs(diff)
        if not (_finite(diff) and _finite(err_bound)):
            status = INCONCLUSIVE
        elif exact(diff) <= MARGIN_FACTOR * exact(err_bound):
            status = PASS
        else:
            status = FAIL
        self.entries.append(CheckResult(name, status, -diff, err_bound, detail))

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "stats": to_json_number(self.stats),
            "checks": [e.to_json() for e in self.entries],
        }
