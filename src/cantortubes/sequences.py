"""Derivation and validation of the scale sequences driving the construction.

Three interlocked sequences are produced in exact dyadic-rational arithmetic:

* ``Delta``  -- per-level rectangle heights (powers of two),
* ``delta``  -- per-level rectangle widths (powers of two times ``c``),
* ``theta``  -- per-level rotation steps, ``theta[n+1] = c * Delta[n+1] * delta[n]``.

The widths follow a per-level exponent schedule ``s_n`` targeting a chosen
box-dimension ``s`` of the horizontal projection.  All rounding is downward
onto the dyadic grid, which preserves every one-sided constraint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (
    MAX_EXPONENT,
    ceil_frac,
    dyadic_to_json,
    floor_frac,
    floor_log2,
    is_dyadic,
    is_pow2_reciprocal,
    pow2,
    short_repr,
)
from .errors import DepthUnreachableError
from .reports import VerificationReport

PROFILES = ("strict", "demo")

#: c1 of every derived table: spacing increments stay within c1*theta.
C1 = Fraction(2)


@dataclass(frozen=True)
class DimensionSchedule:
    """Target dimension s in [0,1] and the per-level exponents s_1..s_N."""

    s: Fraction
    s_n: tuple[Fraction, ...]

    @property
    def depth(self) -> int:
        return len(self.s_n)

    def exponent(self, n: int) -> Fraction:
        """s_n, 1-based."""
        return self.s_n[n - 1]

    def to_json(self) -> dict:
        return {"s": str(self.s), "s_n": [str(x) for x in self.s_n]}


def check_parameters(s=1, c=Fraction(1, 16), profile: str = "strict") -> None:
    """Refuse (ValueError) an s, c or profile the derivation cannot use;
    `build_schedule`, `derive_sequences` and `RunConfig` all run it.  A c it
    accepts is at most 1/16, so C1's constraints hold: c*(1 + 12c) <= 0.11
    and 6c <= 0.375 (`validate_sequences`)."""
    s, c = Fraction(s), Fraction(c)
    if not 0 <= s <= 1:
        raise ValueError(f"target dimension must lie in [0, 1], got {s}")
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    if not 0 < c < Fraction(1, 10):
        raise ValueError(f"c must lie in (0, 1/10), got {c}")
    if not is_pow2_reciprocal(c):
        # A general dyadic c breaks the integrality of theta_2/theta_3 and of
        # the level-2 grid ratio: the odd part of 1/c never cancels.
        raise ValueError(f"c must be a reciprocal power of two, got {c}")


def p2_exponent(profile: str, n: int) -> int:
    """Exponent e of the height recursion Delta_{n+1} <= c*delta_n**e."""
    return n + 1 if profile == "strict" else 2


def build_schedule(s, depth: int) -> DimensionSchedule:
    """Per-level width exponents: s_n = 1/n when s == 0, else s*n/(n+1)."""
    s = Fraction(s)
    check_parameters(s=s)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if s == 0:
        exps = tuple(Fraction(1, n) for n in range(1, depth + 1))
    else:
        exps = tuple(s * n / (n + 1) for n in range(1, depth + 1))
    return DimensionSchedule(s=s, s_n=exps)


@dataclass(frozen=True)
class SequenceTable:
    """Validated scale sequences plus the constants used by every check.

    Entries are 1-based through the ``delta_``/``Delta_``/``theta_``
    accessors; the underlying tuples are 0-based.
    """

    c: Fraction
    depth: int
    delta: tuple[Fraction, ...]
    Delta: tuple[Fraction, ...]
    theta: tuple[Fraction, ...]
    c1: Fraction
    C_tube: Fraction
    profile: str
    schedule: DimensionSchedule

    @property
    def c2(self) -> Fraction:
        return 4 * self.c * (self.c1 + 1)

    def check_level(self, n: int) -> int:
        """n itself, refused (ValueError) outside 1..depth."""
        if not 1 <= n <= self.depth:
            raise ValueError(f"level {n} outside table depth {self.depth}")
        return n

    def delta_(self, n: int) -> Fraction:
        """Width delta_n, 1-based; delta_0 := 1 by convention (used by the
        n = 1 instance of the child-count sandwich)."""
        if n == 0:
            return Fraction(1)
        return self.delta[self.check_level(n) - 1]

    def Delta_(self, n: int) -> Fraction:
        return self.Delta[self.check_level(n) - 1]

    def theta_(self, n: int) -> Fraction:
        return self.theta[self.check_level(n) - 1]

    def count_sandwich(self, n: int) -> tuple:
        """Exact (lo, hi) around the per-parent child count at level n:
        Delta_n/Delta_{n+1} * (1 -/+ c2*delta_{n-1}), for n in 1..depth-1."""
        ratio = self.Delta_(n) / self.Delta_(n + 1)
        slack = self.c2 * self.delta_(n - 1)
        return ratio * (1 - slack), ratio * (1 + slack)

    def family_count(self, n: int) -> int:
        """Tube families in the level-n stage: angle indices
        0..floor(1/theta_n)."""
        return floor_frac(1 / self.theta_(n)) + 1

    def min_scale_bits(self) -> int:
        """Bits needed to resolve the finest scale in the table."""
        return -floor_log2(self.theta[-1])

    def to_json(self) -> dict:
        return {
            "profile": self.profile,
            "depth": self.depth,
            "c": dyadic_to_json(self.c),
            "c1": str(self.c1),
            "c2": str(self.c2),
            "C_tube": str(self.C_tube),
            "schedule": self.schedule.to_json(),
            "delta": [dyadic_to_json(x) for x in self.delta],
            "Delta": [dyadic_to_json(x) for x in self.Delta],
            "theta": [dyadic_to_json(x) for x in self.theta],
        }


def derive_sequences(
    schedule: DimensionSchedule,
    c,
    profile: str = "strict",
    C_tube=Fraction(16),
) -> SequenceTable:
    """Greedily derive the largest dyadic sequences satisfying every bound.

    Heights: Delta_{n+1} is the largest power of two <= c*delta_n**e with
    e = n+1 (strict) or e = 2 (demo).  Widths: delta_{n+1} is the largest
    power of two times c satisfying both delta_{n+1} <= c*Delta_{n+1}**(1/s_{n+1})
    and delta_{n+1} <= c*Delta_{n+1}*delta_n.  The demo profile trades the
    theorem's constants for shallow growth so deeper levels stay tractable;
    structural and spacing properties are unaffected.

    Raises DepthUnreachableError when an exponent would exceed
    ``MAX_EXPONENT`` bits, reporting the deepest achievable level.
    """
    c = Fraction(c)
    check_parameters(c=c, profile=profile)

    depth = schedule.depth
    one = Fraction(1)
    delta = [one]
    Delta = [one]
    theta = [c]

    for n in range(1, depth):
        # Height: largest power of two below the profile bound.
        bound = c * delta[n - 1] ** p2_exponent(profile, n)
        a = -floor_log2(bound)
        if a > MAX_EXPONENT:
            raise DepthUnreachableError(requested=depth, max_depth=n)
        Delta_next = pow2(-a)
        theta_next = c * Delta_next * delta[n - 1]

        # Width: delta_{n+1} = c * 2**-m, m = max of the two requirements.
        inv_s = 1 / schedule.exponent(n + 1)
        m_schedule = ceil_frac(a * inv_s)  # c*2**-m <= c*(2**-a)**(1/s)
        m_product = -floor_log2(Delta_next * delta[n - 1])  # (P3) bound
        m = max(m_schedule, m_product, 0)
        if m > MAX_EXPONENT:
            raise DepthUnreachableError(requested=depth, max_depth=n)
        delta_next = c * pow2(-m)

        delta.append(delta_next)
        Delta.append(Delta_next)
        theta.append(theta_next)

    table = SequenceTable(
        c=c,
        depth=depth,
        delta=tuple(delta),
        Delta=tuple(Delta),
        theta=tuple(theta),
        c1=C1,
        C_tube=Fraction(C_tube),
        profile=profile,
        schedule=schedule,
    )
    report = validate_sequences(table)
    if not report.ok:
        raise AssertionError(
            "derived table failed its own validation: "
            + "; ".join(e.name for e in report.failures)
        )
    return table


def validate_sequences(table: SequenceTable) -> VerificationReport:
    """Check every table constraint exactly.

    Each verdict is an exact rational comparison, so none is inconclusive;
    an inequality's margin is its exact slack (negative when the constraint
    fails), written as `reports.to_json_number` writes every margin.  The
    report never raises.
    """
    r = VerificationReport("sequence constraints")
    add = r.add

    c, c1, c2 = table.c, table.c1, table.c2
    d, D, t = table.delta, table.Delta, table.theta
    N = table.depth

    add("base: delta_1 == Delta_1 == 1", d[0] == 1 and D[0] == 1)
    add("base: theta_1 == c", t[0] == c, margin=t[0] - c)
    add("constant: c < 1/10", c < Fraction(1, 10), margin=Fraction(1, 10) - c)
    add("constant: c*(1+4c(c1+1)) < 1", c * (1 + c2) < 1, margin=1 - c * (1 + c2))
    add("constant: 3*c*c1 < 1/2", 3 * c * c1 < Fraction(1, 2),
        margin=Fraction(1, 2) - 3 * c * c1)
    add("constant: c1 >= sqrt(2)", c1 * c1 >= 2, margin=c1 * c1 - 2,
        detail="compared as c1^2 >= 2")

    for x, name in ((d, "delta"), (D, "Delta"), (t, "theta")):
        add(f"dyadic closure: all {name} entries dyadic",
            all(is_dyadic(v) for v in x))
        add(f"monotone: {name} strictly decreasing",
            all(x[i] > x[i + 1] for i in range(len(x) - 1)) or len(x) == 1)

    for n in range(1, N):  # constraints linking level n to n+1 (1-based n)
        e = p2_exponent(table.profile, n)
        tag = "" if table.profile == "strict" else " [demo exponent 2]"
        add(f"height bound{tag}: Delta_{n+1} <= c*delta_{n}^{e}",
            D[n] <= c * d[n - 1] ** e, margin=c * d[n - 1] ** e - D[n])
        add(f"width bound: delta_{n+1} <= c*Delta_{n+1}*delta_{n}",
            d[n] <= c * D[n] * d[n - 1], margin=c * D[n] * d[n - 1] - d[n])
        add(f"angle def: theta_{n+1} == c*Delta_{n+1}*delta_{n}",
            t[n] == c * D[n] * d[n - 1], margin=t[n] - c * D[n] * d[n - 1])
        ratio = t[n - 1] / t[n]
        add(f"angle integrality: theta_{n}/theta_{n+1} in N",
            ratio.denominator == 1, detail=f"ratio = {short_repr(ratio)}")
        if ratio.denominator == 1:
            add(f"angle integrality: theta_{n}/theta_{n+1} power of two",
                is_pow2_reciprocal(1 / ratio), detail=f"ratio = {short_repr(ratio)}")

    if N >= 2:
        add("grid integrality: 1/Delta_2 in N", (1 / D[1]).denominator == 1,
            detail=f"1/Delta_2 = {short_repr(1 / D[1])}")
    for n in range(2, N):  # 1-based n >= 2: ratio at level n+1
        ratio = (D[n - 1] * d[n - 2]) / (D[n] * d[n - 1])
        add(f"grid integrality: Delta_{n}*delta_{n-1}/(Delta_{n+1}*delta_{n}) in N",
            ratio.denominator == 1, detail=f"ratio = {short_repr(ratio)}")

    narrow = [d[i] / D[i] for i in range(N)]
    add("narrowing: delta_n/Delta_n strictly decreasing",
        all(narrow[i] > narrow[i + 1] for i in range(N - 1)) or N == 1)

    return r
