"""Verification report containers with a three-way verdict, and the ledger
of the construction's known first-level failures.

A numerical inequality is only declared to hold when its margin clears ten
times the accumulated arithmetic error; narrower margins are reported as
inconclusive rather than silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

#: Margin must exceed this multiple of the error bound to count as decided.
MARGIN_FACTOR = 10.0

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


def classify(margin: float, err_bound: float) -> str:
    """pass / fail / inconclusive for an inequality with the given slack."""
    gate = MARGIN_FACTOR * err_bound
    if margin >= gate:
        return PASS
    if margin <= -gate:
        return FAIL
    return INCONCLUSIVE


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    margin: float | None = None
    bound: float | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "bound": self.bound,
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

    @property
    def inconclusive(self) -> list[CheckResult]:
        return [e for e in self.entries if e.status == INCONCLUSIVE]

    def add(self, name: str, status: str, margin=None, bound=None, detail: str = ""):
        self.entries.append(CheckResult(
            name, status,
            None if margin is None else float(margin),
            None if bound is None else float(bound),
            detail,
        ))

    def add_inequality(self, name: str, margin: float, err_bound: float,
                       detail: str = ""):
        self.entries.append(CheckResult(
            name, classify(float(margin), err_bound), float(margin),
            err_bound, detail,
        ))

    def add_equality(self, name: str, diff: float, err_bound: float,
                     detail: str = ""):
        """Equality check: holds when the difference is within the tracked
        arithmetic error (there is no slack to demand a margin from)."""
        diff = abs(float(diff))
        status = PASS if diff <= MARGIN_FACTOR * err_bound else FAIL
        self.entries.append(CheckResult(name, status, -diff, err_bound, detail))

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "stats": self.stats,
            "checks": [e.to_json() for e in self.entries],
        }
