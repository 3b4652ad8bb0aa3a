"""Exception types shared across the package."""

from __future__ import annotations


class CantorTubesError(Exception):
    """Base class for all package errors; `exit_code` is the CLI exit code:
    2 for a construction that cannot be built, 3 for a resource cap, else 1."""
    exit_code = 1


class DepthUnreachableError(CantorTubesError):
    """Sequence exponents exceed the representable range before the
    requested depth; carries the deepest achievable level."""
    exit_code = 2

    def __init__(self, requested: int, max_depth: int):
        self.requested = requested
        self.max_depth = max_depth
        super().__init__(
            f"depth unreachable: requested {requested}, "
            f"max achievable depth is {max_depth}"
        )


class FeasibilityError(CantorTubesError):
    """Requested sub-arc angle violates the geometric feasibility bound."""
    exit_code = 2


class BracketError(CantorTubesError):
    """A solved circle does not reach the next height line."""
    exit_code = 2


class ConstructionError(CantorTubesError):
    """A rectangle-hierarchy invariant failed during construction."""


class PopulationCapError(CantorTubesError):
    """Materializing a level would exceed the configured rectangle cap;
    levels past `Construction.materializable_depth()` are reached lazily."""
    exit_code = 3

    def __init__(self, level: int, population: int, cap: int):
        self.level = level
        self.population = population
        self.cap = cap
        super().__init__(
            f"level {level} population {population} exceeds cap {cap}; "
            "use lazy evaluation by index path instead"
        )


class GridTooLargeError(CantorTubesError):
    """Raster frame has more cells than the cap on raster work; advise a
    coarser resolution."""
    exit_code = 3


class RenderCapError(CantorTubesError):
    """Too many primitives for a direct render; advise sampling."""
    exit_code = 3


class OffGridError(CantorTubesError):
    """Angle is not a multiple of any available grid step; use the
    limit evaluation instead."""
    exit_code = 2
