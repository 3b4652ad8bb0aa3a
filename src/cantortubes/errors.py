"""Exception types shared across the package."""

from __future__ import annotations


class CantorTubesError(Exception):
    """Base class for all package errors."""


class DepthUnreachableError(CantorTubesError):
    """Sequence exponents exceed the representable range before the
    requested depth; carries the deepest achievable level."""

    def __init__(self, requested: int, max_depth: int):
        self.requested = requested
        self.max_depth = max_depth
        super().__init__(
            f"depth unreachable: requested {requested}, "
            f"max achievable depth is {max_depth}"
        )


class FeasibilityError(CantorTubesError):
    """Requested sub-arc angle violates the geometric feasibility bound."""


class BracketError(CantorTubesError):
    """A solved circle does not reach the next height line."""


class ConstructionError(CantorTubesError):
    """A rectangle-hierarchy invariant failed during construction."""


class PopulationCapError(CantorTubesError):
    """Materializing a level would exceed the configured rectangle cap;
    levels past `Construction.materializable_depth()` are reached lazily."""

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


class RenderCapError(CantorTubesError):
    """Too many primitives for a direct render; advise sampling."""


class OffGridError(CantorTubesError):
    """Angle is not a multiple of any available grid step; use the
    limit evaluation instead."""
