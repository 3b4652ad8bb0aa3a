"""Quantitative measurements: telescoped projection lengths, rasterized areas
of tube unions, covering-sum bookkeeping, and box-counting slopes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import exact_str
from .hierarchy import Construction
from .numerics import workprec
from .raster import RasterResult, rasterize


# -- projections ----------------------------------------------------------------

def projection_lengths(cons: Construction, n: int) -> tuple:
    """(len_y, len_x) of level n <= `cons.counted_depth()`, unbuilt.  Siblings
    share y-endpoints and cousins are disjoint (`verify_level_invariants`),
    so len_y telescopes to one span per parent a_p, to its (N + 1)-th child
    anchor, taken in the local frame as (a_p - c)*expm1_turn(N) about the
    arc centre c; disjoint x-projections give count * width."""
    if n == 1:
        return 1.0, 1.0
    sol = cons.sol(n - 1)
    with workprec(cons.prec):
        c, step = sol.center_c, sol.expm1_turn(cons.N(n - 1))
        len_y = sum(((p.anchor - c) * step).imag for p in cons.level(n - 1).rects)
        return len_y, cons.population(n) * cons.table.delta_(n)


# -- rasterized areas ----------------------------------------------------------

@dataclass(frozen=True)
class AreaEstimate:
    """Bracketed area: lower/upper come from certainly-inside and possibly-
    touched cell counts; value counts cell centers."""

    value: float
    lower: float
    upper: float
    resolution: float
    cells_on: int
    error_bound: float

    @classmethod
    def from_raster(cls, grid: RasterResult) -> "AreaEstimate":
        full, center, touched = grid.counts()
        a = grid.cell_area
        value = center * a
        return cls(value=value, lower=full * a, upper=touched * a,
                   resolution=grid.cell, cells_on=center,
                   error_bound=max(value - full * a, touched * a - value))

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def neighborhood_area(families, radius, resolution) -> AreaEstimate:
    """Rasterized area of the radius-neighborhood of a tube-family union
    (each rotated box inflated by the radius in its own frame)."""
    radius = float(radius)
    resolution = float(resolution)
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    if radius > 0 and resolution > radius / 4:
        raise ValueError(
            f"resolution {resolution} too coarse for radius {radius}; "
            "need resolution <= radius/4")
    return AreaEstimate.from_raster(
        rasterize(families, resolution, inflate=radius))


def pairwise_overlap_loss(fam_a, fam_b, resolution) -> AreaEstimate:
    """Rasterized area of the set difference (union A) minus (union B) for
    two families of the same level at nearby angles, on A's frame."""
    return AreaEstimate.from_raster(
        rasterize([fam_a], resolution, minus=[fam_b]))


# -- dimension bookkeeping -------------------------------------------------------

@dataclass(frozen=True)
class DimensionEstimate:
    """Log-log slope of exact per-level counts against inverse widths, with
    the per-level covering sums that certify boundedness."""

    levels: tuple
    scales: tuple          # ((delta_p, count_p), ...) exact values
    covering_sums: tuple   # delta_p^{s_p} * count_p per level, floats
    slope: float | None
    target: float
    residual: float | None

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels),
            "scales": [{"delta": exact_str(d), "count": c}
                       for d, c in self.scales],
            "covering_sums": list(self.covering_sums),
            "slope": self.slope,
            "target": self.target,
            "residual": self.residual,
        }


def covering_sum(table, p: int, count: int) -> float:
    """delta_p^{s_p} * count, evaluated in log space (widths get tiny)."""
    s_p = table.schedule.exponent(p)
    log_delta = math.log(table.delta_(p).numerator) - \
        math.log(table.delta_(p).denominator)
    return math.exp(float(s_p) * log_delta + math.log(count))


def box_dimension_x_projection(cons: Construction,
                               max_level: int) -> DimensionEstimate:
    """Box-counting view of the horizontal projection: level p covers it
    with count_p intervals of length delta_p, so the fitted log-log slope
    estimates the projection dimension (per-level exponents converge to the
    schedule target only slowly; level 1 is the degenerate unit square and
    is excluded from the fit)."""
    table = cons.table
    levels = tuple(range(1, max_level + 1))
    scales = tuple((table.delta_(p), cons.population(p)) for p in levels)
    sums = tuple(covering_sum(table, p, c) for p, (_, c) in zip(levels, scales))

    pts = [(p, d, c) for p, (d, c) in zip(levels, scales) if p >= 2]
    slope = residual = None
    if len(pts) >= 2:
        xs = np.array([math.log(d.denominator) - math.log(d.numerator)
                       for _, d, _ in pts])
        ys = np.array([math.log(c) for _, _, c in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
        residual = abs(slope - float(table.schedule.s))

    counts = [c for _, c in scales]
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise ValueError("per-level counts must increase as widths shrink")
    if slope is not None and not 0 <= slope <= 2:
        raise ValueError(f"fitted slope {slope} outside [0, 2]")
    return DimensionEstimate(
        levels=levels, scales=scales, covering_sums=sums,
        slope=slope, target=float(table.schedule.s), residual=residual)


def dimension_bound_report(cons: Construction, n: int,
                           measured: AreaEstimate | None = None) -> dict:
    """Scaling bound for the level-(n+1) tube-union neighborhood: measured
    area against the height-scale ratio, and the implied box-dimension
    exponent 1 + 2/(n+1) for the covering set at this stage."""
    table = cons.table
    out = {
        "level": n,
        "exponent_bound": float(1 + Fraction(2, n + 1)),
        "exponent_bound_exact": str(1 + Fraction(2, n + 1)),
    }
    if n + 1 <= table.depth:
        ratio = table.Delta_(n + 1) / table.Delta_(n)
        out["neighborhood_radius"] = exact_str(table.theta_(n + 1))
        out["bound_ratio"] = float(ratio)
        if measured is not None:
            out["measured_area"] = measured.value
            out["measured_constant"] = measured.value / float(ratio)
            out["bracket"] = [measured.lower, measured.upper]
    return out

