"""Rasterization of rotated-box unions with bracketed cell classification.

Every cell is classified three ways against the union: center inside, cell
certainly inside some single box (box shrunk by the cell half-diagonal), and
cell possibly touched (box grown by the half-diagonal).  The three counts
give a value plus a rigorous lower/upper bracket.  Work is split into
disjoint row bands, so optional threading never races.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError

DEFAULT_MAX_CELLS = 80_000_000


@dataclass
class RasterResult:
    x0: float
    y0: float
    cell: float
    nx: int
    ny: int
    center_in: np.ndarray
    full_in: np.ndarray
    touched: np.ndarray

    @property
    def cell_area(self) -> float:
        return self.cell * self.cell

    def counts(self) -> tuple:
        return (int(self.full_in.sum()), int(self.center_in.sum()),
                int(self.touched.sum()))


def _family_extents(fam, inflate: float) -> tuple:
    """World-aligned half-extents of one family's rotated boxes."""
    hw, hh = fam.half_width + inflate, fam.half_height + inflate
    c, s = abs(np.cos(fam.rotation)), abs(np.sin(fam.rotation))
    return hw * c + hh * s, hw * s + hh * c


def union_bbox(families, inflate: float = 0.0, pad: float = 0.0) -> tuple:
    xs_min = ys_min = np.inf
    xs_max = ys_max = -np.inf
    for fam in families:
        if len(fam) == 0:
            continue
        ex, ey = _family_extents(fam, inflate)
        xs_min = min(xs_min, fam.centers[:, 0].min() - ex)
        xs_max = max(xs_max, fam.centers[:, 0].max() + ex)
        ys_min = min(ys_min, fam.centers[:, 1].min() - ey)
        ys_max = max(ys_max, fam.centers[:, 1].max() + ey)
    return (xs_min - pad, ys_min - pad, xs_max + pad, ys_max + pad)


def _axis_interval(a: float, b: np.ndarray, w: float, big: float):
    """Per-row x-interval solving |a*x + b| <= w; empty rows get inverted
    bounds, near-degenerate a gives a full or empty row."""
    if abs(a) < 1e-300:
        inside = np.abs(b) <= w
        lo = np.where(inside, -big, big)
        hi = np.where(inside, big, -big)
        return lo, hi
    lo = (-w - b) / a
    hi = (w - b) / a
    if a < 0:
        lo, hi = hi, lo
    return lo, hi


def _paint_band(families, inflate, grid, row0, row1):
    """Scanline-classify rows [row0, row1): each rotated box covers, on a
    given row of cell centers, one contiguous x-interval (intersection of
    its two slab constraints); intervals scatter +-1 into difference grids
    and a single cumulative sum yields the coverage masks."""
    nrows = row1 - row0
    if nrows <= 0:
        return
    cell = grid.cell
    rc = cell * np.sqrt(2.0) / 2.0
    big = (grid.nx + 4) * cell
    ys = grid.y0 + (np.arange(row0, row1) + 0.5) * cell
    # A cell's running sum counts the boxes over it: int16 holds up to
    # 32,767 stacked boxes, more would wrap around to a false zero.
    n_boxes = sum(len(fam) for fam in families)
    dtype = np.int16 if n_boxes <= np.iinfo(np.int16).max else np.int32
    diffs = [np.zeros((nrows, grid.nx + 1), dtype=dtype) for _ in range(3)]
    row_idx = np.arange(nrows)
    for fam in families:
        hw, hh = fam.half_width + inflate, fam.half_height + inflate
        ca, sa = float(np.cos(fam.rotation)), float(np.sin(fam.rotation))
        for cx, cy in fam.centers:
            dy = ys - cy
            b1 = sa * dy   # |ca*dx + sa*dy| <= w
            b2 = ca * dy   # |-sa*dx + ca*dy| <= h
            for diff, grow in zip(diffs, (-rc, 0.0, rc)):
                w, h = hw + grow, hh + grow
                if w <= 0 or h <= 0:
                    continue
                lo1, hi1 = _axis_interval(ca, b1, w, big)
                lo2, hi2 = _axis_interval(-sa, b2, h, big)
                lo = np.maximum(lo1, lo2) + (cx - grid.x0)
                hi = np.minimum(hi1, hi2) + (cx - grid.x0)
                il = np.ceil(lo / cell - 0.5).astype(np.int64)
                ih = np.floor(hi / cell - 0.5).astype(np.int64) + 1
                np.clip(il, 0, grid.nx, out=il)
                np.clip(ih, 0, grid.nx, out=ih)
                ok = ih > il
                if not ok.any():
                    continue
                rows = row_idx[ok]
                np.add.at(diff, (rows, il[ok]), 1)
                np.add.at(diff, (rows, ih[ok]), -1)
    for target, diff in zip((grid.full_in, grid.center_in, grid.touched), diffs):
        np.greater(np.cumsum(diff, axis=1, dtype=dtype)[:, :grid.nx], 0,
                   out=target[row0:row1])


def rasterize(families, resolution: float, inflate: float = 0.0,
              max_cells: int = DEFAULT_MAX_CELLS,
              threads: int = 1) -> RasterResult:
    """Rasterize the union of rotated-box families at the given cell size,
    each box inflated by `inflate` in its own frame."""
    resolution = float(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    x0, y0, x1, y1 = union_bbox(families, inflate, pad=2 * resolution)
    if not np.isfinite([x0, y0, x1, y1]).all():
        raise ValueError("cannot rasterize empty families")
    nx = int(np.ceil((x1 - x0) / resolution))
    ny = int(np.ceil((y1 - y0) / resolution))
    if nx * ny > max_cells:
        raise GridTooLargeError(
            f"{nx} x {ny} = {nx * ny} cells exceeds {max_cells}; use a "
            "coarser resolution or raise max_cells")
    grid = RasterResult(
        x0=x0, y0=y0, cell=resolution, nx=nx, ny=ny,
        center_in=np.zeros((ny, nx), dtype=bool),
        full_in=np.zeros((ny, nx), dtype=bool),
        touched=np.zeros((ny, nx), dtype=bool),
    )
    threads = max(1, int(threads))
    if threads == 1:
        _paint_band(families, inflate, grid, 0, ny)
    else:
        bounds = np.linspace(0, ny, threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futs = [pool.submit(_paint_band, families, inflate, grid, a, b)
                    for a, b in zip(bounds, bounds[1:]) if b > a]
            for f in futs:
                f.result()
    return grid
