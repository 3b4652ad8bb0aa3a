"""Rasterization of rotated-box unions with bracketed cell classification.

Every cell is classified three ways against the union: center inside, cell
certainly inside some single box (box shrunk by the cell half-diagonal), and
cell possibly touched (box grown by the half-diagonal).  The three counts
give a value plus a rigorous lower/upper bracket.  A per-family scanline
painter fills the three masks.
"""

from __future__ import annotations

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
    """Per-entry x-interval solving |a*x + b| <= w; empty rows get inverted
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


def _paint(families, inflate, grid):
    """Scanline-classify every row: each rotated box covers, on a given row
    of cell centers, one contiguous x-interval (intersection of its two
    slab constraints).  Per classification, each family's boxes are solved
    as a (boxes x rows) array, interval ends scatter +-1 into one flat
    difference grid and a cumulative sum along each row yields the mask."""
    nx, ny, cell = grid.nx, grid.ny, grid.cell
    rc = cell * np.sqrt(2.0) / 2.0
    big = (nx + 4) * cell
    ys = grid.y0 + (np.arange(ny) + 0.5) * cell
    row_start = np.arange(ny) * (nx + 1)
    # A cell's running sum counts the boxes over it: int16 holds up to
    # 32,767 stacked boxes, more would wrap around to a false zero.
    n_boxes = sum(len(fam) for fam in families)
    dtype = np.int16 if n_boxes <= np.iinfo(np.int16).max else np.int32
    # Blocks of boxes keep the (boxes x rows) temporaries near 2**20 entries.
    block = -(-(1 << 20) // ny)
    diff = np.empty((ny, nx + 1), dtype=dtype)
    flat = diff.reshape(-1)
    for target, grow in ((grid.full_in, -rc), (grid.center_in, 0.0),
                         (grid.touched, rc)):
        diff.fill(0)
        for fam in families:
            w = fam.half_width + inflate + grow
            h = fam.half_height + inflate + grow
            if w <= 0 or h <= 0:
                continue
            ca, sa = float(np.cos(fam.rotation)), float(np.sin(fam.rotation))
            for i in range(0, len(fam), block):
                cx, cy = fam.centers[i:i + block].T
                dy = ys - cy[:, None]
                # Slabs |ca*dx + sa*dy| <= w and |-sa*dx + ca*dy| <= h.
                lo1, hi1 = _axis_interval(ca, sa * dy, w, big)
                lo2, hi2 = _axis_interval(-sa, ca * dy, h, big)
                shift = (cx - grid.x0)[:, None]
                lo = np.maximum(lo1, lo2) + shift
                hi = np.minimum(hi1, hi2) + shift
                il = np.ceil(lo / cell - 0.5).astype(np.int64)
                ih = np.floor(hi / cell - 0.5).astype(np.int64) + 1
                np.clip(il, 0, nx, out=il)
                np.clip(ih, 0, nx, out=ih)
                ok = ih > il
                # A typed operand keeps np.add.at on numpy's fast path; a
                # Python int 1 makes it ~30x slower per element.
                ones = np.ones(np.count_nonzero(ok), dtype=dtype)
                np.add.at(flat, (row_start + il)[ok], ones)
                np.subtract.at(flat, (row_start + ih)[ok], ones)
        np.cumsum(diff, axis=1, dtype=dtype, out=diff)
        np.greater(diff[:, :nx], 0, out=target)


def rasterize(families, resolution: float, inflate: float = 0.0,
              max_cells: int = DEFAULT_MAX_CELLS,
              like: RasterResult | None = None) -> RasterResult:
    """Rasterize the union of rotated-box families at the given cell size,
    each box inflated by `inflate` in its own frame.  With `like`, paint on
    that raster's frame (origin, cell and size) so the masks align cell for
    cell; `resolution` must then equal its cell."""
    resolution = float(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if like is not None:
        if resolution != like.cell:
            raise ValueError(f"resolution {resolution} differs from the "
                             f"cell {like.cell} of the raster to match")
        x0, y0, nx, ny = like.x0, like.y0, like.nx, like.ny
    else:
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
    _paint(families, inflate, grid)
    return grid
