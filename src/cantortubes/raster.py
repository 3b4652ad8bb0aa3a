"""Rasterization of rotated-box unions with bracketed cell classification.

Every cell is classified three ways against the union: center inside, cell
certainly inside some single box (box shrunk by the cell half-diagonal), and
cell possibly touched (box grown by the half-diagonal).  The three counts
give a value plus a rigorous lower/upper bracket.  Only the counts are kept:
each rotated box covers, on one row of cell centers, one contiguous range of
columns, and a banded painter solves those ranges a band of rows at a time
and counts the cells in their union.  Work grows with the number of (box,
row) ranges and memory with one band; no grid-sized array is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError

DEFAULT_MAX_CELLS = 80_000_000

# (box, row) ranges solved per band of rows, counted after culling the boxes
# that miss the band.  A band's temporaries take about 170 bytes a range, so
# under 1 MB here; larger bands ran at most ~5% faster and cost memory.
_BAND_ENTRIES = 1 << 12


@dataclass(frozen=True)
class RasterResult:
    """Frame of a raster and its three cell counts."""

    x0: float
    y0: float
    cell: float
    nx: int
    ny: int
    full: int
    center: int
    touched: int

    @property
    def cell_area(self) -> float:
        return self.cell * self.cell

    def counts(self) -> tuple:
        return (self.full, self.center, self.touched)


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


def _axis_interval(a, b, w, big: float, flat):
    """Per-entry x-interval solving |a*x + b| <= w for a >= 0, one row of w
    per classification; empty rows get inverted bounds, and entries flagged
    `flat` (a < 1e-300, where the division may overflow or divide by zero)
    a full or empty row.  Overwrites w."""
    inside = None if flat is None else np.abs(b) <= w
    lo = -w
    lo -= b
    lo /= a
    hi = w
    hi -= b
    hi /= a
    if flat is not None:
        lo[:, flat] = np.where(inside[:, flat], -big, big)
        hi[:, flat] = np.where(inside[:, flat], big, -big)
    return lo, hi


class _Boxes:
    """One set of families on a raster frame, box by box, ordered by the
    first row a box can reach.

    Each slab |a*dx + b| <= w is stored with a >= 0: negating a and b
    together leaves the slab as it is, and because rounding is symmetric
    the bounds solved from the negated pair are the very floats that solving
    the slab as given and swapping its bounds for a < 0 gives: every range
    is bit-identical to that solve."""

    def __init__(self, families, inflate: float, x0: float, y0: float,
                 cell: float, nx: int, ny: int):
        self.cell, self.nx = cell, nx
        self.big = (nx + 4) * cell
        self.ys = y0 + (np.arange(ny) + 0.5) * cell
        rc = cell * np.sqrt(2.0) / 2.0
        fams = [fam for fam in families if len(fam)]
        sizes = [len(fam) for fam in fams]

        def per_box(values):
            return np.repeat(np.array(values, dtype=float), sizes)

        centers = (np.concatenate([fam.centers for fam in fams]) if fams
                   else np.empty((0, 2)))
        cy = centers[:, 1]
        # Rows whose centers lie within the grown box's y-extent, with a row
        # of slack on each side for the rounding of the solve.
        ey = per_box([_family_extents(fam, inflate + rc)[1] for fam in fams])
        r_lo = np.clip(np.floor((cy - ey - y0) / cell - 0.5) - 1, 0, ny)
        r_hi = np.clip(np.floor((cy + ey - y0) / cell - 0.5) + 2, 0, ny)
        order = np.argsort(r_lo, kind="stable")
        self.r_lo = r_lo[order].astype(np.int64)
        self.r_hi = r_hi[order].astype(np.int64)
        self.max_span = int((self.r_hi - self.r_lo).max(initial=0))
        self.cy = cy[order]
        self.shift = centers[order, 0] - x0
        hw, hh, ca, sa = (per_box(values)[order] for values in (
            [fam.half_width + inflate for fam in fams],
            [fam.half_height + inflate for fam in fams],
            [float(np.cos(fam.rotation)) for fam in fams],
            [float(np.sin(fam.rotation)) for fam in fams]))
        # Half-widths per classification (full, center, touched): the box
        # shrunk, as it is, and grown by the cell half-diagonal.
        grows = np.array([[-rc], [0.0], [rc]])
        hw, hh = hw + grows, hh + grows
        # Slabs |ca*dx + sa*dy| <= w and |-sa*dx + ca*dy| <= h, each as |a|,
        # the factor of dy after the sign flip, the half-widths and whether
        # some slope is degenerate.
        slabs = ((np.abs(ca), np.where(ca < 0, -sa, sa), hw),
                 (np.abs(sa), np.where(sa > 0, -ca, ca), hh))
        self.slabs = [(a, m, half, bool((a < 1e-300).any()))
                      for a, m, half in slabs]
        # A box shrunk to nothing covers no cell.
        gone = (hw <= 0) | (hh <= 0)
        self.gone = gone if gone.any() else None

    def row_entries(self, ny: int) -> np.ndarray:
        """Number of (box, row) ranges on each row."""
        return (np.bincount(self.r_lo, minlength=ny + 1)
                - np.bincount(self.r_hi, minlength=ny + 1)).cumsum()[:ny]

    def ranges(self, r0: int, r1: int):
        """Rows counted from r0, and the column ranges [il, ih) of every box
        on every row of [r0, r1) it can reach, one row of il and ih per
        classification (full, center, touched); ih <= il marks an empty
        range."""
        start = np.searchsorted(self.r_lo, r0 - self.max_span, side="right")
        stop = np.searchsorted(self.r_lo, r1, side="left")
        sel = np.arange(start, stop)[self.r_hi[start:stop] > r0]
        first = np.maximum(self.r_lo[sel], r0) - r0
        n = np.minimum(self.r_hi[sel], r1) - r0 - first
        idx = np.repeat(sel, n)
        rows = np.repeat((first - (n.cumsum() - n)).astype(np.int32), n)
        rows += np.arange(len(idx), dtype=np.int32)
        dy = self.ys[r0:r1].take(rows)
        dy -= self.cy.take(idx)
        bounds = []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for a, m, half, any_flat in self.slabs:
                a, b = a.take(idx), m.take(idx)
                b *= dy
                bounds.append(_axis_interval(
                    a, b, half.take(idx, axis=1), self.big,
                    a < 1e-300 if any_flat else None))
        (lo, hi), (lo2, hi2) = bounds
        np.maximum(lo, lo2, out=lo)
        np.minimum(hi, hi2, out=hi)
        del bounds, lo2, hi2
        shift = self.shift.take(idx)
        for v in (lo, hi):
            v += shift
            v /= self.cell
            v -= 0.5
        np.ceil(lo, out=lo)
        np.floor(hi, out=hi)
        hi += 1.0
        # Clipping before the int cast keeps a bound beyond the int range at
        # the frame's edge instead of wrapping it around.
        np.clip(lo, 0, self.nx, out=lo)
        np.clip(hi, 0, self.nx, out=hi)
        if self.gone is not None:
            hi[self.gone.take(idx, axis=1)] = 0
        return rows, lo.astype(np.int32), hi.astype(np.int32)


def _bands(tables, ny: int, nx: int):
    """Split [0, ny) into bands of about _BAND_ENTRIES ranges over all
    tables; a row with more ranges than that is a band of its own.  A band
    spans fewer than 2**31 cells, so flat cell indices fit int32."""
    before = np.zeros(ny + 1, dtype=np.int64)
    before[1:] = sum(t.row_entries(ny) for t in tables).cumsum()
    max_rows = max(1, np.iinfo(np.int32).max // (nx + 1))
    r0 = 0
    while r0 < ny:
        r1 = int(np.searchsorted(before, before[r0] + _BAND_ENTRIES,
                                 side="right")) - 1
        r1 = min(max(r1, r0 + 1), r0 + max_rows, ny)
        yield r0, r1
        r0 = r1


def _keys(rows, il, ih, nx: int):
    """Ranges as flat cell indices, rows nx + 1 apart so that ranges of
    different rows never meet; an empty range gets length 0."""
    off = rows * np.int32(nx + 1)
    ends = np.maximum(il, ih)
    ends += off
    return il + off, ends


def _union_cells(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Cells in the union of the half-open ranges [starts, ends), ends >=
    starts, for each row of the two arrays.  Sorting starts and ends apart
    re-pairs the ranges without changing how many cover each cell, and the
    re-paired ranges are ordered by both ends: each adds what reaches past
    the one before it."""
    s, e = np.sort(starts, axis=-1), np.sort(ends, axis=-1)
    overlap = e[..., :-1] - s[..., 1:]
    np.maximum(overlap, 0, out=overlap)
    return (e - s).sum(axis=-1) - overlap.sum(axis=-1)


def rasterize(families, resolution: float, inflate: float = 0.0,
              max_cells: int = DEFAULT_MAX_CELLS,
              minus=()) -> RasterResult:
    """Count the cells of the union of rotated-box families at the given
    cell size, each box inflated by `inflate` in its own frame, on a frame
    around that union.  With `minus`, count the set difference instead:
    cells of the families' union outside the union of the `minus` families
    (inflated alike, on the same frame), with the bracket kept rigorous by
    removing touched cells from full ones and full cells from touched ones.

    `max_cells` caps the frame's cell count, which bounds the work: it
    grows with the (box, row) ranges, while memory stays at one band of
    rows whatever the frame."""
    resolution = float(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    x0, y0, x1, y1 = union_bbox(families, inflate, pad=2 * resolution)
    if not np.isfinite([x0, y0, x1, y1]).all():
        raise ValueError("cannot rasterize empty families")
    nx = int(np.ceil((x1 - x0) / resolution))
    ny = int(np.ceil((y1 - y0) / resolution))
    if nx * ny > max_cells or nx >= np.iinfo(np.int32).max:
        raise GridTooLargeError(
            f"{nx} x {ny} = {nx * ny} cells exceeds {max_cells} or a row "
            "reaches 2**31 cells; use a coarser resolution or raise "
            "max_cells, the cap on raster work")
    frame = (x0, y0, resolution, nx, ny)
    plus = _Boxes(families, inflate, *frame)
    sub = _Boxes(minus, inflate, *frame)
    counts = np.zeros(3, dtype=np.int64)
    for r0, r1 in _bands((plus, sub), ny, nx):
        ps, pe = _keys(*plus.ranges(r0, r1), nx)
        if len(sub.cy):
            # Full cells lose what `minus` may touch, touched cells only
            # what it fills: |P \ M| = |P u M| - |M|.
            ms, me = (k[::-1] for k in _keys(*sub.ranges(r0, r1), nx))
            counts += (_union_cells(np.concatenate((ps, ms), axis=1),
                                    np.concatenate((pe, me), axis=1))
                       - _union_cells(ms, me))
        else:
            counts += _union_cells(ps, pe)
    full, center, touched = (int(c) for c in counts)
    return RasterResult(x0=x0, y0=y0, cell=resolution, nx=nx, ny=ny,
                        full=full, center=center, touched=touched)
