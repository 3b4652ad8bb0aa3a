"""Rasterization of rotated-box unions with bracketed cell classification.

Every cell is classified three ways against the union: center inside, cell
certainly inside some single box (box shrunk by the cell half-diagonal), and
cell possibly touched (box grown by the half-diagonal).  The three counts
give a value plus a rigorous lower/upper bracket.  Only the counts are kept:
each rotated box covers, on one row of cell centers, one contiguous range of
columns, and a banded painter solves those ranges a band of rows at a time
and counts the cells in their union.  Work grows with the number of (box,
row) ranges and memory with one band; no grid-sized array is allocated.

A range is the intersection of two slabs, one per pair of box sides.  Over
the middle rows of a box only one of them can bind: there the painter
solves that slab alone, and both only on the caps above and below.  The
middle is cut short by a margin that bounds the rounding of the two float
solves (`_Boxes`), so the slab it skips never holds the max or min bound,
and every range is bit-identical to solving both slabs on every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError

# Cap on a raster frame's cells, which bounds the work: it grows with the
# (box, row) ranges, while memory stays at one band of rows whatever the frame.
MAX_CELLS = 80_000_000

# Slab solves per band of rows, counted after culling the boxes that miss the
# band: a (box, row) range costs one in a box's middle and two in its caps.
# A band's temporaries peak at about 84 bytes a solve (tracemalloc, default
# stage 2), against 177 bytes a range when both slabs were solved on every
# row, so a band takes under 0.7 MB, as 4,096 two-slab ranges did.  A band
# holds whole rows, and its run bookkeeping covers every box it crosses: in
# the middle of the default stage 2, 8,192 gives two rows of about 3,600
# ranges against some 4,000 boxes, where 4,096 gave one row and left the
# split no faster than solving both slabs everywhere.  The default run's peak
# RSS rose 0.8 MB with it (perfbench strict3-default medians, 43.3 to
# 44.2 MB).
_BAND_ENTRIES = 1 << 13


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


def _axis_interval(slab, idx, dy, big: float):
    """x-intervals solving |a*x + m*dy| <= w, a >= 0, for the boxes `idx` on
    rows at `dy` from their centers, one row of bounds per classification;
    empty rows get inverted bounds, and entries whose slope is flat
    (a < 1e-300, where the division may overflow or divide by zero) a full
    or empty row."""
    a, m, w, any_flat = slab
    a, b, w = a.take(idx), m.take(idx), w.take(idx, axis=1)
    b *= dy
    flat = a < 1e-300 if any_flat else None
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


def _family_slabs(fam, inflate: float, rc: float) -> list:
    """One family's two slabs, each as |a|, the factor of dy after the sign
    flip and the half-widths per classification (full, center, touched: the
    box shrunk by the cell half-diagonal rc, as it is, and grown by it), the
    slab solved on every row first; then T, the |dy| up to which the other
    slab cannot bind (see `_Boxes`)."""
    hw, hh = fam.half_width + inflate, fam.half_height + inflate
    ca, sa = float(np.cos(fam.rotation)), float(np.sin(fam.rotation))
    w = [hw + g for g in (-rc, 0.0, rc)]
    h = [hh + g for g in (-rc, 0.0, rc)]
    # Slabs |ca*dx + sa*dy| <= w and |-sa*dx + ca*dy| <= h.
    first = [abs(ca), -sa if ca < 0 else sa, *w]
    second = [abs(sa), -ca if sa > 0 else ca, *h]
    d = [abs(ca) * hk - abs(sa) * wk for wk, hk in zip(w, h)]
    s = max(abs(ca) * hk + abs(sa) * wk for wk, hk in zip(w, h))
    if -max(d) > min(d):
        first, second, d = second, first, [-x for x in d]
    return first + second + [min(d) - 2.0 ** -47 * s]


class _Boxes:
    """One set of families on a raster frame, box by box, ordered by the
    first row a box can reach.

    Each slab |a*dx + b| <= w is stored with a >= 0: negating a and b
    together leaves the slab as it is, and because rounding is symmetric
    the bounds solved from the negated pair are the very floats that solving
    the slab as given and swapping its bounds for a < 0 gives: every range
    is bit-identical to that solve.

    A box's rows split into two caps, where both slabs are solved, and a
    middle, where only the first is: there the second provably cannot bind,
    so its bound is never the max or min of the two.  With a1 = |cos(rho)|
    and a2 = |sin(rho)|, the first slab's segment on a row at dy from the
    center ends where the second slab's coordinate is
    (n2*dy +- a2*w)/a1, n2 = a1**2 + a2**2.  So the second slab cannot bind
    while n2*|dy| <= D = a1*h - a2*w for each classification's w and h, and
    the two slabs' bounds then lie at least (D - n2*|dy|)/(a1*a2) apart.
    Each float solve moves a bound by at most 3u*(w + a2*|dy|)/a1 (resp.
    3u*(h + a1*|dy|)/a2), u = 2**-53, and a float cos, sin pair within 4
    ulps has |n2 - 1| <= 16u; hence the skipped bound stays strictly outside
    the solved one while |dy| <= T = D - 64u*S, S = a1*h + a2*w >= D, the
    rounding of T itself included.  A flat second slope (a2 < 1e-300)
    solves to the full row there, as |a1*dy| < h; a classification shrunk
    to nothing is emptied whatever its bounds.  Where the first slab is
    the one that cannot bind (a2*w - a1*h > 0: wide boxes) the two swap,
    and a box with T < 0 has no middle.  The middle rows are those whose
    float dy lies in [-T, T]: float subtraction is monotone, so they are
    the rows whose center lies in [cy - T, cy + T], searched for with both
    ends rounded inward."""

    def __init__(self, families, inflate: float, x0: float, y0: float,
                 cell: float, nx: int, ny: int):
        self.cell, self.nx = cell, nx
        self.big = (nx + 4) * cell
        self.ys = y0 + (np.arange(ny) + 0.5) * cell
        rc = cell * np.sqrt(2.0) / 2.0
        fams = [fam for fam in families if len(fam)]
        centers = (np.concatenate([fam.centers for fam in fams]) if fams
                   else np.empty((0, 2)))
        cy = centers[:, 1]
        # Per family: the slab solved on every row (rows 0-4 of params), the
        # other (5-9), T (10) and the grown box's y-extent (11).
        params = np.array([
            _family_slabs(fam, inflate, rc)
            + [_family_extents(fam, inflate + rc)[1]] for fam in fams])
        params = params.reshape(-1, 12).T
        fam_of_box = np.repeat(np.arange(len(fams)),
                               [len(fam) for fam in fams])
        # Rows whose centers lie within the grown box's y-extent, with a row
        # of slack on each side for the rounding of the solve.
        ey = params[11, fam_of_box]
        r_lo = np.clip(np.floor((cy - ey - y0) / cell - 0.5) - 1, 0, ny)
        r_hi = np.clip(np.floor((cy + ey - y0) / cell - 0.5) + 2, 0, ny)
        order = np.argsort(r_lo, kind="stable")
        r_lo, r_hi = r_lo[order].astype(np.int32), r_hi[order].astype(np.int32)
        self.max_span = int((r_hi - r_lo).max(initial=0))
        self.cy = cy[order]
        self.shift = centers[order, 0] - x0
        fam_of_box = fam_of_box[order]
        flat = (params[[0, 5]] < 1e-300).any(axis=1)
        self.slabs = [(p[0, fam_of_box], p[1, fam_of_box],
                       p[2:5, fam_of_box], bool(any_flat))
                      for p, any_flat in zip((params[:5], params[5:10]), flat)]
        span = params[10, fam_of_box]
        m_lo = np.searchsorted(self.ys, np.nextafter(self.cy - span, np.inf))
        m_hi = np.searchsorted(self.ys, np.nextafter(self.cy + span, -np.inf),
                               side="right")
        m_lo = np.minimum(np.maximum(m_lo, r_lo), r_hi)
        m_hi = np.minimum(np.maximum(m_hi, m_lo), r_hi)
        # The starts, then the ends, of each box's three runs of rows: the
        # lower cap, the upper cap and the middle.
        self.runs = np.concatenate((r_lo, m_hi, m_lo, m_lo, r_hi, m_hi),
                                   dtype=np.int32).reshape(6, -1)
        self.r_lo, self.r_hi = self.runs[0], self.runs[4]
        # A box shrunk to nothing covers no cell.
        gone = (params[2:5] <= 0) | (params[7:10] <= 0)
        self.gone = gone[:, fam_of_box] if gone.any() else None

    def row_solves(self, ny: int) -> np.ndarray:
        """Number of slab solves on each row: two per (box, row) range in a
        cap, one in a middle."""
        weights = np.repeat((2, 2, 1, -2, -2, -1), self.runs.shape[1])
        solves = np.bincount(self.runs.ravel(), weights, ny + 1).cumsum()
        return solves[:ny].astype(np.int64)

    def _entries(self, r0: int, r1: int):
        """Boxes and rows, counted from r0, of the (box, row) ranges in the
        band [r0, r1), the caps' first, and how many ranges the caps hold."""
        start = np.searchsorted(self.r_lo, r0 - self.max_span, side="right")
        stop = np.searchsorted(self.r_lo, r1, side="left")
        # Runs of boxes that end before the band are empty.
        runs = np.minimum(np.maximum(self.runs[:, start:stop], r0), r1)
        runs -= r0
        first = runs[:3].ravel()
        n = runs[3:].ravel() - first
        box = np.arange(start, stop)
        idx = np.repeat(np.concatenate((box, box, box)), n)
        rows = np.repeat((first - (n.cumsum() - n)).astype(np.int32), n)
        rows += np.arange(len(idx), dtype=np.int32)
        return idx, rows, int(n[:2 * (stop - start)].sum())

    def ranges(self, r0: int, r1: int):
        """Rows counted from r0, and the column ranges [il, ih) of every box
        on every row of [r0, r1) it can reach, one row of il and ih per
        classification (full, center, touched); ih <= il marks an empty
        range."""
        idx, rows, caps = self._entries(r0, r1)
        dy = self.ys[r0:r1].take(rows)
        dy -= self.cy.take(idx)
        # Temporaries are freed once spent: a band's peak sets the memory.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lo, hi = _axis_interval(self.slabs[0], idx, dy, self.big)
            lo2, hi2 = _axis_interval(self.slabs[1], idx[:caps], dy[:caps],
                                      self.big)
        np.maximum(lo[:, :caps], lo2, out=lo[:, :caps])
        np.minimum(hi[:, :caps], hi2, out=hi[:, :caps])
        del dy, lo2, hi2
        shift = self.shift.take(idx)
        for v in (lo, hi):
            v += shift
            v /= self.cell
            v -= 0.5
        del shift
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
    """Split [0, ny) into bands of about _BAND_ENTRIES slab solves over all
    tables; a row with more solves than that is a band of its own.  A band
    spans fewer than 2**31 cells, so flat cell indices fit int32."""
    before = np.zeros(ny + 1, dtype=np.int64)
    before[1:] = sum(t.row_solves(ny) for t in tables).cumsum()
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
              minus=()) -> RasterResult:
    """Count the cells of the union of rotated-box families at the given
    cell size, each box inflated by `inflate` in its own frame, on a frame
    around that union.  With `minus`, count the set difference instead:
    cells of the families' union outside the union of the `minus` families
    (inflated alike, on the same frame), with the bracket kept rigorous by
    removing touched cells from full ones and full cells from touched ones.
    A frame of more than `MAX_CELLS` cells raises `GridTooLargeError`."""
    resolution, inflate = float(resolution), float(inflate)
    if not (np.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got "
                         f"{resolution}")
    if not (np.isfinite(inflate) and inflate >= 0):
        raise ValueError(f"inflate must be finite and >= 0, got {inflate}")
    x0, y0, x1, y1 = union_bbox(families, inflate, pad=2 * resolution)
    if not np.isfinite([x0, y0, x1, y1]).all():
        raise ValueError("cannot rasterize empty families")
    nx = int(np.ceil((x1 - x0) / resolution))
    ny = int(np.ceil((y1 - y0) / resolution))
    if nx * ny > MAX_CELLS or nx >= np.iinfo(np.int32).max:
        raise GridTooLargeError(
            f"{nx} x {ny} = {nx * ny} cells exceeds raster.MAX_CELLS = "
            f"{MAX_CELLS}, the cap on raster work, or a row reaches 2**31 "
            "cells; use a coarser resolution")
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
