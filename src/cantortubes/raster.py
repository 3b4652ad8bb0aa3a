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

In a dense fan of tubes most ranges land on cells that other boxes cover
on every row anyway.  The painter cuts the frame into blocks of rows, and
in each block keeps the fewest boxes spanning the block that cover, on
each of its rows, what all the spanning boxes cover there (a greedy
minimal interval cover), skipping every other box whose ranges there all
lie in those cells (`_Boxes.cull`).  It then halves each block and culls
each half again among the boxes kept on the block, for as long as the
halves' kept solves and their culls' come to fewer than the block's
(`_Boxes.kept`); the culls of one depth run together, the blocks side by
side on one line of columns.  Last it paints the kept (block, box) pairs
band by band, a band taking the pairs of every block it meets.  Each
set's union, hence every count, is unchanged cell for cell, and work grows
with the kept ranges.

A set difference, the cells of a plus set P outside a minus set M, is
counted on each row as |P u M| - |M|, on one table of both sets whose
blocks are culled by two other exact rules (see `_Boxes`): plus boxes
buried under M's full cover, and minus boxes clear of the kept plus boxes,
are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError

# Cap on a raster frame's cells, which bounds the work: it grows with the
# (box, row) ranges the cull keeps, while memory stays at one band of rows
# whatever the frame.
MAX_CELLS = 80_000_000

# Slab solves per band of rows, counted over the boxes that reach the band
# and that the cull keeps: a (box, row) range costs one in a box's middle and
# two in its caps.
# A band's temporaries peak at about 84 bytes a solve (tracemalloc, default
# stage 2), against 177 bytes a range when both slabs were solved on every
# row, so a band takes under 0.7 MB, as 4,096 two-slab ranges did.  A band
# holds whole rows, and its run bookkeeping covers the kept (block, box)
# pairs of every block it meets; in the middle of the default stage 2 a band
# holds some 210 rows over 6 blocks, about 7,200 ranges of 220 pairs.  The
# culls and the frame's row counts take about 190 bytes a pair, so they run
# in batches of about _BAND_ENTRIES / 2 pairs, a band's worth.
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


def _families(families) -> tuple:
    """The non-empty families' half-widths, half-heights, rotations and box
    counts, one entry per family, and all their centers, family by
    family."""
    fams = [fam for fam in families if len(fam)]
    hw, hh, rot = np.array([(fam.half_width, fam.half_height, fam.rotation)
                            for fam in fams]).reshape(-1, 3).T
    centers = [fam.centers for fam in fams]
    sizes = np.array([len(c) for c in centers], dtype=int)
    return (hw, hh, rot, sizes,
            np.concatenate(centers) if fams else np.empty((0, 2)))


def _extents(hw, hh, rotation) -> tuple:
    """World-aligned half-extents of boxes of half-sizes hw, hh turned by
    `rotation`, one per family."""
    c, s = np.abs(np.cos(rotation)), np.abs(np.sin(rotation))
    return hw * c + hh * s, hw * s + hh * c


def union_bbox(families, inflate: float = 0.0, pad: float = 0.0) -> tuple:
    hw, hh, rot, sizes, centers = _families(families)
    if not len(sizes):
        return (np.inf, np.inf, -np.inf, -np.inf)
    ex, ey = _extents(hw + inflate, hh + inflate, rot)
    first = np.cumsum(sizes) - sizes
    c_lo = np.minimum.reduceat(centers, first)
    c_hi = np.maximum.reduceat(centers, first)
    return ((c_lo[:, 0] - ex).min() - pad, (c_lo[:, 1] - ey).min() - pad,
            (c_hi[:, 0] + ex).max() + pad, (c_hi[:, 1] + ey).max() + pad)


def _axis_interval(slab, idx, dy, big: float):
    """x-intervals solving |a*x + m*dy| <= w, a >= 0, for the boxes `idx` on
    rows at `dy` from their centers, one row of bounds per classification;
    empty rows get inverted bounds, and entries whose slope is flat
    (a < 1e-300, where the division may overflow or divide by zero) a full
    or empty row, written over the solved bounds in place so that no array's
    size depends on how many entries are flat."""
    a, m, w, any_flat = slab
    a, b, w = a.take(idx), m.take(idx), w.take(idx, axis=1)
    b *= dy
    if any_flat:
        # +-big by the sign of w - |b|: a flat slab holds the whole row
        # where |b| <= w, and w - |b| is +0.0, never -0.0, when they tie.
        edge = w - np.abs(b)
        np.copysign(big, edge, out=edge)
    lo = -w
    lo -= b
    lo /= a
    hi = w
    hi -= b
    hi /= a
    if any_flat:
        flat = a < 1e-300
        np.copyto(hi, edge, where=flat)
        np.negative(edge, out=edge)
        np.copyto(lo, edge, where=flat)
    return lo, hi


def _slabs(hw, hh, rotation, rc: float) -> np.ndarray:
    """Each family's two slabs, one column per family: each as |a|, the
    factor of dy after the sign flip and the half-widths per classification
    (full, center, touched: the box shrunk by the cell half-diagonal rc, as
    it is, and grown by it), the slab solved on every row first; then T,
    the |dy| up to which the other slab cannot bind (see `_Boxes`)."""
    ca, sa = np.cos(rotation), np.sin(rotation)
    grow = np.array([[-rc], [0.0], [rc]])
    w, h = hw + grow, hh + grow
    a1, a2 = np.abs(ca), np.abs(sa)
    # Slabs |ca*dx + sa*dy| <= w and |-sa*dx + ca*dy| <= h.
    first = np.vstack((a1, np.where(ca < 0, -sa, sa), w))
    second = np.vstack((a2, np.where(sa > 0, -ca, ca), h))
    d = a1 * h - a2 * w
    s = (a1 * h + a2 * w).max(axis=0)
    swap = -d.max(axis=0) > d.min(axis=0)
    first, second = (np.where(swap, second, first),
                     np.where(swap, first, second))
    d = np.where(swap, -d, d)
    return np.vstack((first, second, d.min(axis=0) - 2.0 ** -47 * s))


class _Boxes:
    """One set of families on a raster frame, box by box, ordered by the
    first row a box can reach.  The order serves memory locality alone: the
    boxes that reach a block of rows then lie close together in every
    per-box array.

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
    ends rounded inward.

    The cull (`cull`) works on a block of rows [r0, r1), over boxes that
    reach it (r_lo < r1 and r_hi > r0).  dy grows with the row, and each
    slab's float solve is monotone in dy, as are the shift, scaling, ceil,
    floor and clip after it; so a box's first-slab bounds over the block
    lie between their values at its first and last row there.  A lower
    bound that is monotone, or flat (-big on one run of rows, +big off it),
    is largest at one of the two ends, and so is the max of two such
    bounds; alike for upper bounds and their min.  Hence a box that spans
    the block covers, in the full class, I = [max il, min ih) of its ranges
    at the block's two end rows on every row of the block.  Swept in order
    of start, the ranges I that reach past the running maximum (U) have the
    union K of them all, and so does a greedy minimal cover G of K drawn
    from U (`_cover`), often a small part of it.  A box's hull, [min il,
    max ih) of its first slab's touched ranges at its first and last row in
    the block, holds every range it paints there in every class: the
    touched half-width is the widest, the second slab only narrows a range,
    and a class shrunk to nothing paints nothing.  So a box outside G whose
    hull lies in one component of K paints only cells that G covers on the
    same row in the full class, hence in its own; skipping it leaves each
    set's union as it is.  The cull's bounds come from the same
    `_axis_interval` and `_columns` calls as `ranges` (the middle's
    one-slab ranges being bit-identical), so no rounding margin is needed.
    A flat first slope, whose bound leaves the hull open as it is not
    monotone, or a bound that is not finite keeps a box out of K, and its
    hull is taken as the whole row, which holds every range of its box
    (`_slabs` puts a flat slope second, so the first is not flat in
    practice).

    The walk (`kept`) culls the frame's blocks over every box that reaches
    them, then each half of a block over the boxes kept on the block alone
    (`_halved`).  That is exact: a box skipped on the block paints only
    cells that the block's G covers on each of its rows, the half's rows
    among them, and G's boxes are kept and reach both halves.

    A difference table (`minus`) holds the plus boxes P and then the minus
    boxes M, flagged in `minus`, and counts |P u M| - |M| on each row, the
    full class of P against the touched class of M, center against center
    and touched against full: each class of M holds M's full cells.  Its
    cull weighs the same hulls and covers by two other rules.  Plus buried
    under minus: let K be the union of the ranges I of the minus boxes that
    span the block; a plus box whose hull lies in one component of K
    paints, in every class and on every row of the block, only cells that M
    fills in the full class, hence in the class its own is counted against,
    so skipping it leaves |P u M| - |M| as it is.
    Minus clear of plus: a minus box whose hull meets no kept plus box's
    hull shares no cell with the kept plus boxes on any row of the block,
    in any class, so skipping it lowers |P u M| and |M| alike.  The second
    rule, taken after the first, may skip a minus box whose cells buried a
    plus box; that is exact as it weighs only the kept plus boxes.  So a
    block with no minus box keeps its plus boxes, and one with no plus box
    skips its minus boxes.  Each cull keeps |P u M| - |M| on every row of
    its block, given the boxes it is handed, so culling the halves of a
    block among the boxes kept there is exact too; the walk hands each
    frame block's halves every box that reaches the block."""

    def __init__(self, families, inflate: float, x0: float, y0: float,
                 cell: float, nx: int, ny: int, minus=()):
        self.cell, self.nx = cell, nx
        self.big = (nx + 4) * cell
        self.ys = y0 + (np.arange(ny) + 0.5) * cell
        rc = cell * np.sqrt(2.0) / 2.0
        hw, hh, rot, sizes, centers = _families([*families, *minus])
        cy = centers[:, 1]
        # Per family: the slab solved on every row (rows 0-4 of params), the
        # other (5-9), T (10) and the grown box's y-extent (11).
        params = np.vstack((
            _slabs(hw + inflate, hh + inflate, rot, rc),
            _extents(hw + (inflate + rc), hh + (inflate + rc), rot)[1]))
        fam_of_box = np.repeat(np.arange(len(sizes)), sizes)
        # Rows whose centers lie within the grown box's y-extent, with a row
        # of slack on each side for the rounding of the solve.
        ey = params[11, fam_of_box]
        r_lo = np.clip(np.floor((cy - ey - y0) / cell - 0.5) - 1, 0, ny)
        r_hi = np.clip(np.floor((cy + ey - y0) / cell - 0.5) + 2, 0, ny)
        order = np.argsort(r_lo, kind="stable")
        r_lo, r_hi = r_lo[order].astype(np.int32), r_hi[order].astype(np.int32)
        # The boxes of `minus` come after those of `families`.
        minus = order >= sum(len(fam) for fam in families)
        self.minus = minus if minus.any() else None
        self.cy = cy[order]
        self.shift = centers[order, 0] - x0
        fam_of_box = fam_of_box[order]
        flat = (params[[0, 5]] < 1e-300).any(axis=1)
        self.slabs = [(p[0, fam_of_box], p[1, fam_of_box],
                       p[2:5, fam_of_box], bool(any_flat))
                      for p, any_flat in zip((params[:5], params[5:10]), flat)]
        a, m, w = params[0], np.abs(params[1]), params[2]
        # A full range is 2w/a wide and moves |m|/a per unit of height, so
        # no column stays in it over a height of 2w/|m|; and a box's middle,
        # 2T tall, wholly holds one of any run of blocks T tall.  A block is
        # the least of these heights, in rows, over the families the cull
        # may use.
        keep = (a >= 1e-300) & (w > 0)
        with np.errstate(divide="ignore", over="ignore"):
            rows = np.minimum(2 * w[keep] / m[keep], params[10, keep])
        rows = rows.min(initial=ny * cell) / cell
        self.block_rows = int(min(max(rows, 1), ny))
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

    def _runs(self, boxes, lo, hi) -> np.ndarray:
        """The runs of rows (see `runs`) of the indices `boxes`, each clipped
        to its block [lo, hi)."""
        return np.minimum(np.maximum(self.runs[:, boxes], lo), hi)

    def row_solves(self, r0: int, r1: int, boxes, runs=None) -> np.ndarray:
        """Number of slab solves on each row of [r0, r1) over the indices
        `boxes`, whose runs of rows are `runs` (by default their own): two
        per (box, row) range in a cap, one in a middle."""
        runs = self.runs[:, boxes] if runs is None else runs
        runs = np.minimum(np.maximum(runs, r0), r1)
        weights = np.repeat((2, 2, 1, -2, -2, -1), runs.shape[1])
        solves = np.bincount((runs - r0).ravel(), weights, r1 - r0 + 1)
        return solves.cumsum()[:r1 - r0].astype(np.int64)

    def _solves(self, boxes, lo, hi) -> np.ndarray:
        """Slab solves of each of `boxes` over its block [lo, hi)."""
        runs = self._runs(boxes, lo, hi)
        n = runs[3:] - runs[:3]
        return 2 * (n[0] + n[1]) + n[2]

    def kept(self) -> tuple:
        """The (block, box) pairs to paint, ordered by block, as each
        pair's block [lo, hi), box and runs of rows (see `runs`) clipped to
        the block: the frame's blocks `block_rows` tall, culled (`cull`),
        then split where the cull pays (`_halved`).  The frame's blocks
        list their boxes, and are culled, in batches of whole blocks whose
        temporaries come to about a band's.  A difference table's frame
        blocks are not culled, only halved: their own cull would count only
        where their halves do not pay, and it would cost a cull of every
        box on the frame."""
        ny = len(self.ys)
        lo = np.arange(0, ny, self.block_rows, dtype=np.int32)
        hi = np.minimum(lo + self.block_rows, ny).astype(np.int32)
        # A box reaches [lo, hi) when r_lo < hi, unless r_hi <= lo.
        stop = np.searchsorted(self.r_lo, hi)
        reached = stop - np.searchsorted(np.sort(self.r_hi), lo, "right")
        pairs = []
        for g0, g1 in _split(2 * reached, 0, self.nx):
            reach = [np.flatnonzero(self.r_hi[:k] > b0)
                     for b0, k in zip(lo[g0:g1].tolist(),
                                      stop[g0:g1].tolist())]
            blk = np.repeat(np.arange(g0, g1, dtype=np.int32),
                            reached[g0:g1])
            box = np.concatenate(reach)
            if self.minus is None:
                keep = self.cull(lo, hi, blk, box)
                blk, box = blk[keep], box[keep]
            pairs.append((blk, box))
        blk, box = (np.concatenate(part) for part in zip(*pairs))
        return self._halved(lo, hi, blk, box)

    def _halved(self, lo, hi, blk, box) -> tuple:
        """`kept`'s pairs from the pairs (blk, box) on the blocks [lo, hi),
        sorted by block.  A block is halved and each half culled again
        among the boxes kept on the block, which is exact (see `_Boxes`).
        A cull costs 4 slab solves for each pair it is handed, the two end
        rows of both slabs.  The halves replace the block if their kept
        solves and their culls' come to fewer than the block's kept solves,
        and are then split in turn; otherwise the block is painted as it
        is."""
        solves = np.bincount(blk, self._solves(box, lo[blk], hi[blk]),
                             len(lo))
        done = []
        while len(blk):
            mid = (lo + hi) // 2
            # The halves of block b are blocks 2b and 2b + 1, each with the
            # kept boxes that reach it; a block one row tall is painted as
            # it is.
            tall = hi - lo > 1
            low = tall[blk] & (self.r_lo[box] < mid[blk])
            high = tall[blk] & (self.r_hi[box] > mid[blk])
            hblk = np.concatenate((2 * blk[low], 2 * blk[high] + 1))
            order = np.argsort(hblk, kind="stable")
            hblk = hblk[order]
            hbox = np.concatenate((box[low], box[high]))[order]
            hlo, hhi = np.repeat(lo, 2), np.repeat(hi, 2)
            hlo[1::2] = mid
            hhi[::2] = mid
            cost = 4 * np.bincount(hblk, minlength=len(hlo))
            keep = self._culls(hlo, hhi, hblk, hbox)
            hblk, hbox = hblk[keep], hbox[keep]
            hsolves = np.bincount(hblk, self._solves(hbox, hlo[hblk],
                                                     hhi[hblk]), len(hlo))
            paid = tall & ((hsolves + cost).reshape(-1, 2).sum(axis=1)
                           < solves)
            final = ~paid[blk]
            done.append((lo[blk[final]], hi[blk[final]], box[final]))
            split = np.repeat(paid, 2)
            lo, hi, solves = hlo[split], hhi[split], hsolves[split]
            on = split[hblk]
            blk = (np.cumsum(split, dtype=np.int32) - 1)[hblk[on]]
            box = hbox[on]
        lo, hi, box = (np.concatenate(part) for part in zip(*done))
        order = np.argsort(lo, kind="stable")
        lo, hi, box = lo[order], hi[order], box[order]
        return lo, hi, box, self._runs(box, lo, hi)

    def _culls(self, lo, hi, blk, box) -> np.ndarray:
        """`cull` over the pairs (blk, box), sorted by block, in batches of
        whole blocks whose temporaries come to about a band's."""
        if 2 * len(box) <= _BAND_ENTRIES:
            return self.cull(lo, hi, blk, box)
        reached = np.bincount(blk, minlength=len(lo))
        first = np.concatenate(([0], np.cumsum(reached)))
        keep = np.empty(len(box), dtype=bool)
        for g0, g1 in _split(2 * reached, 0, self.nx):
            part = slice(first[g0], first[g1])
            keep[part] = self.cull(lo, hi, blk[part], box[part])
        return keep

    def cull(self, b_lo, b_hi, blk, box) -> np.ndarray:
        """Which of the (block, box) pairs to paint.  Block k is the rows
        [b_lo[k], b_hi[k]); pair i puts box[i] on block blk[i], each box
        reaching its block, sorted by block and then box.  Both kinds of
        table share the end-row solve and the test of a hull against the
        full cover K of spanning boxes (see `_Boxes`); only the rules
        differ.  A single table keeps a greedy cover of K, drawn from all
        its spanning boxes, and skips every other box whose hull lies in
        one component of K.  A difference table skips its plus boxes
        buried in the K of its spanning minus boxes, then its minus boxes
        clear of the kept plus hulls.  The caller prices a cull at 4 slab
        solves a pair, the two end rows of both slabs (`_halved`).  The
        blocks are culled together, each one's columns offset by its index
        past the first block's times nx + 1, as `_keys` does for rows, so
        that one sort serves them all: a batch of blocks spans fewer than
        2**31 columns (`_split`)."""
        r0, r1 = b_lo[blk], b_hi[blk]
        off = (blk - blk[:1]) * np.int32(self.nx + 1)
        ok, hl, hh, cl, ch = self._ends(r0, r1, box, off)
        if not ok.all():
            hl = np.where(ok, hl, off)
            hh = np.where(ok, hh, off + self.nx)
        # An empty hull [l, h) is taken as [l, l), which the rules below
        # count as they count any hull.
        np.maximum(hh, hl, out=hh)
        span = (ok & (ch > cl) & (self.r_lo[box] <= r0)
                & (self.r_hi[box] >= r1))
        if self.minus is None:
            span = np.flatnonzero(span)
            span = span[np.argsort(cl[span], kind="stable")]
            chosen, k_lo, k_hi = _cover(cl[span], ch[span])
            skip = _within(k_lo, k_hi, hl, hh)
            skip[span[chosen]] = False
            return ~skip
        neg = self.minus[box]
        span &= neg
        skip = ~neg & _within(*_union(cl[span], ch[span]), hl, hh)
        # Minus clear of plus: as many kept plus hulls start before the
        # hull's end as end at or before its start.
        plus = ~(neg | skip)
        pl, ph = np.sort(hl[plus]), np.sort(hh[plus])
        skip |= neg & (np.searchsorted(pl, hh)
                       <= np.searchsorted(ph, hl, side="right"))
        return ~skip

    def _ends(self, r0, r1, box, off) -> tuple:
        """The end-row solve of a cull: for each box of `box` on its block
        [r0, r1), whether its hull is sound, the hull [hl, hh) and the full
        cover [cl, ch), both offset by its block's `off` columns (see
        `_Boxes`).  The hull is the first slab's touched range at the box's
        first and last row in the block, the cover its full range at both,
        solved as `ranges` solves them."""
        ends = np.concatenate((np.maximum(self.r_lo[box], r0),
                               np.minimum(self.r_hi[box], r1) - 1))
        idx = np.concatenate((box, box))
        dy = self.ys.take(ends)
        dy -= self.cy.take(idx)
        n = len(box)
        # The first slab in the full and the touched class (rows 0 and 2 of
        # its half-widths), the second in the full class alone.
        (a, m, w, f), (a2, m2, w2, f2) = self.slabs
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lo, hi = _axis_interval((a, m, w[::2], f), idx, dy, self.big)
            lo2, hi2 = _axis_interval((a2, m2, w2[:1], f2), idx, dy,
                                      self.big)
        del dy
        ok = np.isfinite(lo[1]) & np.isfinite(hi[1])
        ok = ok[:n] & ok[n:]
        if f:
            ok &= a.take(box) >= 1e-300
        np.maximum(lo[0], lo2[0], out=lo[0])
        np.minimum(hi[0], hi2[0], out=hi[0])
        del lo2, hi2
        il, ih = self._columns(idx, lo, hi)
        if self.gone is not None:
            ih[0, self.gone[0].take(idx)] = 0
        return (ok, np.minimum(il[1, :n], il[1, n:]) + off,
                np.maximum(ih[1, :n], ih[1, n:]) + off,
                np.maximum(il[0, :n], il[0, n:]) + off,
                np.minimum(ih[0, :n], ih[0, n:]) + off)

    def _entries(self, r0: int, r1: int, boxes, runs):
        """Boxes and rows, counted from r0, of the (box, row) ranges of the
        indices `boxes`, whose runs of rows are `runs`, in the band
        [r0, r1), the caps' first, and how many ranges the caps hold."""
        # Runs of boxes that miss the band are empty.
        runs = self.runs[:, boxes] if runs is None else runs
        runs = np.minimum(np.maximum(runs, r0), r1)
        runs -= r0
        first = runs[:3].ravel()
        n = runs[3:].ravel() - first
        idx = np.repeat(np.concatenate((boxes, boxes, boxes)), n)
        rows = np.repeat((first - (n.cumsum() - n)).astype(np.int32), n)
        rows += np.arange(len(idx), dtype=np.int32)
        return idx, rows, int(n[:2 * len(boxes)].sum())

    def _columns(self, idx, lo, hi):
        """Solved x-bounds of the boxes `idx`, rounded in place to the
        column ranges [il, ih) of the cell centers they hold."""
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
        return lo.astype(np.int32), hi.astype(np.int32)

    def ranges(self, r0: int, r1: int, boxes, runs=None):
        """Rows counted from r0, and the column ranges [il, ih) of the
        indices `boxes` on every row of [r0, r1) in their runs of rows
        `runs` (by default their own), one row of il and ih per
        classification (full, center, touched); ih <= il marks an empty
        range."""
        idx, rows, caps = self._entries(r0, r1, boxes, runs)
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
        il, ih = self._columns(idx, lo, hi)
        if self.gone is not None:
            ih[self.gone.take(idx, axis=1)] = 0
        return rows, il, ih


def _cover(cl, ch):
    """A greedy minimal cover G of the union K of the integer ranges
    [cl, ch), cl < ch, sorted by cl: the indices of G, and the start and
    end of each component of K.  The ranges that extend the running reach
    (U) have the union K, and their ends increase, so among the ranges that
    start at or before a column the last such in U reaches farthest.  On
    each component, from its start, G takes that range at the current
    reach until the reach is the component's end: the classic greedy
    interval cover, minimal per component, and a subset of U."""
    reach = np.maximum.accumulate(ch)
    extends = np.ones(len(cl), dtype=bool)
    extends[1:] = ch[1:] > reach[:-1]
    u = np.flatnonzero(extends)
    cl, ch = cl[u], ch[u]
    # A component starts where a range starts past the reach before it,
    # and ends where the next one starts.
    first = np.ones(len(u), dtype=bool)
    first[1:] = cl[1:] > ch[:-1]
    last = np.ones(len(u), dtype=bool)
    last[:-1] = first[1:]
    first, last = np.flatnonzero(first), np.flatnonzero(last)
    # after[j]: the last range of U that starts at or before ch[j].
    after = (np.searchsorted(cl, ch, side="right") - 1).tolist()
    starts = np.searchsorted(cl, cl[first], side="right") - 1
    chosen = []
    for j, end in zip(starts.tolist(), last.tolist()):
        chosen.append(j)
        while j != end:
            j = after[j]
            chosen.append(j)
    return u[chosen], cl[first], ch[last]


def _union(l, h) -> tuple:
    """The starts and ends of the components of the union of the integer
    ranges [l, h), l < h, sorting both in place.  Sorting starts and ends
    apart re-pairs the ranges without changing their union (see
    `_union_cells`), and the re-paired ranges are ordered by both ends: a
    component starts where a range starts past the end before it."""
    l.sort()
    h.sort()
    first = np.ones(len(l), dtype=bool)
    first[1:] = l[1:] > h[:-1]
    last = np.ones(len(l), dtype=bool)
    last[:-1] = first[1:]
    return l[first], h[last]


def _within(k_lo, k_hi, l, h) -> np.ndarray:
    """Whether each range [l, h), h >= l, lies in one component of a union
    whose components start at k_lo and end at k_hi: one more component
    starts at or before l than ends before h."""
    return (np.searchsorted(k_lo, l, side="right")
            == np.searchsorted(k_hi, h) + 1)


def _split(solves, r0: int, nx: int):
    """Split the rows r0, r0 + 1, ... with the given slab solves into bands
    of about _BAND_ENTRIES solves; a row with more is a band of its own.  A
    band spans fewer than 2**31 cells, so flat cell indices fit int32.
    `_Boxes.kept` and `_Boxes._culls` split blocks alike into batches of
    culls, weighing each block by twice its (block, box) pairs."""
    before = np.zeros(len(solves) + 1, dtype=np.int64)
    before[1:] = solves.cumsum()
    max_rows = max(1, np.iinfo(np.int32).max // (nx + 1))
    i, n = 0, len(solves)
    while i < n:
        j = int(np.searchsorted(before, before[i] + _BAND_ENTRIES,
                                side="right")) - 1
        j = min(max(j, i + 1), i + max_rows, n)
        yield r0 + i, r0 + j
        i = j


def _painted(boxes, ny: int, nx: int):
    """The ranges of the (block, box) pairs that `boxes.kept` returns, band
    by band: one set of ranges, or for a difference table those of the
    plus and of the minus boxes.  The frame is split into bands of about
    _BAND_ENTRIES solves of the kept pairs, a band taking the pairs of
    every block it meets, each pair's runs of rows clipped to its block.
    Yields each band's first row and its ranges per set."""
    lo, hi, box, runs = boxes.kept()
    sets = [(lo, hi, box, runs)]
    if boxes.minus is not None:
        neg = boxes.minus[box]
        sets = [(lo[k], hi[k], box[k], runs[:, k]) for k in (~neg, neg)]
    solves = np.zeros(ny, dtype=np.int64)
    step = _BAND_ENTRIES // 2
    # A pair's temporaries here take about twice a band solve's.
    for i in range(0, len(box), step):
        solves += boxes.row_solves(0, ny, box[i:i + step],
                                   runs[:, i:i + step])
    bands = np.array(list(_split(solves, 0, nx)), dtype=np.int64)
    # Blocks are disjoint and ordered, so the pairs of the blocks a band
    # meets are one run.
    cuts = [(np.searchsorted(hi, bands[:, 0], "right").tolist(),
             np.searchsorted(lo, bands[:, 1]).tolist())
            for lo, hi, _, _ in sets]
    for k, (r0, r1) in enumerate(bands.tolist()):
        yield r0, [boxes.ranges(r0, r1, box[i[k]:j[k]], runs[:, i[k]:j[k]])
                   for (_, _, box, runs), (i, j) in zip(sets, cuts)]


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
    Block by block, the painter skips the boxes that cannot move a count:
    those of the families buried under the `minus` boxes' full cover, and
    the `minus` boxes clear of the families' kept boxes (see `_Boxes`).  A
    frame of more than `MAX_CELLS` cells raises `GridTooLargeError`."""
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
    boxes = _Boxes(families, inflate, x0, y0, resolution, nx, ny, minus)
    counts = np.zeros(3, dtype=np.int64)
    for _, painted in _painted(boxes, ny, nx):
        # Each band's ranges are freed once turned into keys, and its keys
        # once counted, before the next band is painted.
        ps, pe = _keys(*painted.pop(0), nx)
        if painted:
            # Full cells lose what `minus` may touch, touched cells only
            # what it fills: |P \ M| = |P u M| - |M|.
            ms, me = (k[::-1] for k in _keys(*painted.pop(), nx))
            counts += (_union_cells(np.concatenate((ps, ms), axis=1),
                                    np.concatenate((pe, me), axis=1))
                       - _union_cells(ms, me))
            del ms, me
        else:
            counts += _union_cells(ps, pe)
        del ps, pe
    full, center, touched = (int(c) for c in counts)
    return RasterResult(x0=x0, y0=y0, cell=resolution, nx=nx, ny=ny,
                        full=full, center=center, touched=touched)
