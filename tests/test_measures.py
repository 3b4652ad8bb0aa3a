import importlib
import itertools
import math
import pkgutil
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cantortubes
from cantortubes import hierarchy
from cantortubes.hierarchy import Construction
from cantortubes.numerics import workprec
from cantortubes.measures import (
    AreaEstimate,
    box_dimension_x_projection,
    covering_sum,
    dimension_bound_report,
    neighborhood_area,
    pairwise_overlap_loss,
    projection_lengths,
)
from cantortubes import raster
from cantortubes.raster import rasterize
from cantortubes.rotations import RotationFamily, TubeFamily
from cantortubes.sequences import SequenceTable, build_schedule, derive_sequences


@pytest.fixture(scope="module")
def cons(strict_table, strict_arcs):
    return Construction(strict_table, sols=strict_arcs)


@pytest.fixture(scope="module")
def rf(cons):
    return RotationFamily(cons)


def box_family(cx, cy, w, h, angle=0.0) -> TubeFamily:
    return TubeFamily(
        level=1, angle_index=0, angle=Fraction(0), variant="T", C=Fraction(1),
        half_width=w / 2, half_height=h / 2, rotation=angle,
        centers=np.array([[cx, cy]]), v=(0.0, 0.0))


# -- interval sweep: the projection oracle --------------------------------------

def interval_union_length(intervals):
    """Exact length of a union of closed intervals, by sweep.  Endpoint types
    just need subtraction and ordering (floats, mpf, Fraction)."""
    ivs = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in ivs:
        if cur_hi is None:
            cur_lo, cur_hi = lo, hi
        elif lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def swept_projection_lengths(level, prec) -> tuple:
    """(len_y, len_x): interval-union lengths of a materialized level's
    projections, swept over every rectangle."""
    with workprec(prec):
        ys = [(r.anchor.imag, r.anchor.imag + r.height) for r in level.rects]
        xs = [(r.anchor.real, r.anchor.real + float(r.width)) for r in level.rects]
        return interval_union_length(ys), interval_union_length(xs)


intervals = st.lists(
    st.tuples(st.floats(-100, 100, allow_nan=False),
              st.floats(0, 50, allow_nan=False)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=30)


@given(intervals)
@settings(max_examples=200)
def test_interval_union_properties(ivs):
    length = interval_union_length(ivs)
    assert length >= 0
    # Union length is at most the sum, at least the longest member.
    assert length <= sum(hi - lo for lo, hi in ivs) + 1e-9
    if ivs:
        assert length >= max(hi - lo for lo, hi in ivs) - 1e-9


def test_interval_union_merging():
    assert interval_union_length([(0, 1), (1, 2)]) == 2
    assert interval_union_length([(0, 3), (1, 2)]) == 3
    assert interval_union_length([(0, 1), (2, 3)]) == 2
    assert interval_union_length([]) == 0


# -- projections ---------------------------------------------------------------

def shallow_table() -> SequenceTable:
    """A table whose level 3 (3,856 rectangles, 16 parents) materializes."""
    c = Fraction(1, 16)
    return SequenceTable(
        c=c, depth=3, delta=(Fraction(1), Fraction(1, 2**8), Fraction(1, 2**40)),
        Delta=(Fraction(1), Fraction(1, 2**4), Fraction(1, 2**12)),
        theta=(c, c / 2**4, c / 2**20), c1=Fraction(2), C_tube=Fraction(16),
        profile="strict", schedule=build_schedule(1, 3))


@pytest.mark.parametrize("profile, depth, s, c", [
    *(("strict", d, 1, Fraction(1, 16)) for d in (2, 3, 4, 5)),
    *(("demo", d, 1, Fraction(1, 16)) for d in (3, 4, 5, 6)),
    ("strict", 3, Fraction(1, 2), Fraction(1, 16)),
    ("strict", 3, 0, Fraction(1, 16)),
    ("strict", 3, 1, Fraction(1, 32)),
    ("shallow", 3, None, None),
])
def test_projection_lengths_match_sweep(profile, depth, s, c):
    # The telescoped lengths equal the sweep over every rectangle, as the
    # floats the bundle writes, at every materialized level.
    table = (shallow_table() if profile == "shallow" else
             derive_sequences(build_schedule(s, depth), c, profile=profile))
    cons = Construction(table)
    for n in range(1, cons.materializable_depth() + 1):
        swept = swept_projection_lengths(cons.level(n), cons.prec)
        assert tuple(map(float, projection_lengths(cons, n))) == \
            tuple(map(float, swept)), n


@pytest.mark.parametrize("profile, depth", [
    ("strict", 3), ("strict", 4), ("demo", 4), ("shallow", 3)])
def test_projection_spans_within_anchor_error(profile, depth):
    # len_y against a 4x-precision sum over the same parents of the span
    # from each corner to its (N + 1)-th child anchor, at every counted
    # level.  At level 3 the difference of those two anchors, each of the
    # size of the arc centre, misses the reported error; the local frame
    # does not.
    table = (shallow_table() if profile == "shallow" else
             derive_sequences(build_schedule(1, depth), Fraction(1, 16),
                              profile=profile))
    cons = Construction(table)
    assert cons.counted_depth() == 3
    for n in range(2, cons.counted_depth() + 1):
        len_y, _ = projection_lengths(cons, n)
        sol, N, prec = cons.sol(n - 1), cons.N(n - 1), 4 * cons.prec
        with workprec(prec):
            rot = mpmath.expj(-sol.turn(N))
            want = sum((sol.center_c * (1 - rot) + rot * p.anchor
                        - p.anchor).imag for p in cons.level(n - 1).rects)
            assert abs(len_y - want) <= cons.anchor_error(n), (n, len_y - want)


def test_projection_lengths_evaluate_no_child_anchor(cons, monkeypatch):
    # One product per parent: once the parent levels and their counts are
    # built, no child anchor is evaluated.  Every module that binds the name
    # is wrapped, import-time copies included.
    levels = range(1, cons.counted_depth() + 1)
    want = [projection_lengths(cons, n) for n in levels]
    original, calls = hierarchy.child_anchor, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    modules = [cantortubes] + [
        importlib.import_module(f"cantortubes.{m.name}")
        for m in pkgutil.iter_modules(cantortubes.__path__)]
    for mod in modules:
        if getattr(mod, "child_anchor", None) is original:
            monkeypatch.setattr(mod, "child_anchor", counted)
    assert hierarchy.child_anchor is counted
    assert [projection_lengths(cons, n) for n in levels] == want
    assert calls == []


def test_projection_lazy_matches_materialized(cons):
    # The telescoped lengths of level n read level n - 1 only; the sweep
    # reads every rectangle of level n.
    for n in (1, 2):
        swept = swept_projection_lengths(cons.level(n), cons.prec)
        assert tuple(map(float, projection_lengths(cons, n))) == \
            tuple(map(float, swept))


def test_projection_level1(cons):
    len_y, len_x = projection_lengths(cons, 1)
    assert float(len_y) == 1 and float(len_x) == 1


def test_projection_level2(cons, strict_table):
    len_y, len_x = projection_lengths(cons, 2)
    # y-mass survives: at least 1 - c2*delta_1 (exact bound 1/4), and the
    # x-projection is exactly count * width since the pieces are disjoint.
    assert float(len_y) >= float(1 - strict_table.c2)
    assert len_x == cons.N(1) * strict_table.delta_(2)


def test_projection_level3_lazy(cons, strict_table):
    # Level 3 is never materialized; the telescoped y-union and counted
    # x-union still come out exactly.
    assert cons.materializable_depth() == 2 and cons.counted_depth() == 3
    len_y3, len_x3 = projection_lengths(cons, 3)
    assert 3 not in cons._levels
    assert float(len_y3) >= float((1 - strict_table.c2) * (1 - strict_table.c2 * strict_table.delta_(2)))
    assert len_x3 == cons.population(3) * strict_table.delta_(3)
    # Horizontal mass shrinks like the width/height ratio: the normalized
    # quantity stays of unit order while len_x itself collapses.
    for n in (2, 3):
        _, len_x = projection_lengths(cons, n)
        normalized = float(len_x) * float(strict_table.Delta_(n) / strict_table.delta_(n))
        assert 0.2 <= normalized <= 1.05


# -- rasterized areas ------------------------------------------------------------

def test_area_unit_square_radius_zero():
    est = neighborhood_area([box_family(0.5, 0.5, 1, 1)], 0, 1 / 256)
    assert est.lower <= 1 <= est.upper
    assert abs(est.value - 1) <= est.error_bound + 1e-12
    assert est.error_bound < 0.05


def test_area_resolution_guard():
    with pytest.raises(ValueError):
        neighborhood_area([box_family(0, 0, 1, 1)], 0.01, 0.01)


@pytest.mark.parametrize("bad", [
    {"resolution": math.nan}, {"resolution": math.inf},
    {"inflate": math.nan}, {"inflate": math.inf}, {"inflate": -1.0}],
    ids=["nan-resolution", "inf-resolution", "nan-inflate", "inf-inflate",
         "negative-inflate"])
def test_rasterize_refuses_bad_arguments(bad):
    # Each is refused by name, not as empty families or by numpy.
    args = {"resolution": 1 / 64, "inflate": 0.0, **bad}
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        rasterize([box_family(0.5, 0.5, 1, 1)], **args)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_area_refuses_non_finite_radius(radius):
    with pytest.raises(ValueError, match="^radius must be finite"):
        neighborhood_area([box_family(0.5, 0.5, 1, 1)], radius, 1 / 64)


def test_area_bracket_shrinks_with_resolution():
    fam = [box_family(0.3, 0.4, 1, 0.7, angle=0.3)]
    coarse = neighborhood_area(fam, 0, 1 / 128)
    fine = neighborhood_area(fam, 0, 1 / 256)
    assert fine.upper - fine.lower <= (coarse.upper - coarse.lower) / 1.5
    true = 0.7
    assert coarse.lower <= true <= coarse.upper
    assert fine.lower <= true <= fine.upper


def test_area_monotone_in_radius():
    fam = [box_family(0.2, 0.9, 0.5, 0.5, angle=1.0)]
    small = neighborhood_area(fam, 0.1, 1 / 64)
    large = neighborhood_area(fam, 0.2, 1 / 64)
    assert large.value >= small.value - small.error_bound - large.error_bound


def test_area_bracket_vs_perimeter():
    fams = [box_family(0, 0, 2, 1, 0.2), box_family(0.5, 0.2, 1, 1, 0.9)]
    est = neighborhood_area(fams, 0, 1 / 512)
    perimeter = 2 * (2 + 1) + 2 * (1 + 1)
    assert est.error_bound <= perimeter * est.resolution * 2


def test_overlap_loss_identical_is_zero(rf):
    fam = rf.tube_family(2, 3, C=16)
    est = pairwise_overlap_loss(fam, fam, 1 / 512)
    assert est.value == 0
    assert est.lower == 0


def test_overlap_loss_same_center_rotated_pair(cons, strict_table):
    # Same-center boxes differing by one angle step: the loss is a sliver
    # whose area scales like the step times the squared box height.
    t2 = float(strict_table.theta_(2))
    h = 4 * 16 * float(strict_table.Delta_(2))
    w = 4 * 16 * t2
    a = box_family(0.5, 0.5, w, h, angle=0.0)
    b = box_family(0.5, 0.5, w, h, angle=-t2)
    est = pairwise_overlap_loss(a, b, 1 / 2048)
    assert est.lower <= est.value <= est.upper
    sliver_scale = t2 * h * h
    assert est.value <= 2 * sliver_scale
    assert est.value > 0


def test_overlap_loss_consecutive_families(rf, strict_table):
    # Consecutive fine-step primed families at the first level: recorded
    # constant against Delta_2/Delta_1 * theta_2 (regression bound only).
    a = rf.tube_family(2, 4, C=16, variant="T_prime")
    b = rf.tube_family(2, 5, C=16, variant="T_prime")
    est = pairwise_overlap_loss(a, b, 1 / 1024)
    bound_scale = float(strict_table.Delta_(2) * strict_table.theta_(2))
    K = est.value / bound_scale
    assert 0 < K < 2000
    assert est.value <= est.upper


# -- dimension bookkeeping --------------------------------------------------------

def test_covering_sums_bounded(cons, strict_table):
    for p in (2, 3):
        s = covering_sum(strict_table, p, cons.population(p))
        assert 0 < s <= 1.0


def test_box_dimension_strict_default(cons):
    est = box_dimension_x_projection(cons, 3)
    # Two-point fit over levels 2..3; per-level exponents are 2/3 and 3/4,
    # so the slope must sit near their mean, well below the asymptotic 1.
    mean_sp = (2 / 3 + 3 / 4) / 2
    assert est.slope is not None
    assert abs(est.slope - mean_sp) < 0.15
    assert est.levels == (1, 2, 3)
    assert all(s <= 1.0 for s in est.covering_sums)


def test_box_dimension_single_scale_has_no_slope(cons):
    est = box_dimension_x_projection(cons, 1)
    assert est.slope is None and est.residual is None
    assert est.scales == ((Fraction(1), 1),)


def test_box_dimension_s_half():
    table = derive_sequences(build_schedule(Fraction(1, 2), 3), Fraction(1, 16))
    cons = Construction(table)
    est = box_dimension_x_projection(cons, 3)
    mean_sp = float((Fraction(1, 3) + Fraction(3, 8)) / 2)
    assert abs(est.slope - mean_sp) < 0.15
    for s in est.covering_sums:
        assert s <= 1.0


def test_s_zero_supercritical_sums():
    # With the dimension-zero schedule, any fixed exponent above 1/p makes
    # the level-p covering sum collapse below one.
    table = derive_sequences(build_schedule(0, 3), Fraction(1, 16))
    cons = Construction(table)
    p = 3
    count = cons.population(p)
    delta = table.delta_(p)
    s_prime = 0.5  # > 1/3
    val = math.exp(s_prime * (math.log(delta.numerator) - math.log(delta.denominator))
                   + math.log(count))
    assert val < 1


def test_dimension_bound_exponents(cons):
    assert dimension_bound_report(cons, 1)["exponent_bound"] == 2.0
    assert dimension_bound_report(cons, 2)["exponent_bound_exact"] == "5/3"
    table9 = derive_sequences(build_schedule(1, 2), Fraction(1, 16))
    cons9 = Construction(table9)
    assert abs(dimension_bound_report(cons9, 9)["exponent_bound"] - 1.2) < 1e-12


# -- rasterizer against a per-box reference ----------------------------------

def _reference_interval(a, b, w, big):
    if abs(a) < 1e-300:
        inside = np.abs(b) <= w
        return np.where(inside, -big, big), np.where(inside, big, -big)
    lo, hi = (-w - b) / a, (w - b) / a
    return (hi, lo) if a < 0 else (lo, hi)


def reference_masks(families, inflate, grid):
    """(full_in, center_in, touched) painted on `grid`'s frame box by box:
    each box's per-row x-interval scatters +-1 into a 2-D difference grid,
    whose running sum along each row counts the boxes over a cell.  Boxes
    are solved in chunks, as (box x row) arrays, and each class scatters
    once per chunk."""
    cell, nx, ny = grid.cell, grid.nx, grid.ny
    rc = cell * np.sqrt(2.0) / 2.0
    big = (nx + 4) * cell
    ys = grid.y0 + (np.arange(ny) + 0.5) * cell
    chunk = max(1, 2**20 // ny)
    dtype = np.int16 if sum(map(len, families)) <= 32_767 else np.int32
    diffs = [np.zeros((ny, nx + 1), dtype=dtype) for _ in range(3)]
    for fam in families:
        hw, hh = fam.half_width + inflate, fam.half_height + inflate
        ca, sa = float(np.cos(fam.rotation)), float(np.sin(fam.rotation))
        for i in range(0, len(fam.centers), chunk):
            cx, cy = fam.centers[i:i + chunk].T
            dy = ys - cy[:, None]
            rows = np.broadcast_to(np.arange(ny), dy.shape)
            for diff, grow in zip(diffs, (-rc, 0.0, rc)):
                w, h = hw + grow, hh + grow
                if w <= 0 or h <= 0:
                    continue
                lo1, hi1 = _reference_interval(ca, sa * dy, w, big)
                lo2, hi2 = _reference_interval(-sa, ca * dy, h, big)
                lo = np.maximum(lo1, lo2) + (cx - grid.x0)[:, None]
                hi = np.minimum(hi1, hi2) + (cx - grid.x0)[:, None]
                il = np.clip(np.ceil(lo / cell - 0.5).astype(np.int64), 0, nx)
                ih = np.clip(np.floor(hi / cell - 0.5).astype(np.int64) + 1,
                             0, nx)
                ok = ih > il
                r = rows[ok]
                np.add.at(diff, (np.concatenate([r, r]),
                                 np.concatenate([il[ok], ih[ok]])),
                          np.repeat(np.array([1, -1], dtype=dtype), len(r)))
    return tuple(np.cumsum(d, axis=1, dtype=dtype)[:, :nx] > 0 for d in diffs)


def unculled_walk(tables, ny, nx):
    """The painter without its cull: the frame split by `raster._split` over
    the row solves of every box of every table, and each band's first and
    last row with every table's ranges over all its boxes."""
    every = [np.arange(len(t.cy)) for t in tables]
    solves = sum(t.row_solves(0, ny, k) for t, k in zip(tables, every))
    for r0, r1 in raster._split(solves, 0, nx):
        yield r0, r1, [t.ranges(r0, r1, k) for t, k in zip(tables, every)]


def painted_masks(families, inflate, grid):
    """(full_in, center_in, touched) painted from the [il, ih) ranges the
    band painter solves on `grid`'s frame, band by band, and the bands."""
    boxes = raster._Boxes(families, inflate, grid.x0, grid.y0, grid.cell,
                          grid.nx, grid.ny)
    bands = []
    diffs = np.zeros((3, grid.ny, grid.nx + 1), dtype=np.int32)
    for r0, r1, [(rows, il_rows, ih_rows)] in unculled_walk(
            [boxes], grid.ny, grid.nx):
        bands.append((r0, r1))
        for diff, il, ih in zip(diffs, il_rows, ih_rows):
            ok = ih > il
            np.add.at(diff, (rows[ok] + r0, il[ok]), 1)
            np.add.at(diff, (rows[ok] + r0, ih[ok]), -1)
    return tuple(np.cumsum(d, axis=1)[:, :grid.nx] > 0 for d in diffs), bands


def stacked_family(n):
    fam = box_family(0.5, 0.5, 1, 1)
    return replace(fam, centers=np.repeat(fam.centers, n, axis=0))


def tall_family(n):
    # Thin near-vertical boxes on a fine grid: each box's ranges run
    # through many row bands of the painter.
    rng = np.random.default_rng(5)
    fam = box_family(0.5, 0.5, 0.001, 0.5, angle=0.002)
    return replace(fam, centers=np.column_stack([0.5 + 0.001 * rng.random(n),
                                                 0.5 + 0.01 * rng.random(n)]))


def exact_edge_families():
    # At cell 1/8 the unit box far below puts the frame's origin at
    # (-1/4, -2.8125): the thin box then has its center on a cell center,
    # a shrunk half-width of exactly 0, and its top and bottom edges on row
    # centers, where the degenerate slope divides 0 by 0.
    rc = 0.125 * np.sqrt(2.0) / 2.0
    return [box_family(0.4375, 0.5, 2 * rc, 0.5),
            box_family(0.5, -2.0625, 1, 1)]


def quadrant_families():
    # Rotations in all four quadrants: both slab slopes take both signs.
    rng = np.random.default_rng(7)
    fams = []
    for angle in (0.3, 1.9, 3.0, -1.2, -2.8, math.pi):
        fam = box_family(0, 0, 0.3, 0.1, angle=angle)
        fams.append(replace(fam, centers=rng.random((3, 2))))
    return fams


def painter_case(case, rf, strict_table):
    """Families, inflation and cell size of a painter test case."""
    inflate = 0.0
    if case.startswith("level2"):
        # l = 0 is axis-aligned: the degenerate-slope branch of the solve.
        fams = [rf.tube_family(2, l, C=16) for l in (0, 64, 128)]
        res = 1 / 512
        if case == "level2-inflated":
            inflate = float(strict_table.theta_(2))
    elif case == "stacked":
        fams, res = [stacked_family(32_768)], 0.1
    elif case == "exact-edges":
        fams, res = exact_edge_families(), 0.125
    elif case == "quadrants":
        fams, inflate, res = quadrant_families(), 0.01, 1 / 256
    elif case == "multi-band":
        fams, res = [tall_family(100)], 2.0 ** -15
    elif case == "stage2":
        fams = [rf.tube_family(2, l) for l in (0, 1, 128, 255, 256)]
        res, inflate = 1 / 1024, 1 / 256
    elif case == "fan":
        # Every eighth family of the default stage 2: blocks with many more
        # boxes than rows, most of them inside the others' cover.
        fams = rf.besicovitch_stage(2)[::8]
        res, inflate = 1 / 256, 1 / 256
    elif case == "wide":
        fams, res, inflate = wide_families(), 1 / 256, 0.003
    elif case == "near-vertical":
        fams, res = near_vertical_families(), 1 / 512
    else:
        fams, res = shrunk_families(), 1 / 64
    return fams, inflate, res


_REFERENCES = {}


def reference_case(case, rf, strict_table):
    """A painter case on its raster frame, with its per-box reference masks,
    computed once per module."""
    if case not in _REFERENCES:
        fams, inflate, res = painter_case(case, rf, strict_table)
        grid = rasterize(fams, res, inflate=inflate)
        _REFERENCES[case] = (fams, inflate, grid,
                             reference_masks(fams, inflate, grid))
    return _REFERENCES[case]


@pytest.mark.parametrize("case", ["level2", "level2-inflated", "stacked",
                                  "multi-band", "exact-edges", "quadrants"])
def test_raster_matches_per_box_reference(case, rf, strict_table):
    fams, inflate, grid, ref = reference_case(case, rf, strict_table)
    painted, bands = painted_masks(fams, inflate, grid)
    if case == "multi-band":
        # Every box spans more rows than any band holds.
        assert len(bands) > 2
        assert grid.ny // 2 > max(r1 - r0 for r0, r1 in bands)
    for got, want in zip(painted, ref):
        assert np.array_equal(got, want)
    assert grid.counts() == tuple(int(m.sum()) for m in ref)
    assert grid.counts()[1] > 0


@pytest.mark.parametrize("l, res", [(0, 1 / 512), (64, 1 / 512),
                                    (64, 1 / 1024)],
                         ids=["l0-l1", "l64-l65", "l64-l65-fine"])
def test_overlap_loss_matches_reference_masks(l, res, rf):
    a, b = rf.tube_family(2, l, C=16), rf.tube_family(2, l + 1, C=16)
    est = pairwise_overlap_loss(a, b, res)
    frame = rasterize([a], res)
    diff = rasterize([a], res, minus=[b])
    assert (diff.x0, diff.y0, diff.cell, diff.nx, diff.ny) == \
        (frame.x0, frame.y0, frame.cell, frame.nx, frame.ny)
    # Both families' rows run through several bands.
    tables = [raster._Boxes([f], 0.0, frame.x0, frame.y0, frame.cell,
                            frame.nx, frame.ny) for f in (a, b)]
    assert len(list(unculled_walk(tables, frame.ny, frame.nx))) > 2
    full_a, center_a, touched_a = reference_masks([a], 0.0, frame)
    full_b, center_b, touched_b = reference_masks([b], 0.0, frame)
    area = frame.cell_area
    cells_on = int((center_a & ~center_b).sum())
    value = cells_on * area
    lower = int((full_a & ~touched_b).sum()) * area
    upper = int((touched_a & ~full_b).sum()) * area
    assert est == AreaEstimate(value=value, lower=lower, upper=upper,
                               resolution=frame.cell, cells_on=cells_on,
                               error_bound=max(value - lower, upper - value))
    assert est.value > 0


def test_raster_counts_survive_deep_stacking():
    # 32,768 boxes stacked on one cell exceed an int16 running count.
    assert rasterize([stacked_family(1)], 0.1).counts() == (64, 100, 144)
    assert rasterize([stacked_family(32_768)], 0.1).counts() == (64, 100, 144)


@pytest.mark.parametrize("angle", [1e-20, math.pi / 2, -math.pi / 2])
def test_raster_near_axis_rotation_counts_like_axis_aligned(angle):
    # A slope of 1e-20 solves to bounds near 1e20 cells, beyond int64: they
    # must land on the frame's edge, not wrap around to column 0.
    want = rasterize([box_family(0.5, 0.5, 1, 1)], 1 / 64).counts()
    assert want == (3844, 4096, 4356)
    assert rasterize([box_family(0.5, 0.5, 1, 1, angle)], 1 / 64).counts() \
        == want


# -- the one-slab middle against the two-slab solve ---------------------------

def _two_slab_interval(a, b, w, big: float, flat):
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


def two_slab_ranges(self, r0: int, r1: int):
    """The oracle: every range solved from both slabs on every row."""
    sel = np.flatnonzero((self.r_lo < r1) & (self.r_hi > r0))
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
            bounds.append(_two_slab_interval(
                a, b, half.take(idx, axis=1), self.big,
                a < 1e-300 if any_flat else None))
    (lo, hi), (lo2, hi2) = bounds
    np.maximum(lo, lo2, out=lo)
    np.minimum(hi, hi2, out=hi)
    shift = self.shift.take(idx)
    for v in (lo, hi):
        v += shift
        v /= self.cell
        v -= 0.5
    np.ceil(lo, out=lo)
    np.floor(hi, out=hi)
    hi += 1.0
    np.clip(lo, 0, self.nx, out=lo)
    np.clip(hi, 0, self.nx, out=hi)
    if self.gone is not None:
        hi[self.gone.take(idx, axis=1)] = 0
    return rows, lo.astype(np.int32), hi.astype(np.int32)


def assert_ranges_match_two_slab(boxes, ny, nx):
    """Band by band, the painter's (row, il, ih) of each classification are
    the oracle's, as multisets (the painter lays the caps out first)."""
    def keys(rows, il, ih):
        return np.sort((rows.astype(np.int64) * (nx + 1) + il) * (nx + 1)
                       + ih, axis=-1)

    for r0, r1, [painted] in unculled_walk([boxes], ny, nx):
        got = keys(*painted)
        want = keys(*two_slab_ranges(boxes, r0, r1))
        assert np.array_equal(got, want), (r0, r1)


def wide_families():
    # Wider than tall at several angles: the first slab is the free one.
    rng = np.random.default_rng(11)
    fams = []
    for angle in (0.0, 0.4, -1.1, 2.5, math.pi / 2):
        fam = box_family(0, 0, 0.6, 0.08, angle=angle)
        fams.append(replace(fam, centers=rng.random((3, 2))))
    return fams


def near_vertical_families():
    return [box_family(0.3 + 0.1 * k, 0.5, 0.05, 0.4, angle=angle)
            for k, angle in enumerate(
                s * math.pi / 2 + e for s in (1, -1) for e in (1e-12, -1e-12))]


def shrunk_families():
    # At cell 1/64 both families' shrunk boxes are gone: a half-width lies
    # below the cell half-diagonal, 0.011.
    return [box_family(0.3, 0.4, 0.01, 0.5, angle=0.2),
            box_family(0.6, 0.6, 0.004, 0.004, angle=1.0)]


def _boxes_on_frame(fams, res, inflate=0.0):
    grid = rasterize(fams, res, inflate=inflate)
    boxes = raster._Boxes(fams, inflate, grid.x0, grid.y0, grid.cell,
                          grid.nx, grid.ny)
    return boxes, grid


@pytest.mark.parametrize("case", ["stage2", "quadrants", "exact-edges",
                                  "multi-band", "wide", "near-vertical",
                                  "shrunk"])
def test_ranges_match_two_slab_solve(case, rf, strict_table):
    fams, inflate, res = painter_case(case, rf, strict_table)
    boxes, grid = _boxes_on_frame(fams, res, inflate)
    # Some rows skip the free slab.
    assert (boxes.runs[5] > boxes.runs[2]).any()
    if case == "wide":
        # The width slab is the skipped one for some boxes.
        assert (boxes.slabs[1][2][1] == 0.3 + inflate).any()
    if case == "shrunk":
        assert boxes.gone is not None
    assert_ranges_match_two_slab(boxes, grid.ny, grid.nx)


@given(st.floats(-math.pi, math.pi), st.floats(0.005, 0.4),
       st.floats(0.005, 0.4), st.integers(0, 2), st.sampled_from((-1, 1)),
       st.integers(0, 40), st.integers(-100, 100))
@example(0.0, 0.05, 0.3, 1, 1, 7, 0)
@example(math.pi / 2, 0.3, 0.05, 0, -1, 3, 0)
@example(-math.pi / 2 + 1e-12, 0.3, 0.05, 2, 1, 0, 0)
@settings(max_examples=150, deadline=None)
def test_ranges_match_two_slab_at_the_middle_edge(angle, w, h, k, side, r,
                                                  ulps):
    # One box whose center puts row r + 28 at dy = side*D, moved by a few
    # ulps either way, D the span of classification k over which the free
    # slab cannot bind; the margin is 64 ulps of the larger of its terms.
    cell, nx, ny = 1 / 64, 96, 96
    ys = (np.arange(ny) + 0.5) * cell
    rc = cell * np.sqrt(2.0) / 2.0
    ca, sa = abs(float(np.cos(angle))), abs(float(np.sin(angle)))
    d = abs(ca * (h + (k - 1) * rc) - sa * (w + (k - 1) * rc))
    cy = ys[r + 28] - side * d * (1 + ulps * 2.0 ** -52)
    fam = box_family(0.75, cy, 2 * w, 2 * h, angle=angle)
    boxes = raster._Boxes([fam], 0.0, 0.0, 0.0, cell, nx, ny)
    assert_ranges_match_two_slab(boxes, ny, nx)


def test_default_stage2_solves_one_slab_on_most_ranges(rf, strict_table,
                                                      monkeypatch):
    # Counted as the painter runs, so a silent fallback to solving both
    # slabs everywhere fails here.
    fams = rf.besicovitch_stage(2)
    radius = float(strict_table.theta_(2))
    boxes, _ = _boxes_on_frame(fams, radius / 4, radius)
    ranges = int((boxes.r_hi - boxes.r_lo).sum())
    assert ranges == 7388595
    solved = []
    solve = raster._axis_interval

    def counted(slab, idx, dy, big):
        solved.append(len(idx))
        return solve(slab, idx, dy, big)

    monkeypatch.setattr(raster, "_axis_interval", counted)
    assert neighborhood_area(fams, radius, radius / 4).cells_on == 10078482
    # Every range is solved on its first slab, and a cap's on both.
    assert (2 * ranges - sum(solved)) / ranges >= 0.9


# -- the cull against the unculled painter ------------------------------------

def _row_masks(rows, il, ih, ny, nx):
    """Cells of the [il, ih) ranges on their rows, as a boolean grid."""
    diff = np.zeros((ny, nx + 1), dtype=np.int32)
    ok = ih > il
    np.add.at(diff, (rows[ok], il[ok]), 1)
    np.add.at(diff, (rows[ok], ih[ok]), -1)
    return np.cumsum(diff, axis=1)[:, :nx] > 0


def culled_masks(families, inflate, grid):
    """(full_in, center_in, touched) painted from the ranges of the boxes the
    cull keeps (`raster._painted`, as `rasterize` paints them), and how many
    ranges those were against the ranges of every box."""
    boxes = raster._Boxes(families, inflate, grid.x0, grid.y0, grid.cell,
                          grid.nx, grid.ny)
    bands = [(rows + r0, il, ih) for r0, [(rows, il, ih)]
             in raster._painted(boxes, grid.ny, grid.nx)]
    rows, il, ih = (np.concatenate(part, axis=-1) for part in zip(*bands))
    masks = tuple(_row_masks(rows, l, h, grid.ny, grid.nx)
                  for l, h in zip(il, ih))
    return masks, len(rows), int((boxes.r_hi - boxes.r_lo).sum())


@pytest.mark.parametrize("case", ["level2", "level2-inflated", "stacked",
                                  "multi-band", "exact-edges", "quadrants",
                                  "stage2", "wide", "near-vertical", "shrunk",
                                  "fan"])
def test_culled_painter_matches_per_box_reference(case, rf, strict_table):
    fams, inflate, grid, ref = reference_case(case, rf, strict_table)
    masks, kept, ranges = culled_masks(fams, inflate, grid)
    for got, want in zip(masks, ref):
        assert np.array_equal(got, want)
    if case == "fan":
        assert kept < ranges / 2


def culled_blocks(boxes, monkeypatch):
    """Every block that `boxes.kept()` hands to `cull`, in order: its rows,
    the boxes on it, which of them the cull keeps and the call it came in;
    and what `kept` returns."""
    blocks, calls = [], []
    cull = raster._Boxes.cull

    def recorded(self, b_lo, b_hi, blk, box):
        keep = cull(self, b_lo, b_hi, blk, box)
        calls.append(len(box))
        for k in np.unique(blk):
            here = blk == k
            blocks.append((int(b_lo[k]), int(b_hi[k]), box[here], keep[here],
                           len(calls)))
        return keep

    monkeypatch.setattr(raster._Boxes, "cull", recorded)
    kept = boxes.kept()
    monkeypatch.undo()
    return blocks, kept


def assert_walk_halves_culled_blocks(blocks, boxes, frame_culled=True):
    """The walk's claims on the blocks it culls: the frame's blocks
    `block_rows` tall come first, each culled once, or with
    `frame_culled` false are taken as culled before all others, keeping
    every box that reaches them; every other block is a half of a block
    culled before it, culled among the boxes kept there; no block is
    culled twice, nor a box twice on one block."""
    ny, rows = len(boxes.ys), boxes.block_rows
    frame = {(b0, min(b0 + rows, ny)) for b0 in range(0, ny, rows)}
    seen, halves = {}, not frame_culled
    if halves:
        for b0, b1 in frame:
            reach = np.flatnonzero((boxes.r_lo < b1) & (boxes.r_hi > b0))
            seen[b0, b1] = (reach, np.ones(len(reach), dtype=bool))
    for r0, r1, box, keep, _ in blocks:
        assert (r0, r1) not in seen, (r0, r1)
        assert len(np.unique(box)) == len(box)
        halves = halves or (r0, r1) not in frame
        if halves:
            parents = [(p0, p1) for (p0, p1) in seen
                       if (p0, (p0 + p1) // 2) == (r0, r1)
                       or ((p0 + p1) // 2, p1) == (r0, r1)]
            assert len(parents) == 1, (r0, r1)
            on_parent, kept_on_parent = seen[parents[0]]
            assert np.isin(box, on_parent[kept_on_parent]).all()
        seen[r0, r1] = (box, keep)
    return seen


@pytest.mark.parametrize("mirror", [False, True])
def test_cull_skips_only_boxes_inside_the_kept_full_cover(mirror, rf,
                                                          strict_table,
                                                          monkeypatch):
    # The cull's own claim, stronger than equal counts: on every row of a
    # block, a skipped box's touched range lies in cells that the kept
    # boxes' full ranges cover; checked on every block the walk culls,
    # the halves of refined blocks included.  The fan's ranges drift one
    # way, and its mirror image's the other.
    fams, inflate, res = painter_case("fan", rf, strict_table)
    if mirror:
        fams = [replace(f, rotation=-f.rotation, centers=f.centers * (-1, 1))
                for f in fams]
    boxes, grid = _boxes_on_frame(fams, res, inflate)
    blocks, _ = culled_blocks(boxes, monkeypatch)
    assert_walk_halves_culled_blocks(blocks, boxes)
    skipped = {"frame": 0, "halves": 0}
    for b0, b1, box, keep, _ in blocks:
        gone = box[~keep]
        if not len(gone):
            continue
        tall = "frame" if b1 - b0 == boxes.block_rows else "halves"
        skipped[tall] += len(gone)
        rows, il, ih = boxes.ranges(b0, b1, box[keep])
        cover = _row_masks(rows, il[0], ih[0], b1 - b0, grid.nx)
        rows, il, ih = boxes.ranges(b0, b1, gone)
        assert not (_row_masks(rows, il[2], ih[2], b1 - b0, grid.nx)
                    & ~cover).any(), (b0, b1)
    # The frame's blocks and some of their halves skip boxes.
    assert skipped["frame"] > 0 and skipped["halves"] > 0, skipped


def unculled_counts(families, res, inflate=0.0, minus=()):
    """The oracle: `rasterize`'s counts with every box that reaches a band
    painted on it, in the bands of `unculled_walk`."""
    grid = rasterize(families, res, inflate=inflate)
    frame = (grid.x0, grid.y0, grid.cell, grid.nx, grid.ny)
    plus = raster._Boxes(families, inflate, *frame)
    sub = raster._Boxes(minus, inflate, *frame)
    counts = np.zeros(3, dtype=np.int64)
    for _, _, (p, m) in unculled_walk((plus, sub), grid.ny, grid.nx):
        ps, pe = raster._keys(*p, grid.nx)
        ms, me = (k[::-1] for k in raster._keys(*m, grid.nx))
        counts += (raster._union_cells(np.concatenate((ps, ms), axis=1),
                                       np.concatenate((pe, me), axis=1))
                   - raster._union_cells(ms, me))
    return tuple(int(c) for c in counts)


SLOPES = [0.0, math.pi, math.pi / 2, -math.pi / 2, math.pi / 2 + 1e-12,
          math.pi / 2 - 1e-12, -math.pi / 2 + 1e-12, -math.pi / 2 - 1e-12]


@st.composite
def clustered_family(draw, fan):
    """Up to 80 boxes of one shape on a few shared centers near (0.3, 0.3),
    turned to within 0.5 of the slope `fan` or to an axis, exactly (a flat
    slope) or but for 1e-12; a side of 0.002 is gone once shrunk by the
    cell half-diagonal."""
    w = draw(st.sampled_from([0.002, 0.05, 0.1, 0.2, 0.8]))
    h = draw(st.sampled_from([0.002, 0.2, 0.5, 0.8]))
    angle = draw(st.one_of(st.sampled_from(SLOPES),
                           st.floats(-0.5, 0.5).map(lambda d: fan + d)))
    spots = draw(st.lists(st.tuples(st.floats(-0.02, 0.02),
                                    st.floats(-0.02, 0.02)),
                          min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(spots) - 1), min_size=1,
                          max_size=80))
    fam = box_family(0, 0, w, h, angle=angle)
    return replace(fam, centers=0.3 + np.array([spots[i] for i in picks]))


@st.composite
def clustered_sets(draw):
    fan = draw(st.floats(-math.pi, math.pi))
    return (draw(st.lists(clustered_family(fan), min_size=1, max_size=3)),
            draw(st.lists(clustered_family(fan), max_size=2)))


@given(clustered_sets(), st.sampled_from([0.0, 0.01]))
@settings(max_examples=150, deadline=None)
def test_culled_counts_equal_unculled_counts(sets, inflate):
    # At cell 1/512 about a third of these sets hold blocks the cull
    # thins out.  As the painter runs, each cull is handed, in order of
    # block and then box, only boxes that reach their block; a difference
    # table's cull keeps the plus boxes of a block with no minus box, and
    # none of the minus boxes of a block with no plus box.
    fams, minus = sets
    res = 1 / 512
    cull = raster._Boxes.cull

    def checked(self, lo, hi, blk, box):
        keep = cull(self, lo, hi, blk, box)
        assert ((np.diff(blk) > 0) | ((np.diff(blk) == 0)
                                      & (np.diff(box) > 0))).all()
        assert ((self.r_lo[box] < hi[blk]) & (self.r_hi[box] > lo[blk])).all()
        if self.minus is not None:
            neg = self.minus[box]
            plus = np.bincount(blk[~neg], minlength=len(lo))
            minus = np.bincount(blk[neg], minlength=len(lo))
            assert keep[(minus == 0)[blk]].all()
            assert not keep[(plus == 0)[blk]].any()
        return keep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raster._Boxes, "cull", checked)
        got = rasterize(fams, res, inflate=inflate, minus=minus).counts()
    assert got == unculled_counts(fams, res, inflate, minus)


@st.composite
def near_coincident_sets(draw):
    """A family of 4 to 40 overlapping boxes on a line of centers near
    (0.3, 0.3), and as the minus set the same family turned by at most
    0.02 rad about (0.3, 0.3) and shifted by at most 3 cells of 1/512,
    with at most one other family: the sets' boxes lie nearly on top of
    each other, as consecutive loss families do."""
    n = draw(st.integers(4, 40))
    w = draw(st.sampled_from([0.01, 0.03, 0.1]))
    h = draw(st.sampled_from([0.1, 0.3, 0.6]))
    angle = draw(st.floats(-math.pi, math.pi))
    step = np.array(draw(st.tuples(st.floats(-0.02, 0.02),
                                   st.floats(-0.02, 0.02))))
    fam = replace(box_family(0, 0, w, h, angle=angle),
                  centers=0.3 + np.arange(n)[:, None] * step)
    turn = draw(st.floats(-0.02, 0.02))
    shift = np.array(draw(st.tuples(st.floats(-3, 3), st.floats(-3, 3))))
    c, s = math.cos(turn), math.sin(turn)
    centers = 0.3 + (fam.centers - 0.3) @ np.array([[c, s], [-s, c]])
    minus = [replace(fam, rotation=angle + turn,
                     centers=centers + shift / 512)]
    minus += draw(st.lists(clustered_family(angle), max_size=1))
    return [fam], minus


@given(near_coincident_sets(), st.sampled_from([0.0, 0.01]))
@settings(max_examples=150, deadline=None)
def test_difference_counts_equal_unculled_counts(sets, inflate):
    # Near-coincident sets are where the difference cull skips most: plus
    # boxes buried under the minus boxes' cover, and minus boxes clear of
    # the plus boxes.
    fams, minus = sets
    res = 1 / 512
    got = rasterize(fams, res, inflate=inflate, minus=minus).counts()
    assert got == unculled_counts(fams, res, inflate, minus)


def test_difference_cull_skips_buried_plus_and_clear_minus_boxes(
        rf, monkeypatch):
    # The difference cull's own claims, stronger than equal counts, on
    # every block the walk culls at l = 64/65, all halves of the frame's
    # blocks or of halves: on each row of the block, a skipped plus box's
    # touched range lies in cells that the block's minus boxes fill in
    # the full class, and a skipped minus box's touched range shares no
    # cell with the kept plus boxes' touched ranges.  Both kinds of skip
    # occur.
    a, b = rf.tube_family(2, 64), rf.tube_family(2, 65)
    grid = rasterize([a], 1 / 512)
    boxes = raster._Boxes([a], 0.0, grid.x0, grid.y0, grid.cell, grid.nx,
                          grid.ny, minus=[b])
    blocks, _ = culled_blocks(boxes, monkeypatch)
    assert_walk_halves_culled_blocks(blocks, boxes, frame_culled=False)
    skipped = {"plus": 0, "minus": 0}
    for b0, b1, box, keep, _ in blocks:
        neg = boxes.minus[box]

        def cells(which, cls):
            rows, il, ih = boxes.ranges(b0, b1, box[which])
            return _row_masks(rows, il[cls], ih[cls], b1 - b0, grid.nx)

        buried, clear = ~keep & ~neg, ~keep & neg
        skipped["plus"] += int(buried.sum())
        skipped["minus"] += int(clear.sum())
        if buried.any():
            assert not (cells(buried, 2) & ~cells(neg, 0)).any(), (b0, b1)
        if clear.any():
            assert not (cells(clear, 2) & cells(keep & ~neg, 2)).any(), \
                (b0, b1)
    assert skipped["plus"] > 0 and skipped["minus"] > 0, skipped


@pytest.mark.parametrize("case", ["C0", "far", "identical", "T_prime",
                                  "l0-fine", "l255-fine"])
def test_overlap_loss_edge_cases_count_as_unculled(case, rf):
    # A minus set that fills no cell (C = 0), that lies off the frame, that
    # is the plus set, or that is twice as wide; and the end families of
    # the fan at a finer cell.
    l, res = 64, 1 / 512
    if case.endswith("fine"):
        l, res = (0 if case == "l0-fine" else 255), 1 / 1024
    a, b = rf.tube_family(2, l), rf.tube_family(2, l + 1)
    if case == "C0":
        b = rf.tube_family(2, l + 1, C=0)
    elif case == "far":
        b = replace(b, centers=b.centers + 100)
    elif case == "identical":
        b = a
    elif case == "T_prime":
        b = rf.tube_family(2, l + 1, variant="T_prime")
    got = rasterize([a], res, minus=[b]).counts()
    assert got == unculled_counts([a], res, minus=[b])
    if case == "identical":
        assert got[:2] == (0, 0)


def test_blocks_one_row_tall_are_culled_once(monkeypatch):
    # Near-square boxes turned by about 45 degrees have no middle, so
    # `block_rows` is one row: each block is culled once, with each of its
    # boxes once, and none can be halved.
    rng = np.random.default_rng(3)
    fams = [replace(box_family(0, 0, 0.2, 0.2, angle=0.785 + d),
                    centers=0.3 + rng.uniform(-0.02, 0.02, (80, 2)))
            for d in (0.0, 0.1, -0.2)]
    res, inflate = 1 / 512, 0.01
    boxes, grid = _boxes_on_frame(fams, res, inflate)
    assert boxes.block_rows == 1
    want = unculled_counts(fams, res, inflate)
    blocks, (lo, hi, _, _) = culled_blocks(boxes, monkeypatch)
    seen = assert_walk_halves_culled_blocks(blocks, boxes)
    assert all(r1 - r0 == 1 for r0, r1 in seen)
    assert (hi - lo == 1).all()
    assert rasterize(fams, res, inflate=inflate).counts() == want


def test_default_stage2_unions_few_ranges(rf, strict_table, monkeypatch):
    # Counted as the painter runs: a cull that silently keeps every box
    # unions all 7,388,595 (box, row) ranges.
    fams = rf.besicovitch_stage(2)
    radius = float(strict_table.theta_(2))
    unioned = []
    union = raster._union_cells

    def counted(starts, ends):
        unioned.append(starts.shape[-1])
        return union(starts, ends)

    monkeypatch.setattr(raster, "_union_cells", counted)
    assert neighborhood_area(fams, radius, radius / 4).cells_on == 10078482
    assert sum(unioned) <= 0.4 * 7388595


def test_overlap_loss_solves_no_more_than_its_ranges(rf, monkeypatch):
    # Two families of 16 boxes over hundreds of rows, at nearby angles:
    # the difference walk skips the plus boxes buried under the minus
    # boxes' cover and the minus boxes clear of the kept plus boxes, so it
    # paints few of the 32,376 (box, row) ranges, and solves fewer slabs,
    # its culls' end rows included, than painting every range takes.  A
    # walk that culls no loss table paints them all.
    a, b = rf.tube_family(2, 64), rf.tube_family(2, 65)
    res = 1 / 512
    frame = rasterize([a], res)
    tables = [raster._Boxes([f], 0.0, frame.x0, frame.y0, frame.cell,
                            frame.nx, frame.ny) for f in (a, b)]
    assert sum(int((t.r_hi - t.r_lo).sum()) for t in tables) == 32376
    want = sum(int(t.row_solves(0, frame.ny, np.arange(len(t.cy))).sum())
               for t in tables)
    solved, painted = [], []
    solve, ranges = raster._axis_interval, raster._Boxes.ranges

    def counted(slab, idx, dy, big):
        solved.append(len(idx))
        return solve(slab, idx, dy, big)

    def counted_ranges(self, *args):
        rows, il, ih = ranges(self, *args)
        painted.append(len(rows))
        return rows, il, ih

    monkeypatch.setattr(raster, "_axis_interval", counted)
    monkeypatch.setattr(raster._Boxes, "ranges", counted_ranges)
    got = rasterize([a], res, minus=[b]).counts()
    monkeypatch.undo()
    assert sum(painted) <= 12000
    assert sum(solved) < want
    assert got == unculled_counts([a], res, minus=[b])


def test_default_stage2_culls_each_block_once(rf, strict_table,
                                              monkeypatch):
    # Counted as the painter runs: the 3,932 rows are culled in blocks of
    # 159, the last one 116 rows tall, each once; then halves of blocks
    # culled before, among the boxes kept on the halved block, each once,
    # no (block, box) pair twice, and several blocks to a call.
    fams = rf.besicovitch_stage(2)
    radius = float(strict_table.theta_(2))
    boxes, grid = _boxes_on_frame(fams, radius / 4, radius)
    assert (grid.ny, boxes.block_rows) == (3932, 159)
    blocks, _ = culled_blocks(boxes, monkeypatch)
    seen = assert_walk_halves_culled_blocks(blocks, boxes)
    assert list(seen)[:25] == [(b0, min(b0 + 159, 3932))
                               for b0 in range(0, 3932, 159)]
    assert len(seen) > 25
    calls = [call for *_, call in blocks]
    assert len(set(calls)) < len(calls)
    assert neighborhood_area(fams, radius, radius / 4).cells_on == 10078482
    # A table of one level-2 family, fewer boxes than a block has rows,
    # takes the same walk: each frame block that a box reaches is culled
    # once, first.
    fam = rf.tube_family(2, 64)
    boxes, grid = _boxes_on_frame([fam], 1 / 512)
    assert (len(boxes.cy), boxes.block_rows) == (16, 252)
    blocks, _ = culled_blocks(boxes, monkeypatch)
    seen = assert_walk_halves_culled_blocks(blocks, boxes)
    frame = [(b0, min(b0 + 252, grid.ny)) for b0 in range(0, grid.ny, 252)]
    reached = [(b0, b1) for b0, b1 in frame
               if ((boxes.r_lo < b1) & (boxes.r_hi > b0)).any()]
    assert len(reached) > 1
    assert list(seen)[:len(reached)] == reached
    assert grid.counts() == unculled_counts([fam], 1 / 512)


# -- the union count of row ranges --------------------------------------------

row_ranges = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 12),
                                st.integers(0, 12)), max_size=25)


@given(st.integers(1, 12), row_ranges)
@example(12, [(0, 2, 9), (0, 3, 5), (0, 4, 4)])      # nested, empty
@example(12, [(1, 0, 4), (1, 4, 7), (1, 4, 7)])      # touching, duplicate
@example(12, [(0, 9, 3), (2, 6, 6)])                 # inverted, empty
@example(12, [(0, 6, 12), (1, 0, 3), (1, 0, 12)])    # row end, next row 0
@example(1, [(0, 0, 1), (1, 0, 1), (3, 1, 0)])
@settings(max_examples=300)
def test_union_cells_matches_painted_rows(nx, ranges):
    ranges = [(r, min(a, nx), min(b, nx)) for r, a, b in ranges]
    painted = np.zeros((4, nx), dtype=bool)
    for r, a, b in ranges:
        painted[r, a:b] = True
    rows, il, ih = np.array(ranges, dtype=np.int32).reshape(-1, 3).T
    starts, ends = raster._keys(rows, il[None], ih[None], nx)
    assert raster._union_cells(starts, ends)[0] == painted.sum()


# -- exact areas of small box sets --------------------------------------------

def _clip(poly, a, b):
    """Sutherland-Hodgman: the part of `poly` left of the directed line a->b."""
    def side(p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        sp, sq = side(p), side(q)
        if sp >= 0:
            out.append(p)
        if (sp < 0) != (sq < 0):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _polygon_area(poly):
    return abs(sum(p[0] * q[1] - q[0] * p[1]
                   for p, q in zip(poly, poly[1:] + poly[:1]))) / 2


def exact_union_area(boxes):
    """Exact area of a union of convex counter-clockwise polygons with
    Fraction corners: intersections by clipping, summed by inclusion-
    exclusion."""
    total = Fraction(0)
    for k in range(1, len(boxes) + 1):
        for subset in itertools.combinations(boxes, k):
            piece = subset[0]
            for other in subset[1:]:
                for a, b in zip(other, other[1:] + other[:1]):
                    piece = _clip(piece, a, b)
            if len(piece) >= 3:
                total += (-1) ** (k + 1) * _polygon_area(piece)
    return total


def exact_boxes(fam, inflate=0.0):
    """The family's boxes as exact Fraction polygons with float corners,
    counter-clockwise."""
    hw, hh = fam.half_width + inflate, fam.half_height + inflate
    ca, sa = math.cos(fam.rotation), math.sin(fam.rotation)
    return [[(Fraction(cx + (x * ca - y * sa)),
              Fraction(cy + (x * sa + y * ca)))
             for x, y in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))]
            for cx, cy in fam.centers]


def random_family(rng, n):
    fam = box_family(0, 0, rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6),
                     angle=rng.uniform(-math.pi, math.pi))
    return replace(fam, centers=np.array([[rng.uniform(0, 0.5),
                                           rng.uniform(0, 0.5)]
                                          for _ in range(n)]))


@pytest.mark.parametrize("seed", range(6))
def test_area_bracket_holds_exact_union_area(seed):
    rng = random.Random(seed)
    fams = [random_family(rng, rng.choice((1, 2)))
            for _ in range(rng.choice((1, 2)))]
    for radius, res in ((0.0, 1 / 128), (0.03, 1 / 256)):
        est = neighborhood_area(fams, radius, res)
        exact = exact_union_area(
            [box for fam in fams for box in exact_boxes(fam, radius)])
        assert est.lower <= exact <= est.upper


@pytest.mark.parametrize("seed", range(6))
def test_overlap_bracket_holds_exact_difference_area(seed):
    rng = random.Random(100 + seed)
    a = random_family(rng, 2)
    b = random_family(rng, 2)
    if seed % 2:
        # A nearby angle and shared centers, as consecutive families have.
        b = replace(b, centers=a.centers + 0.01, rotation=a.rotation + 0.05)
    est = pairwise_overlap_loss(a, b, 1 / 256)
    boxes_b = exact_boxes(b)
    exact = exact_union_area(exact_boxes(a) + boxes_b) \
        - exact_union_area(boxes_b)
    assert est.lower <= exact <= est.upper
    assert exact > 0


def test_default_stage2_unions_a_tenth_of_its_ranges(rf, strict_table,
                                                     monkeypatch):
    # The cull keeps a minimal cover of each block's spanning ranges, and
    # blocks are halved where that pays, so the painter unions at most
    # 125,000 of the 7,388,595 (box, row) ranges.
    fams = rf.besicovitch_stage(2)
    radius = float(strict_table.theta_(2))
    unioned = []
    union = raster._union_cells

    def counted(starts, ends):
        unioned.append(starts.shape[-1])
        return union(starts, ends)

    monkeypatch.setattr(raster, "_union_cells", counted)
    assert neighborhood_area(fams, radius, radius / 4).cells_on == 10078482
    assert sum(unioned) <= 125_000


def test_c_2_to_the_minus_5_stage2_counts(monkeypatch):
    # The largest painter case run here: the default stage 2 at
    # c = 2^-5, 32,800 boxes on a 189 M-cell frame, past `MAX_CELLS`, which
    # is lifted for this test alone.  Its counts are frozen, and the walk
    # unions a ninth of the 10,153,903 ranges that one cull per geometric
    # block paints.
    table = derive_sequences(build_schedule(1, 3), Fraction(1, 32))
    fams = RotationFamily(Construction(table)).besicovitch_stage(2)
    radius = float(table.theta_(2))
    monkeypatch.setattr(raster, "MAX_CELLS", 200_000_000)
    unioned = []
    union = raster._union_cells

    def counted(starts, ends):
        unioned.append(starts.shape[-1])
        return union(starts, ends)

    monkeypatch.setattr(raster, "_union_cells", counted)
    grid = rasterize(fams, radius / 4, inflate=radius)
    assert grid.counts() == (109724298, 109775349, 109825287)
    assert sum(unioned) <= 1_250_000


def scalar_slabs(fam, inflate, rc):
    """The oracle for `raster._slabs`: one family's slabs and T from scalar
    float arithmetic, as a list of 11 numbers."""
    hw, hh = fam.half_width + inflate, fam.half_height + inflate
    ca, sa = float(np.cos(fam.rotation)), float(np.sin(fam.rotation))
    w = [hw + g for g in (-rc, 0.0, rc)]
    h = [hh + g for g in (-rc, 0.0, rc)]
    first = [abs(ca), -sa if ca < 0 else sa, *w]
    second = [abs(sa), -ca if sa > 0 else ca, *h]
    d = [abs(ca) * hk - abs(sa) * wk for wk, hk in zip(w, h)]
    s = max(abs(ca) * hk + abs(sa) * wk for wk, hk in zip(w, h))
    if -max(d) > min(d):
        first, second, d = second, first, [-x for x in d]
    return first + second + [min(d) - 2.0 ** -47 * s]


def scalar_union_bbox(families, inflate, pad):
    """The oracle for `raster.union_bbox`, family by family in scalars."""
    x0 = y0 = np.inf
    x1 = y1 = -np.inf
    for fam in families:
        if len(fam) == 0:
            continue
        hw, hh = fam.half_width + inflate, fam.half_height + inflate
        c, s = abs(np.cos(fam.rotation)), abs(np.sin(fam.rotation))
        ex, ey = hw * c + hh * s, hw * s + hh * c
        x0 = min(x0, fam.centers[:, 0].min() - ex)
        x1 = max(x1, fam.centers[:, 0].max() + ex)
        y0 = min(y0, fam.centers[:, 1].min() - ey)
        y1 = max(y1, fam.centers[:, 1].max() + ey)
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


@pytest.mark.parametrize("case", ["default", "quadrants", "wide",
                                  "near-vertical", "exact-edges", "shrunk"])
def test_family_setup_is_the_scalar_one_bit_for_bit(case, rf, strict_table):
    # The frame and every slab are formed for all families at once; numpy's
    # cos and sin over an array must give the floats they give one angle at
    # a time, or the ranges could move.
    if case == "default":
        fams = rf.besicovitch_stage(2)
        inflate = float(strict_table.theta_(2))
        res = inflate / 4
        rotations = np.array([fam.rotation for fam in fams])
        assert len(rotations) == 257
        assert np.array_equal(np.cos(rotations),
                              [np.cos(float(r)) for r in rotations])
        assert np.array_equal(np.sin(rotations),
                              [np.sin(float(r)) for r in rotations])
    else:
        fams, inflate, res = painter_case(case, rf, strict_table)
    assert raster.union_bbox(fams, inflate, 2 * res) == \
        scalar_union_bbox(fams, inflate, 2 * res)
    rc = res * np.sqrt(2.0) / 2.0
    hw, hh, rot, _, _ = raster._families(fams)
    got = raster._slabs(hw + inflate, hh + inflate, rot, rc)
    want = np.array([scalar_slabs(fam, inflate, rc) for fam in fams]).T
    assert np.array_equal(got, want)


@st.composite
def integer_ranges(draw):
    """Up to 9 ranges [cl, ch) on three stretches 20 columns apart: short
    and few enough that starts tie, ends touch starts and the union falls
    into several components."""
    picks = draw(st.lists(st.tuples(st.sampled_from([0, 20, 40]),
                                    st.integers(0, 8), st.integers(1, 6)),
                          min_size=1, max_size=9))
    ranges = sorted(((base + a, base + a + n) for base, a, n in picks),
                    key=lambda r: r[0])
    return tuple(np.array(v, dtype=np.int32) for v in zip(*ranges))


@given(integer_ranges())
@settings(max_examples=300, deadline=None)
@example((np.array([0, 0, 2, 3, 3, 9]), np.array([2, 3, 3, 5, 4, 10])))
def test_cover_is_a_minimal_cover_drawn_from_the_reach_extenders(ranges):
    cl, ch = ranges
    n = len(cl)
    chosen, k_lo, k_hi = raster._cover(cl, ch)

    def cells(idx):
        return set().union(*(range(cl[i], ch[i]) for i in idx))

    union = cells(range(n))
    assert cells(chosen) == union
    assert len(set(chosen.tolist())) == len(chosen)
    # The components: disjoint, apart, ordered, and together the union.
    assert (k_lo < k_hi).all() and (k_lo[1:] > k_hi[:-1]).all()
    assert set().union(*map(range, k_lo, k_hi)) == union
    # The ranges that extend the running reach, swept in order of start.
    extenders = {i for i in range(n) if i == 0 or ch[i] > ch[:i].max()}
    assert set(chosen.tolist()) <= extenders
    fewest = next(k for k in range(1, n + 1)
                  if any(cells(c) == union
                         for c in itertools.combinations(range(n), k)))
    assert len(chosen) == fewest
