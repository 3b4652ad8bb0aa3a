import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cantortubes.hierarchy import Construction
from cantortubes.measures import (
    AreaEstimate,
    box_dimension_x_projection,
    covering_sum,
    dimension_bound_report,
    interval_union_length,
    neighborhood_area,
    pairwise_overlap_loss,
    projection_lengths,
    projection_lengths_lazy,
)
from cantortubes import raster
from cantortubes.raster import rasterize
from cantortubes.rotations import RotationFamily, TubeFamily
from cantortubes.sequences import build_schedule, derive_sequences


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


# -- interval sweep ------------------------------------------------------------

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

def test_projection_level1(cons):
    len_y, len_x = projection_lengths(cons.level(1), cons.prec)
    assert float(len_y) == 1 and float(len_x) == 1


def test_projection_level2(cons, strict_table):
    len_y, len_x = projection_lengths(cons.level(2), cons.prec)
    # y-mass survives: at least 1 - c2*delta_1 (exact bound 1/4), and the
    # x-projection is exactly count * width since the pieces are disjoint.
    assert float(len_y) >= float(1 - strict_table.c2)
    assert abs(float(len_x) - cons.N(1) * float(strict_table.delta_(2))) < 1e-30


def test_projection_lazy_matches_materialized(cons):
    len_y2, len_x2 = projection_lengths(cons.level(2), cons.prec)
    lazy_y, lazy_x = projection_lengths_lazy(cons, 2)
    assert abs(float(len_y2) - float(lazy_y)) < 1e-25
    assert abs(float(len_x2) - float(lazy_x)) < 1e-25


def test_projection_level3_lazy(cons, strict_table):
    # Level 3 is never materialized; the telescoped y-union and counted
    # x-union still come out exactly.
    len_y3, len_x3 = projection_lengths_lazy(cons, 3)
    assert float(len_y3) >= float((1 - strict_table.c2) * (1 - strict_table.c2 * strict_table.delta_(2)))
    assert len_x3 == cons.population(3) * strict_table.delta_(3)
    # Horizontal mass shrinks like the width/height ratio: the normalized
    # quantity stays of unit order while len_x itself collapses.
    for n in (2, 3):
        _, len_x = projection_lengths_lazy(cons, n)
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
    """(full_in, center_in, touched) painted on `grid`'s frame one box at a
    time: each box's per-row x-interval scatters +-1 into a 2-D difference
    grid, whose running sum along each row counts the boxes over a cell."""
    cell, nx, ny = grid.cell, grid.nx, grid.ny
    rc = cell * np.sqrt(2.0) / 2.0
    big = (nx + 4) * cell
    ys = grid.y0 + (np.arange(ny) + 0.5) * cell
    rows = np.arange(ny)
    dtype = np.int16 if sum(map(len, families)) <= 32_767 else np.int32
    diffs = [np.zeros((ny, nx + 1), dtype=dtype) for _ in range(3)]
    for fam in families:
        hw, hh = fam.half_width + inflate, fam.half_height + inflate
        ca, sa = float(np.cos(fam.rotation)), float(np.sin(fam.rotation))
        for cx, cy in fam.centers:
            dy = ys - cy
            for diff, grow in zip(diffs, (-rc, 0.0, rc)):
                w, h = hw + grow, hh + grow
                if w <= 0 or h <= 0:
                    continue
                lo1, hi1 = _reference_interval(ca, sa * dy, w, big)
                lo2, hi2 = _reference_interval(-sa, ca * dy, h, big)
                lo = np.maximum(lo1, lo2) + (cx - grid.x0)
                hi = np.minimum(hi1, hi2) + (cx - grid.x0)
                il = np.clip(np.ceil(lo / cell - 0.5).astype(np.int64), 0, nx)
                ih = np.clip(np.floor(hi / cell - 0.5).astype(np.int64) + 1,
                             0, nx)
                ok = ih > il
                np.add.at(diff, (rows[ok], il[ok]), 1)
                np.add.at(diff, (rows[ok], ih[ok]), -1)
    return tuple(np.cumsum(d, axis=1, dtype=dtype)[:, :nx] > 0 for d in diffs)


def painted_masks(families, inflate, grid):
    """(full_in, center_in, touched) painted from the [il, ih) ranges the
    band painter solves on `grid`'s frame, band by band, and the bands."""
    boxes = raster._Boxes(families, inflate, grid.x0, grid.y0, grid.cell,
                          grid.nx, grid.ny)
    bands = list(raster._bands([boxes], grid.ny, grid.nx))
    diffs = np.zeros((3, grid.ny, grid.nx + 1), dtype=np.int32)
    for r0, r1 in bands:
        rows, il_rows, ih_rows = boxes.ranges(r0, r1)
        for diff, il, ih in zip(diffs, il_rows, ih_rows):
            ok = ih > il
            np.add.at(diff, (rows[ok] + r0, il[ok]), 1)
            np.add.at(diff, (rows[ok] + r0, ih[ok]), -1)
    return tuple(np.cumsum(d, axis=1)[:, :grid.nx] > 0 for d in diffs), bands


def stacked_family(n):
    fam = box_family(0.5, 0.5, 1, 1)
    fam.centers = np.repeat(fam.centers, n, axis=0)
    return fam


def tall_family(n):
    # Thin near-vertical boxes on a fine grid: each box's ranges run
    # through many row bands of the painter.
    rng = np.random.default_rng(5)
    fam = box_family(0.5, 0.5, 0.001, 0.5, angle=0.002)
    fam.centers = np.column_stack([0.5 + 0.001 * rng.random(n),
                                   0.5 + 0.01 * rng.random(n)])
    return fam


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
        fam.centers = rng.random((3, 2))
        fams.append(fam)
    return fams


@pytest.mark.parametrize("case", ["level2", "level2-inflated", "stacked",
                                  "multi-band", "exact-edges", "quadrants"])
def test_raster_matches_per_box_reference(case, rf, strict_table):
    if case.startswith("level2"):
        # l = 0 is axis-aligned: the degenerate-slope branch of the solve.
        fams = [rf.tube_family(2, l, C=16) for l in (0, 64, 128)]
        res = 1 / 512
        inflate = 0.0
        if case == "level2-inflated":
            inflate = float(strict_table.theta_(2))
    elif case == "stacked":
        fams, inflate, res = [stacked_family(32_768)], 0.0, 0.1
    elif case == "exact-edges":
        fams, inflate, res = exact_edge_families(), 0.0, 0.125
    elif case == "quadrants":
        fams, inflate, res = quadrant_families(), 0.01, 1 / 256
    else:
        fams, inflate, res = [tall_family(100)], 0.0, 2.0 ** -15
    grid = rasterize(fams, res, inflate=inflate)
    painted, bands = painted_masks(fams, inflate, grid)
    if case == "multi-band":
        # Every box spans more rows than any band holds.
        assert len(bands) > 2
        assert grid.ny // 2 > max(r1 - r0 for r0, r1 in bands)
    ref = reference_masks(fams, inflate, grid)
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
    assert len(list(raster._bands(tables, frame.ny, frame.nx))) > 2
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
    fam.centers = np.array([[rng.uniform(0, 0.5), rng.uniform(0, 0.5)]
                            for _ in range(n)])
    return fam


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
        b.centers = a.centers + 0.01
        b.rotation = a.rotation + 0.05
    est = pairwise_overlap_loss(a, b, 1 / 256)
    boxes_b = exact_boxes(b)
    exact = exact_union_area(exact_boxes(a) + boxes_b) \
        - exact_union_area(boxes_b)
    assert est.lower <= exact <= est.upper
    assert exact > 0
