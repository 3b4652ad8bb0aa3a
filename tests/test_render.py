import re

import pytest

from cantortubes.errors import RenderCapError
from cantortubes.hierarchy import Construction
from cantortubes.render import (
    render_arc_diagram,
    render_gamma_theta,
    render_level_set,
    render_tube_stage,
)
from cantortubes.rotations import RotationFamily


@pytest.fixture(scope="module")
def cons(strict_table, strict_arcs):
    return Construction(strict_table, sols=strict_arcs)


@pytest.fixture(scope="module")
def rf(cons):
    return RotationFamily(cons)


def test_arc_diagram_structure(cons):
    svg = render_arc_diagram(cons, 1)
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="-0.050000000000 -1.050000000000 1.100000000000 1.100000000000"' in svg
    for layer in ("frame", "arc", "anchors", "markers", "labels"):
        assert f'<g id="{layer}">' in svg
    assert svg.count("<circle") >= cons.N(1)


def test_level_set_corners_match_level(cons):
    svg = render_level_set(cons, 2)
    rects = re.findall(r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([-\d.]+)" '
                       r'height="([-\d.]+)"', svg)
    # First match is the unit frame; the rest are the level's rectangles.
    assert len(rects) == 1 + len(cons.level(2).rects)
    for (sx, sy, sw, sh), rect in zip(rects[1:], cons.level(2).rects):
        x0, y0, x1, y1 = rect.corners_float()
        assert abs(float(sx) - x0) < 1e-9
        assert abs(float(sy) - y0) < 1e-9
        assert abs(float(sw) - (x1 - x0)) < 1e-9
        assert abs(float(sh) - (y1 - y0)) < 1e-9


def test_level_set_cap_and_sampling(cons):
    with pytest.raises(RenderCapError):
        render_level_set(cons, 3)
    # Past the table depth the level is a configuration error, not a cap.
    with pytest.raises(ValueError, match="outside table depth"):
        render_level_set(cons, 4)
    svg = render_level_set(cons, 3, sample=40, seed=1)
    assert "sampled" in svg
    again = render_level_set(cons, 3, sample=40, seed=1)
    assert svg == again  # seeded sampling is deterministic


def test_tube_stage_render(rf):
    svg = render_tube_stage(rf, 1, family_stride=4)
    assert svg.count("<polygon") == 5  # indices 0,4,8,12,16
    assert '<g id="family-0">' in svg


def test_gamma_theta_render(rf):
    svg = render_gamma_theta(rf, [0.0, 0.4], 2, n_samples=50, seed=3)
    assert svg.count("<circle") == 2 * len(rf.cons.level(2).rects)
    assert "theta = 0.400000" in svg

