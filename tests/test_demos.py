"""The public surface: the package root, the six demos, the README's
library quickstart, and the demo-only geometry helpers in
demos/_geometry.py.  Demo 06 writes its bundle under demos/out/pipeline."""

import random
import runpy
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cantortubes
from _geometry import angle_profile, empirical_v_bounds, \
    perp_bisector_axis_crossing
from cantortubes.dyadic import pow2
from cantortubes.hierarchy import Construction
from cantortubes.rotations import RotationFamily

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("0[1-6]_*.py"))
assert len(DEMOS) == 6, DEMOS


def test_package_root_exports_exactly_its_surface():
    # The root holds the entry points the README, the demos and the CLI's
    # exit codes use; a star import binds those names and nothing else.
    assert cantortubes.__all__ == [
        "build_schedule", "derive_sequences", "validate_sequences",
        "solve_table_arcs",
        "Construction", "verify_counts", "verify_spacing", "projection_lengths",
        "RotationFamily",
        "box_dimension_x_projection", "dimension_bound_report",
        "neighborhood_area", "pairwise_overlap_loss",
        "RunConfig", "run_pipeline", "verify_manifest",
        "BracketError", "CantorTubesError", "ConstructionError",
        "DepthUnreachableError", "FeasibilityError", "GridTooLargeError",
        "OffGridError", "PopulationCapError", "RenderCapError",
    ]
    for name in cantortubes.__all__:
        assert not isinstance(getattr(cantortubes, name), types.ModuleType), name
    namespace = {}
    exec("from cantortubes import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(cantortubes.__all__)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    # The "Library quickstart" block runs as written and prints the counts
    # its comments state.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart")[1]
    block = section.split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[:2] == [
        "16 1012768224", "16204291584"]


# -- demos/_geometry.py ------------------------------------------------------

def test_axis_crossing_unit_level():
    # With delta = Delta = 1 the bisector meets the x-axis at (1, 0).
    assert perp_bisector_axis_crossing(1, 1) == (Fraction(1), Fraction(0))
    assert perp_bisector_axis_crossing(Fraction(1, 2), 1) == (Fraction(5, 4), Fraction(0))


def test_angle_profile_monotone_to_zero():
    # Pushing the center outward along the bisector shrinks the sub-arc angle
    # monotonically toward zero.
    ts = np.linspace(0.0, 5000.0, 20001)
    angles = angle_profile(1, 1, pow2(-4), ts)
    assert np.all(np.diff(angles) < 0)
    assert angles[-1] < angles[0] * 1e-3
    assert angles[-1] > 0


def test_empirical_v_bounds(strict_table, strict_arcs):
    rf = RotationFamily(Construction(strict_table, sols=strict_arcs))
    b1 = empirical_v_bounds(rf, 1, rng=random.Random(9))
    # Below the coarsest step v is a unit-square anchor: the x constant is
    # about 1/theta_1 = 16; record-style check against the frozen ceiling.
    assert 10 < b1["K_x"] <= 16
    assert b1["K_y"] <= 2
    b2 = empirical_v_bounds(rf, 2, rng=random.Random(9))
    assert b2["K_x"] <= 4  # delta_2/theta_2 = 1/4 plus rotation drift
    assert b2["K_y"] <= 2
