"""Cantor-graph curve construction with rotated-tube coverings.

The package builds, verifies, measures and renders a planar fractal curve
(a graph over a Cantor set, assembled from nested rectangle generations
along circular arcs) together with the family of rotated, translated tube
unions that cover every rotated copy of it.
"""

from .arcs import ArcSolution, solve_arc, solve_table_arcs
from .errors import (
    BracketError,
    CantorTubesError,
    ConstructionError,
    DepthUnreachableError,
    FeasibilityError,
    GridTooLargeError,
    OffGridError,
    PopulationCapError,
    RenderCapError,
)
from .hierarchy import (
    Construction,
    LevelSet,
    RectNode,
    child_anchor,
    child_rect,
    count_children,
    verify_counts,
    verify_level_invariants,
    verify_spacing,
)
from .measures import (
    AreaEstimate,
    DimensionEstimate,
    box_dimension_x_projection,
    dimension_bound_report,
    interval_union_length,
    neighborhood_area,
    pairwise_overlap_loss,
    projection_lengths,
    projection_lengths_lazy,
)
from .pipeline import RunConfig, run_pipeline, verify_manifest
from .render import render_svg
from .rotations import (
    RotationFamily,
    TranslationTable,
    TubeFamily,
    empirical_v_bounds,
)
from .sequences import (
    DimensionSchedule,
    SequenceTable,
    build_schedule,
    derive_sequences,
    validate_sequences,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
