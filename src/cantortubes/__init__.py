"""Cantor-graph curve construction with rotated-tube coverings.

The package builds, verifies, measures and renders a planar fractal curve
(a graph over a Cantor set, assembled from nested rectangle generations
along circular arcs) together with the family of rotated, translated tube
unions that cover every rotated copy of it.

The root exports each layer's entry points (sequences, arcs, the
construction and its checks, the rotation family, the measurements, the
pipeline run) and the package errors behind the CLI's exit codes; the rest
is reached through its submodule (`cantortubes.render`, ...).
"""

from .arcs import solve_table_arcs
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
from .hierarchy import Construction, verify_counts, verify_spacing
from .measures import (
    box_dimension_x_projection,
    dimension_bound_report,
    neighborhood_area,
    pairwise_overlap_loss,
    projection_lengths,
)
from .pipeline import RunConfig, run_pipeline, verify_manifest
from .rotations import RotationFamily
from .sequences import build_schedule, derive_sequences, validate_sequences

__version__ = "0.1.0"

__all__ = [
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
