"""The benchmark's workloads, their timed operations and their metrics.

An operation (op) is one `run_pipeline` call or one angle query.  Ops are
timed in batches: a pipeline batch is one call, a query batch is the
workload's `QUERY_BATCH` seeded angles, replayed batch after batch so every
batch does the same work.  Every op's output is checked (see `checks`).

Workloads:

* ``strict3-default`` -- the documented default run, `RunConfig()` with the
  workload seed.  Dominated by the stage-2 raster (17.3 M cells).
* ``strict4-lazy`` -- strict depth 4 with a coarse raster: dominated by the
  mpmath count searches of the sampled lazy level-4 spacing checks.
* ``angle-queries`` -- one client in a closed loop against a warm strict
  depth-3 construction; each query checks containment at levels 1 and 2 and
  measures the overlap loss of the two level-2 families around its angle.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
from spans import END, NAME, NOTE, PARENT, START, SpanStats

QUERY_BATCH = 50
QUERY_C = 16
QUERY_SAMPLES = 400


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    problems: list
    info: dict = field(default_factory=dict)


def timed(fn, *args, **kwargs):
    """(result, wall seconds, cpu seconds) of one call."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - w0, time.process_time() - c0


class PipelineWorkload:
    batch_size = 1
    min_batches = 1

    def __init__(self, name: str, frozen_area: float | None = None, **config):
        self.name = name
        self.frozen_area = frozen_area
        self.config = config

    def setup(self, seed: int, out_root: Path):
        from cantortubes.pipeline import RunConfig

        return {"config": RunConfig(seed=seed, **self.config),
                "seed": seed, "out_root": out_root}

    def run_op(self, state, i: int, references: dict | None = None) -> OpResult:
        from cantortubes import pipeline

        out_dir = state["out_root"] / f"{self.name}-op{i}"
        try:
            _, wall, cpu = timed(pipeline.run_pipeline, state["config"], out_dir)
            problems = checks.check_bundle(out_dir, self.frozen_area)
            info = {"verdicts": checks.bundle_verdicts(out_dir),
                    "known_shortfalls": _known_shortfalls(out_dir)}
            if references:
                info["files"] = checks.compare_hashes(
                    checks.bundle_hashes(out_dir), references, state["seed"])
            return OpResult(wall, cpu, problems, info)
        except Exception as exc:  # a failed op is counted, the run goes on
            return OpResult(math.nan, math.nan, [f"{type(exc).__name__}: {exc}"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def _known_shortfalls(out_dir) -> int:
    import json

    blob = json.loads((Path(out_dir) / "containment.json").read_text())
    return blob["known_first_level_shortfalls"]


class AngleQueryWorkload:
    """Closed loop, one client: the next query starts when the last ends."""

    name = "angle-queries"
    batch_size = QUERY_BATCH
    min_batches = 2   # at least 100 queries, so ten lie beyond the p90

    def setup(self, seed: int, out_root: Path):
        from cantortubes.hierarchy import Construction
        from cantortubes.rotations import RotationFamily
        from cantortubes.sequences import build_schedule, derive_sequences

        table = derive_sequences(build_schedule(1, 3), Fraction(1, 16))
        cons = Construction(table)
        cons.level(2)
        rf = RotationFamily(cons)
        for n in range(1, rf.grid_depth()):
            rf.translation_table(n)
        # One angle per 1/QUERY_BATCH-wide slice of [0, 1), placed by the
        # seed: every seed sees the same spread of family geometries.
        draw = random.Random(seed)
        thetas = [Fraction((q + draw.random()) / QUERY_BATCH)
                  .limit_denominator(10**12) for q in range(QUERY_BATCH)]
        return {"rf": rf, "theta_2": table.theta_(2), "seed": seed,
                "thetas": thetas}

    def run_op(self, state, i: int, references: dict | None = None) -> OpResult:
        from cantortubes import measures
        from cantortubes.pipeline import FIRST_LEVEL_C_CEILING

        rf, theta_2 = state["rf"], state["theta_2"]
        q = i % QUERY_BATCH
        theta, key = state["thetas"][q], f"{state['seed']}/{q}"

        def query():
            reports = [rf.check_containment(theta, n, C=QUERY_C,
                                            n_samples=QUERY_SAMPLES,
                                            rng=random.Random(key))
                       for n in (1, 2)]
            l = math.floor(theta / theta_2)
            loss = measures.pairwise_overlap_loss(
                rf.tube_family(2, l), rf.tube_family(2, l + 1),
                float(theta_2) / 2)
            return reports, loss

        try:
            ((r1, r2), loss), wall, cpu = timed(query)
        except Exception as exc:  # a failed op is counted, the run goes on
            return OpResult(math.nan, math.nan, [f"{type(exc).__name__}: {exc}"])
        problems = checks.check_query(r1, r2, loss, FIRST_LEVEL_C_CEILING)
        return OpResult(wall, cpu, problems,
                        {"known_shortfalls": int(not r1.contained)})


WORKLOADS = {
    w.name: w for w in (
        PipelineWorkload("strict3-default", frozen_area=checks.FROZEN_AREA),
        PipelineWorkload("strict4-lazy", depth=4,
                         neighborhood_radius=Fraction(1, 8),
                         raster_resolution=Fraction(1, 32),
                         spacing_samples=300),
        AngleQueryWorkload(),
    )
}


# -- runs ------------------------------------------------------------------------

@dataclass
class Batch:
    ops: list

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)


def run_batch(workload, state, first: int, references=None) -> Batch:
    return Batch([workload.run_op(state, first + k, references)
                  for k in range(workload.batch_size)])


def run_for(workload, state, seconds: float, references=None) -> list:
    """Batches until the next one would end after `seconds` (at least
    `min_batches`)."""
    start = time.perf_counter()
    batches = []
    while True:
        batches.append(run_batch(workload, state,
                                 len(batches) * workload.batch_size, references))
        elapsed = time.perf_counter() - start
        if (len(batches) >= workload.min_batches
                and elapsed * (len(batches) + 1) / len(batches) > seconds):
            return batches


def percentile(values: list, q: int) -> float:
    """q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(batches: list, setup_s: float, peak_rss_mb: float) -> dict:
    ok = [b for b in batches if not b.failed]
    lat_ms = [op.wall_s * 1e3 for b in batches for op in b.ops
              if not op.problems]
    if not ok or not lat_ms:
        return {}
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(b.wall_s for b in ok), "s"),
        "cpu_s": (statistics.median(b.cpu_s for b in ok), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_p90_ms": (percentile(lat_ms, 90), "ms"),
    }


# -- per-layer metrics from a traced batch ---------------------------------------

#: Direct children of `pipeline.run_pipeline` that make up each stage.
STAGES = {
    "arcs": ("arcs.solve_table_arcs", "arcs.check"),
    "build": ("hierarchy.materializable_depth",),
    "verify": ("hierarchy.verify_level_invariants", "hierarchy.verify_spacing",
               "hierarchy.verify_counts",
               "rotations.verify_translation_invariants"),
    "area": ("measures.neighborhood_area",),
    "containment": ("rotations.check_containment",),
    "render": ("render.render_arc_diagram", "render.render_level_set",
               "render.render_tube_stage", "render.render_gamma_theta"),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _module_top(st: SpanStats, module: str) -> list:
    """Spans of a module that have no ancestor in the same module."""
    prefix = module + "."
    out = []
    for s in st.spans:
        if not s[NAME].startswith(prefix):
            continue
        p = s[PARENT]
        while p >= 0 and not st.spans[p][NAME].startswith(prefix):
            p = st.spans[p][PARENT]
        if p < 0:
            out.append(s)
    return out


def layer_metrics(st: SpanStats, batch: Batch, overhead_s: float) -> dict:
    calls, self_s, total_s = st.calls, st.self_s, st.total_s
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def timing(name, *kinds):
        for kind in kinds:
            if kind == "calls":
                put(f"{name}.calls", calls.get(name, 0), "count")
            else:
                put(f"{name}.{kind}",
                    (self_s if kind == "self_s" else total_s).get(name, 0.0),
                    "s")

    # raster
    timing("raster.rasterize", "calls", "self_s")
    grids = [n for n in st.notes("raster.rasterize") if isinstance(n, tuple)]
    cells = sum(g[0] for g in grids)
    put("raster.cells", cells, "count")
    put("raster.boxes", sum(g[1] for g in grids), "count")
    put("raster.cells_per_s",
        _ratio(cells, self_s.get("raster.rasterize", 0.0)), "1/s")
    # Computed, not measured: three bool masks plus three int16 difference
    # grids of nx + 1 columns per rasterized grid.
    put("raster.bytes_computed",
        sum(3 * nx * ny + 3 * 2 * (nx + 1) * ny for _, _, nx, ny in grids),
        "bytes")

    # measures
    timing("measures.pairwise_overlap_loss", "calls", "total_s", "self_s")
    timing("measures.neighborhood_area", "total_s")

    # hierarchy
    timing("hierarchy.count_children", "calls", "total_s")
    timing("hierarchy.child_anchor", "calls", "self_s")
    searches = calls.get("hierarchy.count_children", 0)
    put("hierarchy.child_anchor.per_count", _ratio(
        st.count("hierarchy.child_anchor", under="hierarchy.count_children"),
        searches), "ratio")
    escalated = st.count("hierarchy.child_anchor", note=True)
    put("hierarchy.child_anchor.escalated", escalated, "count")
    put("hierarchy.escalation_ratio",
        _ratio(escalated, calls.get("hierarchy.child_anchor", 0)), "ratio")
    put("hierarchy.build_level.cap_refusals",
        st.count("hierarchy.build_level", note="PopulationCapError"), "count")
    timing("hierarchy.verify_spacing", "total_s")
    timing("hierarchy.anchor_by_path", "calls", "total_s")

    # rotations
    timing("rotations.gamma_anchors", "total_s")
    timing("rotations.check_containment", "calls", "self_s", "total_s")
    put("rotations.scan_all_ratio", _ratio(
        st.count("rotations.check_containment", note=True),
        calls.get("rotations.check_containment", 0)), "ratio")
    timing("rotations.tube_family", "calls", "self_s")
    timing("rotations.v_limit", "calls", "self_s")

    # arcs, sequences, render, pipeline
    timing("arcs.solve_arc", "calls", "self_s")
    put("sequences.self_s", sum(v for k, v in self_s.items()
                                if k.startswith("sequences.")), "s")
    render = _module_top(st, "render")
    put("render.total_s", sum(s[END] - s[START] for s in render), "s")
    put("render.bytes", sum(s[NOTE] or 0 for s in render), "bytes")
    put("pipeline.self_s", self_s.get("pipeline.run_pipeline", 0.0), "s")
    put("pipeline.bytes_written",
        sum(st.notes("pipeline.run_pipeline"), 0), "bytes")
    for stage, names in STAGES.items():
        put(f"pipeline.stage.{stage}_s",
            st.children_total("pipeline.run_pipeline", names), "s")
    same, compared = (0, 0)
    verdicts = {}
    for op in batch.ops:
        if "files" in op.info:
            same, compared = op.info["files"]
        for k, v in op.info.get("verdicts", {}).items():
            verdicts[k] = verdicts.get(k, 0) + v
    put("pipeline.files_identical", same, "count")
    put("pipeline.files_compared", compared, "count")

    # verdict health
    for status in ("pass", "fail", "inconclusive"):
        put(f"verify.{status}", verdicts.get(status, 0), "count")
    put("containment.known_shortfalls",
        sum(op.info.get("known_shortfalls", 0) for op in batch.ops), "count")

    put("trace.spans", len(st.spans), "count")
    put("trace.overhead_s", overhead_s, "s")
    return m
