"""End-to-end pipeline: derive, solve, build, verify, measure, render, and
write everything under an output directory with a hashed manifest.

The run is an ordered list of stages (sequences, arcs, build, verify,
projections, vtheta, tubes, area, dimension, containment, render); each
writes its own bundle files, and `run_stage` runs one of them alone.

Outputs are a pure function of the configuration (seeded sampling included);
two runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from pathlib import Path

from .dyadic import dyadic_to_json, exact_str, parse_rational
from .errors import CantorTubesError
from .hierarchy import (
    DEFAULT_MATERIALIZATION_CAP,
    Construction,
    verify_counts,
    verify_level_invariants,
    verify_spacing,
)
from .measures import (
    box_dimension_x_projection,
    dimension_bound_report,
    neighborhood_area,
    projection_lengths,
)
from .render import render_arc_diagram, render_gamma_theta, render_level_set, \
    render_tube_stage
from .reports import EXPECTED_FAILURES, FIRST_LEVEL_C_CEILING, known_shortfall
from .rotations import RotationFamily, verify_translation_invariants
from .sequences import build_schedule, check_parameters, derive_sequences, \
    validate_sequences

DEMO_BANNER = ("demo profile: shallow height recursion for deeper levels; "
               "structural and spacing checks only, the dimension theorem's "
               "constant constraints are not in force")


class PipelineError(CantorTubesError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; seeded sampling keeps reruns identical.
    The JSON form has one key per field, in field order."""

    s: Fraction = Fraction(1)
    c: Fraction = Fraction(1, 16)
    depth: int = 3
    profile: str = "strict"
    C_tube: Fraction = Fraction(16)
    raster_resolution: Fraction | None = None   # default: theta_2 / 4
    neighborhood_radius: Fraction | None = None  # default: theta_2
    materialization_cap: int = DEFAULT_MATERIALIZATION_CAP
    seed: int = 0
    spacing_samples: int = 2000
    containment_thetas: int = 20
    containment_anchors: int = 400

    def __post_init__(self):
        for key in ("materialization_cap", "spacing_samples",
                    "containment_thetas", "containment_anchors"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("C_tube", "neighborhood_radius"):
            if (getattr(self, key) or 0) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.raster_resolution is not None and self.raster_resolution <= 0:
            raise ValueError(
                f"raster_resolution must be > 0, got {self.raster_resolution}")
        check_parameters(self.s, self.c, self.profile)

    @classmethod
    def from_json(cls, blob: dict) -> "RunConfig":
        """Parse the JSON form: a missing or null key keeps its default, an
        unknown key is a ValueError."""
        parsers = {f.name: _PARSERS[f.type.split(" |")[0]] for f in fields(cls)}
        unknown = sorted(set(blob) - set(parsers))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        kw = {}
        for key, value in blob.items():
            if value is not None:
                parse, refused = parsers[key]
                try:
                    if isinstance(value, refused):
                        raise ValueError(f"a JSON {type(value).__name__} is "
                                         f"refused, got {value!r}")
                    kw[key] = parse(value)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from exc
        return cls(**kw)

    def to_json(self) -> dict:
        return {f.name: _dump(f, getattr(self, f.name)) for f in fields(self)}


#: How `RunConfig.from_json` parses a value, by its field's type, and the
#: JSON types it refuses rather than casts (a bool is an int).
_PARSERS = {"Fraction": (parse_rational, (bool,)), "int": (int, (bool, float)),
            "str": (str, (int, float, list, dict))}


def _dump(f, value):
    """JSON form of one `RunConfig` value: rationals as strings."""
    if value is None or not f.type.startswith("Fraction"):
        return value
    return str(value)


@dataclass
class RunBundle:
    """What a run wrote (`files`: path, size and hash per file) and whether
    every stage it ran passed."""

    config: RunConfig
    out_dir: Path
    files: list
    ok: bool


class _Run:
    """State shared by the stages of one run, each piece built on first use:
    config -> table -> construction -> rotation family -> materialized depth
    -> stage families.  A stage run on its own builds only what it reads."""

    def __init__(self, config: RunConfig, out_dir: Path | None):
        self.config = config
        self.out_dir = out_dir
        self.files = []

    @cached_property
    def table(self):
        cfg = self.config
        return derive_sequences(build_schedule(cfg.s, cfg.depth), cfg.c,
                                profile=cfg.profile, C_tube=cfg.C_tube)

    @cached_property
    def area_settings(self) -> tuple:
        """(radius, resolution) of the area stage, defaults resolved; checked."""
        cfg = self.config
        radius = cfg.neighborhood_radius
        radius = self.table.theta_(2) if radius is None else radius
        res = cfg.raster_resolution
        res = Fraction(radius, 4) if res is None else res
        if res <= 0:
            raise ValueError(f"raster_resolution must be > 0, got {res} "
                             "(neighborhood_radius/4 by default)")
        if radius > 0 and res > radius / 4:
            raise ValueError(f"raster_resolution {res} > neighborhood_radius/4")
        return radius, res

    @cached_property
    def cons(self) -> Construction:
        return Construction(self.table, cap=self.config.materialization_cap)

    @cached_property
    def rf(self) -> RotationFamily:
        return RotationFamily(self.cons)

    @cached_property
    def mat_depth(self) -> int:
        return self.cons.materializable_depth()

    @cached_property
    def stage_level(self) -> int:
        return min(2, self.mat_depth)

    @cached_property
    def fams(self) -> list:
        return self.rf.besicovitch_stage(self.stage_level)

    def write(self, rel: str, content: str):
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        data = content.encode()
        path.write_bytes(data)
        self.files.append({
            "path": rel,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })

    def write_json(self, rel: str, obj):
        self.write(rel, json.dumps(obj, indent=1) + "\n")


# -- stages: each writes its bundle files and returns whether it passed --------

def _sequences(run: _Run) -> bool:
    report = validate_sequences(run.table)
    run.write_json("sequences.json", {
        "table": run.table.to_json(),
        "validation": report.to_json(),
    })
    return report.ok


def _arcs(run: _Run) -> bool:
    sols = run.cons.sols
    checks = [s.check() for s in sols]
    run.write_json("arcs.json", {
        "solutions": [s.to_json() for s in sols],
        "checks": [r.to_json() for r in checks],
    })
    return all(r.ok for r in checks)


def _build(run: _Run) -> bool:
    for n in range(1, run.mat_depth + 1):
        lines = ["level,rank,anchor_x,anchor_y,width,height"]
        for rank, r in enumerate(run.cons.level(n).rects, start=1):
            lines.append(
                f"{r.level},{rank},{float(r.anchor.real)!r},"
                f"{float(r.anchor.imag)!r},{float(r.width)!r},{float(r.height)!r}")
        run.write(f"levels/level_{n}.csv", "\n".join(lines) + "\n")
    return True


def _verify(run: _Run) -> bool:
    cfg, cons, mat_depth = run.config, run.cons, run.mat_depth
    depth = run.table.depth
    reports = [verify_level_invariants(cons, n)
               for n in range(1, mat_depth + 1)]
    reports += [verify_spacing(cons, child)
                for child in range(2, mat_depth + 1)]
    reports += [verify_spacing(cons, child, n_samples=cfg.spacing_samples,
                               rng=random.Random(cfg.seed + child))
                for child in range(mat_depth + 1, depth + 1)]
    reports.append(verify_counts(cons, min(mat_depth, depth - 1)))
    reports.append(verify_translation_invariants(
        run.rf, rng=random.Random(cfg.seed + 1)))
    failures = [e.name for r in reports for e in r.failures]
    blob = {
        "profile": cfg.profile,
        "reports": [r.to_json() for r in reports],
        "failures": failures,
        "expected_failures": sorted(EXPECTED_FAILURES & set(failures)),
        "unexpected_failures": sorted(set(failures) - EXPECTED_FAILURES),
    }
    if cfg.profile == "demo":
        blob["banner"] = DEMO_BANNER
    run.write_json("verify.json", blob)
    return not blob["unexpected_failures"]


def _projections(run: _Run) -> bool:
    proj = {}
    for n in range(1, run.cons.counted_depth() + 1):
        ly, lx = projection_lengths(run.cons, n)
        proj[str(n)] = {"len_y": float(ly), "len_x": float(lx)}
        if n > run.mat_depth:
            proj[str(n)]["lazy"] = True
    run.write_json("projections.json", proj)
    return True


def _vtheta(run: _Run) -> bool:
    for n in range(1, run.rf.grid_depth()):
        lines = ["index,theta_num,theta_log2_den,x,y,case"]
        for e in run.rf.translation_table(n):
            d = dyadic_to_json(e.theta)
            lines.append(f"{e.index},{d['num']},{d['log2_den']},"
                         f"{e.x!r},{e.y!r},{e.case}")
        run.write(f"vtheta_level_{n}.csv", "\n".join(lines) + "\n")
    return True


def _tubes(run: _Run) -> bool:
    fams = run.fams
    run.write_json("tubes.json", {
        "level": run.stage_level,
        "families": len(fams),
        "tubes_per_family": len(fams[0]),
        "C": str(fams[0].C),
        "half_width": fams[0].half_width,
        "half_height": fams[0].half_height,
    })
    return True


def _area(run: _Run) -> bool:
    if run.stage_level < 2:
        return True
    radius, res = run.area_settings
    est = neighborhood_area(run.fams, float(radius), float(res))
    run.write_json("area.json", {
        "stage_level": run.stage_level,
        "radius": str(radius),
        "resolution": str(res),
        "estimate": est.to_json(),
        "bound": dimension_bound_report(run.cons, run.stage_level - 1, est),
    })
    return True


def _dimension(run: _Run) -> bool:
    cons, depth = run.cons, run.table.depth
    dim = box_dimension_x_projection(cons, cons.counted_depth())
    run.write_json("dimension.json", {
        "estimate": dim.to_json(),
        "stage_bounds": [dimension_bound_report(cons, n)
                         for n in range(1, depth)],
    })
    lines = ["level,scale,count,covering_sum,slope"]
    for p, (d, cnt), s in zip(dim.levels, dim.scales, dim.covering_sums):
        lines.append(f"{p},{exact_str(d)},{cnt},{s!r},{dim.slope!r}")
    run.write("dimension.csv", "\n".join(lines) + "\n")
    return True


def _containment(run: _Run) -> bool:
    cfg = run.config
    # Checking level n samples level n + 1, so the deepest level is skipped.
    levels = [n for n in sorted({1, run.stage_level}) if n < run.table.depth]
    # Each level's anchors are drawn once and shared by its checks.
    samples = {n: run.rf.level_anchors(n + 1, cfg.containment_anchors,
                                       random.Random(cfg.seed + 3))
               for n in levels}
    rng = random.Random(cfg.seed + 2)
    checks = []
    worst = {}
    shortfalls = []
    for _ in range(cfg.containment_thetas):
        th = Fraction(rng.random()).limit_denominator(10**12)
        for n in levels:
            rep = run.rf.check_containment(th, n, sample=samples[n])
            checks.append(rep.to_json())
            worst[n] = max(worst.get(n, 0.0), rep.C_min)
            if not rep.contained:
                shortfalls.append(rep)
    known = sum(1 for r in shortfalls if known_shortfall(r.level, r.C_min))
    unexpected = len(shortfalls) - known
    run.write_json("containment.json", {
        "C": str(run.table.C_tube),
        "max_C_min_per_level": {str(k): v for k, v in sorted(worst.items())},
        "first_level_known_ceiling": FIRST_LEVEL_C_CEILING,
        "known_first_level_shortfalls": known,
        "unexpected_shortfalls": unexpected,
        "checks": checks,
    })
    return not unexpected


def _render(run: _Run) -> bool:
    cons, rf, mat_depth = run.cons, run.rf, run.mat_depth
    run.write("svg/arc_level_1.svg", render_arc_diagram(cons, 1))
    if mat_depth >= 2:
        run.write("svg/level_2.svg", render_level_set(cons, 2))
    run.write("svg/tubes_stage_1.svg",
              render_tube_stage(rf, 1, family_stride=2))
    run.write("svg/gamma_samples.svg", render_gamma_theta(
        rf, [0.0, 0.21, 0.55, 0.83], run.stage_level,
        n_samples=200, seed=run.config.seed))
    return True


#: The bundle stages in run order; a stage is named by its function's name
#: without the leading underscore.
_STAGES = (_sequences, _arcs, _build, _verify, _projections, _vtheta, _tubes,
           _area, _dimension, _containment, _render)


def _execute(run: _Run, stages) -> bool:
    """Run the stages in order; True when every one passed.  A package error
    is re-raised as a `PipelineError` naming its stage."""
    ok = True
    for stage in stages:
        try:
            ok = stage(run) and ok
        except CantorTubesError as exc:
            raise PipelineError(stage.__name__[1:], exc) from exc
    return ok


def run_pipeline(config: RunConfig, out_dir) -> RunBundle:
    """Run every stage and write the bundle with its hashed manifest.  A
    depth below 2 (no grid refinement to verify) and bad area settings are
    refused before any stage writes a file."""
    if config.depth < 2:
        raise ValueError(f"the pipeline needs depth >= 2, got {config.depth}")
    out_dir = Path(out_dir)
    run = _Run(config, out_dir)
    run.area_settings  # raises on bad settings
    ok = _execute(run, _STAGES)
    run.write_json("manifest.json", {
        "config": config.to_json(),
        "ok": ok,
        "banner": DEMO_BANNER if config.profile == "demo" else None,
        "files": sorted(run.files, key=lambda f: f["path"]),
    })
    return RunBundle(config=config, out_dir=out_dir, files=run.files, ok=ok)


def run_stage(config: RunConfig, name: str, out_dir) -> RunBundle:
    """Run one stage on its own; it writes the same files, at the same paths,
    as in a full run.  No manifest is written."""
    stages = {stage.__name__[1:]: stage for stage in _STAGES}
    if name not in stages:
        raise ValueError(f"unknown stage {name!r}; one of {tuple(stages)}")
    out_dir = Path(out_dir)
    run = _Run(config, out_dir)
    ok = _execute(run, (stages[name],))
    return RunBundle(config=config, out_dir=out_dir, files=run.files, ok=ok)


def rotation_family(config: RunConfig) -> RotationFamily:
    """The rotation family of the construction a run of `config` uses."""
    return _Run(config, None).rf


def verify_manifest(out_dir) -> list:
    """Re-hash every manifest entry; returns mismatched paths."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    bad = []
    for entry in manifest["files"]:
        if entry["path"] == "manifest.json":
            continue
        p = out_dir / entry["path"]
        if not p.exists():
            bad.append(entry["path"])
            continue
        if hashlib.sha256(p.read_bytes()).hexdigest() != entry["sha256"]:
            bad.append(entry["path"])
    return bad
