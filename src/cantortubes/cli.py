"""Command-line front end.

Exit codes: 0 success, 1 verification failures present, 2 configuration
error (a construction that cannot be built included), 3 resource cap
exceeded.  A package error carries its own code (`exit_code`); a
`ValueError` or `OSError` is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import CantorTubesError
from .pipeline import (
    PipelineError,
    RunConfig,
    rotation_family,
    run_pipeline,
    run_stage,
    verify_manifest,
)
from .render import render_svg

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

#: Subcommands that run one pipeline stage: (command, stage, help).
STAGE_COMMANDS = (
    ("seq", "sequences", "derive and validate the scale sequences"),
    ("arc", "arcs", "solve the per-level arcs"),
    ("build", "build", "materialize levels to CSV"),
    ("verify", "verify", "run the verification suite"),
    ("vtheta", "vtheta", "dump the translation-vector tables"),
    ("area", "area", "measure the stage neighborhood area"),
    ("dim", "dimension", "box-dimension estimate of the x-projection"),
)


def _load_config(args) -> RunConfig:
    """The --config blob with the given flags laid over it, parsed once."""
    blob = {}
    if args.config:
        blob = json.loads(Path(args.config).read_text())
        if not isinstance(blob, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object")
    for key in ("s", "c", "depth", "profile", "seed"):  # flags named as keys
        if getattr(args, key) is not None:
            blob[key] = getattr(args, key)
    return RunConfig.from_json(blob)


def _emit(args, name: str, text: str):
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    print(path)


def cmd_stage(args) -> int:
    """Run one pipeline stage; it writes its bundle files under --out."""
    bundle = run_stage(_load_config(args), args.stage,
                       Path(args.out) if args.out else Path("."))
    for f in bundle.files:
        print(bundle.out_dir / f["path"])
    if args.stage == "verify":
        blob = json.loads((bundle.out_dir / "verify.json").read_text())
        for r in blob["reports"]:
            for e in r["checks"]:
                print(f"[{e['status']:>12}] {r['title']}: {e['name']}")
    return EXIT_OK if bundle.ok else EXIT_VERIFICATION


def cmd_tubes(args) -> int:
    rf = rotation_family(_load_config(args))
    fam = rf.tube_family(args.level, args.index, variant=args.variant)
    corners = fam.corners()
    lines = ["tube,corner,x,y"]
    for t, quad in enumerate(corners):
        for ci, (x, y) in enumerate(quad):
            lines.append(f"{t},{ci},{x!r},{y!r}")
    _emit(args, f"tubes_level_{args.level}_l{args.index}.csv",
          "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_render(args) -> int:
    params = {"level": args.level}
    if args.target == "gamma_theta":
        thetas = [float(t) for t in (args.thetas or "0,0.3,0.7").split(",")]
        if not all(map(math.isfinite, thetas)):
            raise ValueError(f"--thetas must be finite angles, got {args.thetas}")
        params["thetas"] = thetas
    rf = rotation_family(_load_config(args))
    text = render_svg(args.target, rf.cons, rf, **params)
    _emit(args, f"{args.target}_level_{args.level}.svg", text)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out) if args.out else Path("pipeline_out")
    bundle = run_pipeline(cfg, out)
    bad = verify_manifest(out)
    print(f"wrote {len(bundle.files)} files under {out}")
    if bad:
        print(f"manifest hash mismatches: {bad}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK if bundle.ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cantortubes",
        description="Cantor-graph curve construction, verification, "
                    "measurement and rendering")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory (default: cwd)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--s", help="target dimension, e.g. 1 or 1/2")
        sp.add_argument("--c", help="base constant, e.g. 2^-4")
        sp.add_argument("--depth", type=int)
        sp.add_argument("--profile", choices=("strict", "demo"))
        sp.add_argument("--seed", type=int)
        # Accept the global flags after the subcommand too; SUPPRESS keeps
        # a before-subcommand value from being clobbered by the default.
        sp.add_argument("--config", default=argparse.SUPPRESS)
        sp.add_argument("--out", default=argparse.SUPPRESS)

    for command, stage, help_text in STAGE_COMMANDS:
        sp = sub.add_parser(command, help=help_text)
        if command == "seq":
            sp.add_argument("action", choices=("derive",))
        common(sp)
        sp.set_defaults(fn=cmd_stage, stage=stage)

    sp = sub.add_parser("tubes", help="dump one tube family's corners")
    sp.add_argument("--level", type=int, default=2)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--variant", choices=("T", "T_prime"), default="T")
    common(sp)
    sp.set_defaults(fn=cmd_tubes)

    sp = sub.add_parser("render", help="emit an SVG diagram")
    sp.add_argument("target", choices=("arc_diagram", "level_set",
                                       "tube_stage", "gamma_theta"))
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--thetas", help="comma-separated angles for gamma_theta")
    common(sp)
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("pipeline", help="full run with manifest")
    common(sp)
    sp.set_defaults(fn=cmd_pipeline)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (CantorTubesError, ValueError, OSError) as exc:
        # A pipeline stage wraps the error it hit; its cause sets the code.
        cause = exc.cause if isinstance(exc, PipelineError) else exc
        code = getattr(cause, "exit_code", EXIT_CONFIG)
        label = {EXIT_CONFIG: "configuration error",
                 EXIT_RESOURCE: "resource cap"}.get(code, "error")
        print(f"{label}: {exc}", file=sys.stderr)
        return code

if __name__ == "__main__":
    sys.exit(main())
