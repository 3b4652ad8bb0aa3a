import csv
import dataclasses
import hashlib
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cantortubes import errors, hierarchy
from cantortubes.cli import main
from cantortubes.errors import BracketError, FeasibilityError, GridTooLargeError
from cantortubes.pipeline import (
    PipelineError,
    RunConfig,
    rotation_family,
    run_pipeline,
    run_stage,
    verify_manifest,
)
from cantortubes.render import render_arc_diagram, render_gamma_theta, \
    render_level_set, render_tube_stage
from cantortubes.reports import EXPECTED_FAILURES, known_shortfall

FAST = dict(
    # Coarse raster and small samples keep the full pipeline quick; the
    # acceptance suite runs the criterion-scale measurement separately.
    neighborhood_radius=Fraction(1, 64),
    raster_resolution=Fraction(1, 256),
    spacing_samples=60,
    containment_thetas=3,
    containment_anchors=60,
)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = RunConfig(**FAST)
    return run_pipeline(cfg, out), out


def test_pipeline_manifest_complete(bundle):
    run, out = bundle
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["path"] for f in manifest["files"]}
    expected = {
        "sequences.json", "arcs.json", "levels/level_1.csv",
        "levels/level_2.csv", "verify.json", "projections.json",
        "vtheta_level_1.csv", "vtheta_level_2.csv", "tubes.json",
        "area.json", "dimension.json", "containment.json",
        "svg/arc_level_1.svg", "svg/level_2.svg", "svg/tubes_stage_1.svg",
        "svg/gamma_samples.svg",
    }
    assert expected <= listed
    assert verify_manifest(out) == []
    assert run.ok
    assert manifest["ok"]


def test_pipeline_level_csv_contract(bundle):
    _, out = bundle
    with open(out / "levels/level_2.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["level", "rank", "anchor_x", "anchor_y",
                                    "width", "height"]
    assert rows[0]["level"] == "2"
    assert rows[0]["anchor_x"] == "0.0"
    assert float(rows[3]["width"]) == float(Fraction(1, 1024))
    ranks = [int(r["rank"]) for r in rows]
    assert ranks == sorted(ranks)


def test_pipeline_verify_contents(bundle):
    _, out = bundle
    verify = json.loads((out / "verify.json").read_text())
    assert verify["unexpected_failures"] == []
    assert verify["expected_failures"] == sorted(EXPECTED_FAILURES)
    assert "banner" not in verify


def test_pipeline_determinism(tmp_path):
    cfg = RunConfig(**FAST)
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    ma = json.loads((tmp_path / "a/manifest.json").read_text())
    mb = json.loads((tmp_path / "b/manifest.json").read_text())
    assert ma == mb
    for entry in ma["files"]:
        pa = (tmp_path / "a" / entry["path"]).read_bytes()
        pb = (tmp_path / "b" / entry["path"]).read_bytes()
        assert pa == pb, entry["path"]


def test_pipeline_demo_banner(tmp_path):
    cfg = RunConfig(profile="demo", depth=4, **FAST)
    run = run_pipeline(cfg, tmp_path)
    verify = json.loads((tmp_path / "verify.json").read_text())
    assert "banner" in verify
    assert "structural" in verify["banner"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["banner"] is not None
    assert run.ok


def test_config_roundtrip():
    cfg = RunConfig(s=Fraction(1, 2), c=Fraction(1, 32), depth=2, seed=7,
                    **FAST)
    blob = cfg.to_json()
    # The manifest's config block: one key per field, in this order.
    assert list(blob) == [
        "s", "c", "depth", "profile", "C_tube", "raster_resolution",
        "neighborhood_radius", "materialization_cap", "seed",
        "spacing_samples", "containment_thetas", "containment_anchors"]
    back = RunConfig.from_json(json.loads(json.dumps(blob)))
    assert back == cfg
    with pytest.raises(dataclasses.FrozenInstanceError):
        back.seed = 8


def test_readme_config_schema_lists_the_fields():
    # The README's schema block names every RunConfig field once, in field
    # order, so a removed knob cannot linger in the docs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config schema (JSON)")[1]
    block = block.split("```jsonc\n")[1].split("```")[0]
    keys = re.findall(r'^\s*"(\w+)":', block, flags=re.MULTILINE)
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]


@pytest.mark.parametrize("blob", [
    {"depth": 3.7, "spacing_samples": 2.5},
    {"depth": True},
    {"seed": 2.0},
])
def test_config_rejects_non_integer_ints(tmp_path, blob):
    # A JSON float or bool in an integer key is refused, not truncated.
    with pytest.raises(ValueError, match=repr(next(iter(blob)))):
        RunConfig.from_json(blob)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "pipeline"]) == 2
    assert not out.exists()
    assert RunConfig.from_json({"depth": 2, "seed": 5}) == RunConfig(depth=2,
                                                                    seed=5)


@pytest.mark.parametrize("blob", [
    {"precision": 200},     # derived from the table, no longer a key
    {"C_tube": True},       # a bool is not a rational
    {"neighborhood_radius": True},
    {"profile": 5},
    {"profile": "bogus"},
    {"c": "1/3"},
    {"s": "2"},
    {"C_tube": "-1"},
    {"neighborhood_radius": "-1/64"},
    {"raster_resolution": "0"},
    {"containment_thetas": 0},   # would write an empty containment verdict
    {"containment_thetas": -3},
    {"materialization_cap": -5},  # would run as if the cap were 1
    {"materialization_cap": 0},
], ids=lambda blob: "-".join(f"{k}={v}" for k, v in blob.items()))
def test_config_refused_at_parse_time(tmp_path, blob):
    # Refused when the config is read, before any stage runs, instead of
    # running with a value the manifest misstates or failing in a stage.
    key = next(iter(blob))
    with pytest.raises(ValueError, match=key):
        RunConfig.from_json(blob)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "pipeline"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["render", "arc_diagram", "--level", "3"], 2),   # the deepest level
    (["render", "arc_diagram", "--level", "0"], 2),
    (["render", "arc_diagram", "--depth", "1"], 2),   # a table with no arc
    (["tubes", "--level", "4"], 2),
    (["tubes", "--level", "0"], 2),
    (["render", "tube_stage", "--level", "0"], 2),
    (["render", "level_set", "--level", "0"], 2),
    (["render", "gamma_theta", "--level", "4"], 2),
    (["render", "gamma_theta", "--thetas", "inf"], 2),  # not a finite angle
    (["render", "gamma_theta", "--thetas", "0.3,1e400"], 2),
    (["render", "tube_stage", "--level", "3"], 3),    # ~2^47 families
], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
def test_level_flags_out_of_range_fail_typed(tmp_path, capsys, argv, code):
    # A level outside the table is a labelled one-line error with the
    # documented exit code; a render too large is refused before it builds.
    assert main(["--out", str(tmp_path), *argv]) == code
    err = capsys.readouterr().err
    label = "resource cap: " if code == 3 else "configuration error: "
    assert err.startswith(label) and err.count("\n") == 1, err
    assert "Traceback" not in err and not list(tmp_path.iterdir())


@pytest.mark.parametrize("blob", [
    {"neighborhood_radius": "0"},  # the default resolution is radius/4 = 0
    {"neighborhood_radius": "1/64", "raster_resolution": "1/8"},
], ids=lambda blob: "-".join(f"{k}={v}" for k, v in blob.items()))
def test_area_settings_refused_before_any_stage_writes(tmp_path, blob):
    # Each field parses alone; together they leave no raster the area stage
    # accepts, so the run is refused before its first stage.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "pipeline"]) == 2
    assert not out.exists()


def test_readme_exit_codes_match_the_error_types():
    # The README's exit-code paragraph lists every package error under the
    # code it carries, and lists no other.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Exit codes:")[1].split("### Config schema")[0]
    listed = {}
    for code, text in re.findall(r"^- `(\d)`:(.*?)(?=^- `|\Z)", block,
                                 flags=re.MULTILINE | re.DOTALL):
        listed.update(dict.fromkeys(re.findall(r"`(\w+Error)`", text),
                                    int(code)))
    package = {cls.__name__: cls.exit_code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.CantorTubesError)}
    assert len(package) == 9
    assert listed == package | {"ValueError": 2, "OSError": 2}


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="spacing_sample"):
        RunConfig.from_json({"spacing_sample": 5})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 2, "spacing_sample": 5}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "seq", "derive"]) == 2
    assert not (tmp_path / "o").exists()


def test_pipeline_depth2_checks_containment_below_depth(tmp_path):
    # Checking level n samples level n + 1, so depth 2 checks level 1 only.
    run = run_pipeline(RunConfig(depth=2, **FAST), tmp_path)
    assert run.ok
    blob = json.loads((tmp_path / "containment.json").read_text())
    assert {c["level"] for c in blob["checks"]} == {1}
    assert list(blob["max_C_min_per_level"]) == ["1"]


#: sha256 of `manifest.json` per config.  The manifest hashes every other
#: bundle file, so one constant pins a whole bundle byte for byte.  Recorded
#: with numpy 2.4.6 and mpmath 1.3.0 (pure-Python backend); another numpy or
#: mpmath may round differently.
MANIFEST_SHA256 = {
    "default": ("a2a0dc98a48b0880bd16f35cef2fd55cc80d42862958173b03cff699d8872d29",
                {}),
    # A cap of 10 leaves level 1 materialized only: the lazy side of the
    # materialization boundary.
    "cap10-fast": ("65c83b08f11ecb76142153c77e37422998c690abece91c60c9ea0f16d0f7bd3b",
                   dict(materialization_cap=10, **FAST)),
    # Depth 4 of both profiles: sampled spacing and a lazy projection level.
    "demo4-fast": ("d3b9230391b5f52b90e8a0bddbcd8b110c1756646063423d2fb2ad28b9e50b2c",
                   dict(profile="demo", depth=4, **FAST)),
    "strict4-fast": ("96daf879df99aeeae7a25b5bacc410b971f8f09f340fa560a66eda5184704e6a",
                     dict(depth=4, **FAST)),
    # The benchmark's own pipeline configs (perfbench/workloads.py), at
    # seed 1 for the default one so the seed reaches every sampled stage.
    "strict4-lazy": ("bd3dc3dac0e3638c76164400b0bcaf880ed9aae3da0d364ee8a7e1cb29137c62",
                     dict(depth=4, neighborhood_radius=Fraction(1, 8),
                          raster_resolution=Fraction(1, 32),
                          spacing_samples=300)),
    "default-seed1": ("899ffe11b467981564d58b2eb0a5377394079e83ff0838e75a7896dd650c83af",
                      dict(seed=1)),
}


@pytest.mark.parametrize("name", list(MANIFEST_SHA256))
def test_bundle_behaviour_contract(tmp_path, name):
    """The hashed bundle is the behaviour contract: a refactor must leave
    these manifests byte-identical (numpy 2.4.6, mpmath 1.3.0)."""
    digest, config = MANIFEST_SHA256[name]
    run_pipeline(RunConfig(**config), tmp_path)
    data = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_pipeline_stage_level1_checks_each_level_once(tmp_path):
    # A cap of 10 leaves level 1 materialized only, so the stage level is 1.
    cfg = RunConfig(materialization_cap=10, **FAST)
    run_pipeline(cfg, tmp_path)
    blob = json.loads((tmp_path / "containment.json").read_text())
    checks = blob["checks"]
    assert len(checks) == cfg.containment_thetas
    assert {c["level"] for c in checks} == {1}
    assert len({json.dumps(c, sort_keys=True) for c in checks}) == len(checks)
    assert blob["known_first_level_shortfalls"] == sum(
        1 for c in checks if not c["contained"])


def test_containment_counts_each_shortfall_once(tmp_path):
    # At c = 2^-5 the first level needs C beyond the known ceiling: of its
    # twelve misses six stay within the ceiling (known) and six do not.
    run_stage(RunConfig(c=Fraction(1, 32)), "containment", tmp_path)
    blob = json.loads((tmp_path / "containment.json").read_text())
    misses = [c for c in blob["checks"] if not c["contained"]]
    assert len(misses) == 12
    assert blob["known_first_level_shortfalls"] == sum(
        1 for c in misses if known_shortfall(c["level"], c["C_min"])) == 6
    assert (blob["known_first_level_shortfalls"]
            + blob["unexpected_shortfalls"]) == len(misses)


def test_pipeline_strict_depth4(tmp_path):
    run = run_pipeline(RunConfig(depth=4, **FAST), tmp_path)
    assert run.ok
    verify = json.loads((tmp_path / "verify.json").read_text())
    assert verify["expected_failures"] == sorted(EXPECTED_FAILURES)
    assert verify["unexpected_failures"] == []
    spacing = [r for r in verify["reports"]
               if r["title"].startswith("spacing of level-4 children")]
    assert len(spacing) == 1
    assert spacing[0]["ok"]
    assert spacing[0]["stats"]["pairs"] == FAST["spacing_samples"]


def test_config_rejects_no_containment_anchors(tmp_path):
    with pytest.raises(ValueError, match="containment_anchors"):
        RunConfig(containment_anchors=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"containment_anchors": 0}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "verify"]) == 2


def test_config_rejects_no_spacing_samples(tmp_path):
    # Refused before any stage runs: the pipeline exits 2 and writes nothing.
    with pytest.raises(ValueError, match="spacing_samples"):
        RunConfig(spacing_samples=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacing_samples": 0}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "pipeline"]) == 2
    assert not out.exists()


# -- CLI ------------------------------------------------------------------------

def test_cli_seq(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "seq", "derive",
               "--s", "1", "--c", "2^-4", "--depth", "2"])
    assert rc == 0
    blob = json.loads((tmp_path / "sequences.json").read_text())
    assert blob["table"]["delta"][1] == {"num": 1, "log2_den": 10}
    assert blob["validation"]["ok"]


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 2, "c": "2^-5"}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "seq", "derive",
                 "--depth", "3"]) == 0
    table = json.loads((tmp_path / "sequences.json").read_text())["table"]
    assert table["depth"] == 3
    assert table["c"] == {"num": 1, "log2_den": 5}


def test_cli_depth1(tmp_path):
    # Depth 1 has no grid refinement to verify: the pipeline refuses it as a
    # configuration error before any stage writes, while deriving its
    # sequences still works.
    assert main(["--out", str(tmp_path / "p"), "pipeline", "--depth", "1"]) == 2
    assert not (tmp_path / "p").exists()
    assert main(["--out", str(tmp_path / "s"), "seq", "derive",
                 "--depth", "1"]) == 0


def test_cli_seq_bad_config():
    assert main(["seq", "derive", "--c", "1/3", "--depth", "2"]) == 2
    assert main(["seq", "derive", "--s", "7", "--depth", "2"]) == 2


@pytest.mark.parametrize("flags, blob", [
    (["--c", "1/0"], {}),
    (["--s", "1/0"], {}),
    (["--c", "2^99999999999999999999"], {}),
    ([], {"C_tube": "1/0"}),
    ([], {"c": {"num": 1}}),
], ids=["c-zero-den", "s-zero-den", "c-huge-exponent", "C_tube-zero-den",
        "c-missing-key"])
def test_cli_malformed_rational_is_a_config_error(tmp_path, capsys, flags,
                                                  blob):
    # A rational that cannot be parsed is a one-line configuration error
    # (exit 2), never a traceback, and nothing is written.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "seq", "derive",
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["seq", "derive"], ["pipeline"]])
def test_cli_unreachable_depth_is_a_config_error(tmp_path, command, capsys):
    # Depth 8 is past the deepest level the sequences reach.
    assert main(["--out", str(tmp_path), *command, "--depth", "8"]) == 2
    assert "depth unreachable" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("error", [FeasibilityError, BracketError])
def test_cli_unsolvable_arc_is_a_config_error(tmp_path, monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error("no circle for this table")

    monkeypatch.setattr(hierarchy, "solve_table_arcs", refuse)
    assert main(["--out", str(tmp_path), "arc"]) == 2


def test_cli_build_and_render(tmp_path):
    assert main(["--out", str(tmp_path), "build", "--depth", "2"]) == 0
    assert (tmp_path / "levels/level_2.csv").exists()
    assert main(["--out", str(tmp_path), "render", "arc_diagram",
                 "--depth", "2"]) == 0
    assert (tmp_path / "arc_diagram_level_1.svg").read_text().startswith("<?xml")


@pytest.mark.parametrize("target", ["arc_diagram", "level_set", "tube_stage",
                                    "gamma_theta"])
def test_cli_render_writes_what_its_renderer_draws(tmp_path, target):
    # Each target at its default level (1) and default parameters writes the
    # same bytes as its renderer called directly on the same construction.
    assert main(["--out", str(tmp_path), "render", target, "--depth", "2"]) == 0
    rf = rotation_family(RunConfig(depth=2))
    want = {
        "arc_diagram": lambda: render_arc_diagram(rf.cons, 1),
        "level_set": lambda: render_level_set(rf.cons, 1),
        "tube_stage": lambda: render_tube_stage(rf, 1),
        "gamma_theta": lambda: render_gamma_theta(rf, [0.0, 0.3, 0.7], 1),
    }[target]()
    assert (tmp_path / f"{target}_level_1.svg").read_bytes() == want.encode()


def test_cli_render_unknown_target_is_a_config_error(tmp_path):
    assert main(["--out", str(tmp_path), "render", "nope"]) == 2
    assert not list(tmp_path.iterdir())


def test_cli_vtheta(tmp_path):
    assert main(["--out", str(tmp_path), "vtheta"]) == 0
    lines = (tmp_path / "vtheta_level_2.csv").read_text().splitlines()
    assert lines[0] == "index,theta_num,theta_log2_den,x,y,case"
    assert len(lines) == 1 + 257


def test_cli_verify_exit_code(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "verify", "--depth", "2", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[        pass]" in out


def test_cli_dim(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "dim"]) == 0
    blob = json.loads((tmp_path / "dimension.json").read_text())
    assert blob["estimate"]["slope"] is not None


def test_cli_tubes(tmp_path):
    assert main(["--out", str(tmp_path), "tubes", "--level", "2",
                 "--index", "3"]) == 0
    lines = (tmp_path / "tubes_level_2_l3.csv").read_text().splitlines()
    assert lines[0] == "tube,corner,x,y"
    assert len(lines) == 1 + 16 * 4


#: Each stage subcommand and the bundle files it writes.
STAGE_FILES = {
    ("seq", "derive"): ["sequences.json"],
    ("arc",): ["arcs.json"],
    ("build",): ["levels/level_1.csv", "levels/level_2.csv"],
    ("verify",): ["verify.json"],
    ("vtheta",): ["vtheta_level_1.csv", "vtheta_level_2.csv"],
    ("area",): ["area.json"],
    ("dim",): ["dimension.json", "dimension.csv"],
}


@pytest.fixture(scope="module")
def tight_bundle(tmp_path_factory):
    """A full run at a non-default target dimension, which changes the
    table and so every stage, so a stage that ignored part of the config
    would show."""
    cfg = RunConfig(s=Fraction(1, 2), **FAST)
    out = tmp_path_factory.mktemp("tight")
    run_pipeline(cfg, out)
    config = out.parent / "tight_config.json"
    config.write_text(json.dumps(cfg.to_json()))
    return config, out


@pytest.mark.parametrize("command", list(STAGE_FILES), ids=lambda c: c[0])
def test_cli_stage_matches_pipeline(tight_bundle, tmp_path, command):
    config, bundle_dir = tight_bundle
    assert main(["--config", str(config), "--out", str(tmp_path), *command]) == 0
    written = sorted(str(p.relative_to(tmp_path))
                     for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(STAGE_FILES[command])
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (bundle_dir / rel).read_bytes(), rel


@pytest.mark.parametrize("command", ["pipeline", "area"])
def test_cli_resource_cap_exit_code(tmp_path, command):
    # c = 2^-5 makes the default stage-2 raster exceed the cell cap.
    assert main(["--out", str(tmp_path), command, "--c", "2^-5"]) == 3


def test_pipeline_error_names_stage(tmp_path):
    with pytest.raises(PipelineError) as info:
        run_pipeline(RunConfig(c=Fraction(1, 32)), tmp_path)
    assert info.value.stage == "area"
    assert isinstance(info.value.cause, GridTooLargeError)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(s=st.sampled_from(["0", "1/2", "1"]),
       c=st.sampled_from(["2^-4", "2^-5"]),
       depth=st.integers(1, 3),
       profile=st.sampled_from(["strict", "demo"]),
       spacing_samples=st.sampled_from([0, 1, FAST["spacing_samples"]]),
       containment_thetas=st.sampled_from([0, FAST["containment_thetas"]]),
       containment_anchors=st.sampled_from([0, 1, FAST["containment_anchors"]]))
def test_cli_config_sweep(s, c, depth, profile, **samples):
    # Every config either runs or exits with its documented code: 2 before
    # any stage writes a manifest, 0 or 1 with a manifest whose ok matches.
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(RunConfig(**FAST).to_json() | samples))
        rc = main(["--config", str(cfg), "--out", str(out), "pipeline",
                   "--s", s, "--c", c, "--depth", str(depth),
                   "--profile", profile])
        assert rc in (0, 1, 2, 3)
        if rc == 2:
            assert not (out / "manifest.json").exists()
        if rc in (0, 1):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["ok"] == (rc == 0)
            verify = json.loads((out / "verify.json").read_text())
            assert set(verify["expected_failures"]) <= EXPECTED_FAILURES
