"""Tests of the benchmark itself (not of cantortubes).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small pipeline on the default table: same N_1, N_2 and expected failure
#: as the benchmark's pipeline workloads, in about a second.
TINY = dict(neighborhood_radius=Fraction(1, 64),
            raster_resolution=Fraction(1, 256), spacing_samples=60,
            containment_thetas=3, containment_anchors=60)


def test_self_time_on_a_synthetic_nest():
    spans = [
        ["a", 0.0, 10.0, -1, None],   # 0
        ["b", 1.0, 4.0, 0, None],     # 1: child of a
        ["c", 2.0, 3.0, 1, None],     # 2: child of b
        ["d", 5.0, 9.0, 0, None],     # 3: child of a
        ["a", 6.0, 7.0, 3, "x"],      # 4: a re-entered under d
        ["c", 11.0, 12.0, -1, "x"],   # 5: a second root
    ]
    st = SpanStats(spans)
    assert st.calls == {"a": 2, "b": 1, "c": 2, "d": 1}
    assert st.self_s == {"a": 3.0 + 1.0, "b": 2.0, "c": 2.0, "d": 3.0}
    # The re-entered a lies inside the outer one and is not counted again.
    assert st.total_s == {"a": 10.0, "b": 3.0, "c": 2.0, "d": 4.0}
    assert st.count("c", under="a") == 1
    assert st.count("a", under="d") == 1
    assert st.count("c", note="x") == 1
    assert st.children_total("a", ("b", "d")) == 7.0


def test_tracer_wraps_import_time_copies_and_restores():
    from cantortubes import measures, raster

    original = raster.rasterize
    with Tracer() as tracer:
        assert measures.rasterize is raster.rasterize is not original
        from cantortubes.hierarchy import Construction
        from cantortubes.rotations import RotationFamily
        from cantortubes.sequences import build_schedule, derive_sequences

        cons = Construction(derive_sequences(build_schedule(1, 3),
                                             Fraction(1, 16)))
        fams = [RotationFamily(cons).tube_family(2, l) for l in (0, 1)]
        measures.pairwise_overlap_loss(*fams, 1 / 256)
    assert raster.rasterize is original and measures.rasterize is original
    st = SpanStats(tracer.spans)
    assert st.calls["measures.pairwise_overlap_loss"] == 1
    assert st.calls["raster.rasterize"] == 1
    assert st.calls["arcs.solve_arc"] == 2
    rast = [s for s in tracer.spans if s[0] == "raster.rasterize"][0]
    assert tracer.spans[rast[3]][0] == "measures.pairwise_overlap_loss"
    assert rast[4][1] == len(fams[0])


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    from cantortubes.pipeline import RunConfig, run_pipeline

    out = tmp_path_factory.mktemp("bundle")
    run_pipeline(RunConfig(**TINY), out)
    return out


def _doctored(src, tmp_path, rel, edit):
    out = tmp_path / "doctored"
    shutil.copytree(src, out)
    blob = json.loads((out / rel).read_text())
    edit(blob)
    (out / rel).write_text(json.dumps(blob))
    return out


def test_check_accepts_the_real_bundle(tiny_bundle):
    area = json.loads((tiny_bundle / "area.json").read_text())["estimate"]
    assert checks.check_bundle(tiny_bundle, frozen_area=area["value"]) == []


def test_check_rejects_area_outside_its_bracket(tiny_bundle, tmp_path):
    def edit(blob):
        blob["estimate"]["value"] = blob["estimate"]["upper"] * 1.5

    out = _doctored(tiny_bundle, tmp_path, "area.json", edit)
    problems = checks.check_bundle(out, frozen_area=1.0)
    assert any("outside its bracket" in p for p in problems)


def test_check_rejects_missing_expected_failure(tiny_bundle, tmp_path):
    def edit(blob):
        blob["expected_failures"] = []

    out = _doctored(tiny_bundle, tmp_path, "verify.json", edit)
    assert any("expected failures" in p for p in checks.check_bundle(out))


def test_hash_comparison_falls_back_to_seed_independent_files(tiny_bundle):
    hashes = checks.bundle_hashes(tiny_bundle)
    other = dict(hashes, **{"verify.json": "0" * 64})
    refs = {"0": hashes, "1": other}
    assert checks.compare_hashes(hashes, refs, 0) == (len(hashes), len(hashes))
    assert checks.compare_hashes(hashes, refs, 7) == (len(hashes) - 1,
                                                      len(hashes) - 1)


def test_pipeline_workload_smoke(tmp_path):
    wl = workloads.PipelineWorkload("tiny", **TINY)
    batches, metrics = run.traced_run(wl, 3, tmp_path, None)
    assert [b.failed for b in batches] == [0, 0]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["pipeline.stage.area_s"][0] > 0
    assert metrics["verify.fail"][0] == 1
    assert metrics["raster.rasterize.calls"][0] == 1
    e2e = workloads.end_to_end(batches, 0.5, 100.0)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]


def test_angle_query_smoke(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["angle-queries"]
    monkeypatch.setattr(wl, "batch_size", 3)
    state = wl.setup(5, tmp_path)
    batch = workloads.run_batch(wl, state, 0)
    assert batch.failed == 0 and len(batch.ops) == 3
    # Same seed, same angles, one per slice of [0, 1); another seed moves them.
    thetas = state["thetas"]
    assert wl.setup(5, tmp_path)["thetas"] == thetas
    assert wl.setup(6, tmp_path)["thetas"] != thetas
    assert [int(t * len(thetas)) for t in thetas] == list(range(len(thetas)))


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "strict3-default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
