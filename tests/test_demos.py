"""Smoke test: demos 01-05 run against the current API.  Demo 06 writes a
full bundle under demos/out and is left to the pipeline tests."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("0[1-5]_*.py"))
assert len(DEMOS) == 5, DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
