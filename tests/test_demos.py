"""Smoke test: demos 01-05 and the README's library quickstart run against
the current API.  Demo 06 writes a full bundle under demos/out and is left
to the pipeline tests."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("0[1-5]_*.py"))
assert len(DEMOS) == 5, DEMOS


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
