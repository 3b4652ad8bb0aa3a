"""The benchmark's span tracer wraps modules and methods by name: every name
it lists must exist, or `perfbench/run.py --trace 1` fails with a KeyError."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_exist():
    # Executed from its source text, so nothing is written beside it.
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    for short in spans.MODULES:
        importlib.import_module(f"cantortubes.{short}")
    for short, classes in spans.METHODS.items():
        mod = importlib.import_module(f"cantortubes.{short}")
        for cls_name, names in classes.items():
            cls = getattr(mod, cls_name)
            missing = [n for n in names if not callable(vars(cls).get(n))]
            assert not missing, (short, cls_name, missing)
