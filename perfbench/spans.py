"""Outside-in span tracing of the cantortubes layers.

`Tracer.install()` replaces the public functions of the traced modules, and
the layer-boundary methods listed in `METHODS`, with wrappers that record a
span per call: name, start, end, parent span and an optional note.  Copies
bound at import time (`from .raster import rasterize` in `measures`, the
re-exports in the package `__init__`, ...) are replaced too, so every call
path is seen.  `uninstall()` restores the originals.  Spans stay in memory
until the run ends; nothing inside `src/` is changed.

Span names are `<module>.<function>`; methods drop their class name
(`hierarchy.anchor_by_path`).  Where a module-level function and a traced
method share a name (the one-line delegates at the end of `rotations`), only
the method is wrapped, so a call is never counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
import types

MODULES = ("sequences", "arcs", "hierarchy", "rotations", "raster",
           "measures", "render", "pipeline")

#: Public methods that sit on a layer boundary.  Cheap accessors
#: (`SequenceTable.delta_`, `Construction.level`, ...) are left out: they run
#: hundreds of thousands of times and time nothing of their own.
METHODS = {
    "arcs": {"ArcSolution": ("check",)},
    "hierarchy": {"Construction": (
        "materializable_depth", "anchor_by_path", "rect_by_path",
        "count_children_by_path", "sample_parent_paths")},
    "rotations": {"RotationFamily": (
        "v", "v_limit", "translation_table", "gamma_anchors", "tube_family",
        "besicovitch_stage", "check_containment")},
}

# Span record layout: [name, start, end, parent index (-1 = root), note].
NAME, START, END, PARENT, NOTE = range(5)


def _child_anchor_note(args, kwargs, result):
    """True when the call ran above the construction's precision (the
    doubled-precision retry of a near-zero containment slack)."""
    sol = args[1] if len(args) > 1 else kwargs["sol"]
    prec = args[3] if len(args) > 3 else kwargs.get("prec")
    return bool(prec) and prec > sol.prec


def _rasterize_note(args, kwargs, result):
    families = args[0] if args else kwargs["families"]
    return (result.nx * result.ny, sum(len(f) for f in families),
            result.nx, result.ny)


def _str_bytes_note(args, kwargs, result):
    return len(result.encode()) if isinstance(result, str) else 0


NOTES = {
    "hierarchy.child_anchor": _child_anchor_note,
    "raster.rasterize": _rasterize_note,
    "rotations.check_containment":
        lambda a, k, r: bool(r.scanned_all_families),
    "pipeline.run_pipeline":
        lambda a, k, r: sum(f["bytes"] for f in r.files),
}


class Tracer:
    """Records spans for every wrapped call made while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, package: str = "cantortubes"):
        import importlib

        replaced = {}   # id(original) -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            methods = METHODS.get(short, {})
            method_names = {m for names in methods.values() for m in names}
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in method_names
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj,
                                              _str_bytes_note if short == "render"
                                              else NOTES.get(name))
            for cls_name, names in methods.items():
                cls = getattr(mod, cls_name)
                for attr in names:
                    name = f"{short}.{attr}"
                    self._patch(cls, attr, self.wrap(name, vars(cls)[attr],
                                                     NOTES.get(name)))
        # Rebind every module-level copy of a wrapped function.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    self._patch(mod, attr, replaced[id(obj)])
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- analysis ------------------------------------------------------------------

class SpanStats:
    """Per-name aggregates of a span list.

    `self_s` is each span's duration minus the durations of its direct
    children (spans run on one thread, so children never overlap).  `total_s`
    counts only the outermost span of a name, so a function that re-enters
    itself is not counted twice.
    """

    def __init__(self, spans: list):
        self.spans = spans
        n = len(spans)
        child_time = [0.0] * n
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        for i, span in enumerate(spans):
            name = span[NAME]
            dur = span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time[i]
            if not self.has_ancestor(i, name):
                self.total_s[name] = self.total_s.get(name, 0.0) + dur

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def count(self, name: str, under: str | None = None, note=None) -> int:
        """Spans of `name`, optionally only those below an `under` span or
        whose note equals `note`."""
        return sum(
            1 for i, s in enumerate(self.spans)
            if s[NAME] == name
            and (note is None or s[NOTE] == note)
            and (under is None or self.has_ancestor(i, under)))

    def notes(self, name: str) -> list:
        return [s[NOTE] for s in self.spans if s[NAME] == name]

    def children_total(self, parent_name: str, names) -> float:
        """Summed duration of the direct children, named in `names`, of every
        `parent_name` span."""
        names = set(names)
        return sum(s[END] - s[START] for s in self.spans
                   if s[NAME] in names and s[PARENT] >= 0
                   and self.spans[s[PARENT]][NAME] == parent_name)
