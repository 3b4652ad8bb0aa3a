"""SVG diagrams: arc construction, level sets, tube stages, rotated copies.

Coordinates are emitted in construction units inside a y-flipped group, so
the output matches the mathematical orientation.  Rectangle corners are
written with 12 decimals; the geometric content therefore matches the CSV
exports to well below 1e-9.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from .errors import RenderCapError
from .hierarchy import Construction, child_anchor
from .rotations import RotationFamily

RENDER_CAP = 50_000   # primitives drawn directly; beyond it, sample

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _fmt(v: float) -> str:
    return f"{float(v):.12f}"


class SvgCanvas:
    """Minimal layered SVG assembler in mathematical (y-up) coordinates."""

    def __init__(self, viewbox: tuple, width_px: int = 900):
        self.viewbox = viewbox
        self.width_px = width_px
        self.layers: list[tuple[str, list[str]]] = []

    def layer(self, name: str) -> list:
        for lname, items in self.layers:
            if lname == name:
                return items
        items: list[str] = []
        self.layers.append((name, items))
        return items

    def rect(self, layer, x, y, w, h, stroke="#000", fill="none",
             stroke_width=0.002, opacity=1.0):
        self.layer(layer).append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" stroke="{stroke}" fill="{fill}" '
            f'stroke-width="{_fmt(stroke_width)}" opacity="{_fmt(opacity)}"/>')

    def polygon(self, layer, points, stroke="#000", fill="none",
                stroke_width=0.002, opacity=1.0):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.layer(layer).append(
            f'<polygon points="{pts}" stroke="{stroke}" fill="{fill}" '
            f'stroke-width="{_fmt(stroke_width)}" opacity="{_fmt(opacity)}"/>')

    def polyline(self, layer, points, stroke="#000", stroke_width=0.002):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.layer(layer).append(
            f'<polyline points="{pts}" stroke="{stroke}" fill="none" '
            f'stroke-width="{_fmt(stroke_width)}"/>')

    def dot(self, layer, x, y, r=0.004, fill="#d62728"):
        self.layer(layer).append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
            f'fill="{fill}" stroke="none"/>')

    def line(self, layer, x1, y1, x2, y2, stroke="#888", stroke_width=0.001,
             dash=None):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.layer(layer).append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="{_fmt(stroke_width)}"{extra}/>')

    def text(self, layer, x, y, s, size=0.03, fill="#333"):
        # Counter-flip each label inside the y-flipped group.
        self.layer(layer).append(
            f'<text transform="translate({_fmt(x)},{_fmt(y)}) scale(1,-1)" '
            f'font-size="{_fmt(size)}" fill="{fill}" '
            f'font-family="monospace">{s}</text>')

    def to_string(self) -> str:
        x, y, w, h = self.viewbox
        height_px = int(round(self.width_px * h / w))
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width_px}" height="{height_px}" '
            f'viewBox="{_fmt(x)} {_fmt(-(y + h))} {_fmt(w)} {_fmt(h)}">',
            '<g transform="scale(1,-1)">',
        ]
        for name, items in self.layers:
            parts.append(f'<g id="{name}">')
            parts.extend(items)
            parts.append("</g>")
        parts.append("</g>")
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _unit_viewbox(pad: float = 0.05) -> tuple:
    return (-pad, -pad, 1 + 2 * pad, 1 + 2 * pad)


def _bbox_viewbox(xs, ys, pad_frac: float = 0.05) -> tuple:
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = span * pad_frac
    return (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)


def render_arc_diagram(cons: Construction, level: int = 1) -> str:
    """The level's circle segment through the two corner points, the height
    line it must cross, and the equally rotated anchor points along it."""
    table = cons.table
    sol = cons.sol(level)
    canvas = SvgCanvas(_unit_viewbox())
    d, D = float(table.delta_(level)), float(table.Delta_(level))
    Dn = float(table.Delta_(level + 1))

    canvas.rect("frame", 0, 0, 1, 1, stroke="#bbb", stroke_width=0.0015)
    canvas.rect("frame", 0, 0, d, D, stroke="#444", stroke_width=0.002)
    canvas.line("frame", 0, Dn, d, Dn, stroke="#2ca02c", dash="0.01,0.006")
    canvas.text("labels", d * 0.35, Dn + 0.015, "next height scale", size=0.022)

    ax, ay = float(sol.center[0]), float(sol.center[1])
    r = float(sol.radius)
    phi0 = math.atan2(0 - ay, 0 - ax)
    phi1 = math.atan2(D - ay, d - ax)
    phis = np.linspace(phi0, phi1, 257)
    pts = [(ax + r * math.cos(p), ay + r * math.sin(p)) for p in phis]
    canvas.polyline("arc", pts, stroke="#1f77b4", stroke_width=0.0025)

    count = min(cons.N(level) + 1, 4000)
    origin = mpmath.mpc(0, 0)
    anchors = [child_anchor(origin, sol, k) for k in range(1, count + 1)]
    for k, a in enumerate(anchors, start=1):
        canvas.dot("anchors", float(a.real), float(a.imag), r=0.005)
    qx, qy = float(sol.q[0]), float(sol.q[1])
    canvas.dot("markers", qx, qy, r=0.007, fill="#2ca02c")
    canvas.text("labels", qx + 0.012, qy - 0.004, "q", size=0.028)
    canvas.text("labels", 0.02, 1.03,
                f"arc through the level-{level} corners; "
                f"{count} anchor points", size=0.022)
    return canvas.to_string()


def render_level_set(cons: Construction, level: int,
                     sample: int | None = None, seed: int = 0) -> str:
    """The level's rectangles; past the materializable depth a sampled
    subset of lazily evaluated rectangles must be requested explicitly."""
    import random

    canvas = SvgCanvas(_unit_viewbox())
    canvas.rect("frame", 0, 0, 1, 1, stroke="#bbb", stroke_width=0.0015)
    # A level outside the table gets `Construction.level`'s ValueError.
    if level <= cons.materializable_depth() or level > cons.table.depth:
        rects = cons.level(level).rects
        if len(rects) > RENDER_CAP:
            raise RenderCapError(
                f"{len(rects)} rectangles exceed the render cap {RENDER_CAP}; "
                "pass sample=<count> to draw a sampled subset")
        chosen = rects
        note = f"level {level}: all {len(rects)} rectangles"
    elif sample is None:
        raise RenderCapError(
            f"level {level} is not materializable; pass sample=<count> "
            "to draw a sampled subset of lazy rectangles")
    else:
        paths = cons.sample_parent_paths(level, sample, random.Random(seed))
        chosen = [cons.rect_by_path(p) for p in sorted(set(paths))]
        note = f"level {level}: {len(chosen)} sampled of {cons.population(level)}"
    for r in chosen:
        x0, y0, x1, y1 = r.corners_float()
        color = PALETTE[(r.path[0] - 1) % len(PALETTE)] if r.path else "#444"
        canvas.rect("rects", x0, y0, x1 - x0, y1 - y0, stroke=color,
                    stroke_width=0.0008)
    canvas.text("labels", 0.02, 1.03, note, size=0.022)
    return canvas.to_string()


def render_tube_stage(rf: RotationFamily, level: int, C=None,
                      family_stride: int = 16) -> str:
    """Rotated-box families of one stage, one color per drawn family."""
    n_fam = rf.cons.table.family_count(level)
    indices = range(0, n_fam, max(1, family_stride))
    # Every family holds the whole level, so the cap is checked up front.
    total = len(indices) * rf.cons.population(level)
    if total > RENDER_CAP:
        raise RenderCapError(
            f"{total} tubes exceed the render cap {RENDER_CAP}; "
            "raise family_stride to sample fewer families")
    fams = [rf.tube_family(level, l, C) for l in indices]
    corners = [f.corners() for f in fams]
    xs = [c[..., 0].min() for c in corners] + [c[..., 0].max() for c in corners]
    ys = [c[..., 1].min() for c in corners] + [c[..., 1].max() for c in corners]
    canvas = SvgCanvas(_bbox_viewbox(xs + [0, 1], ys + [0, 1]))
    canvas.rect("frame", 0, 0, 1, 1, stroke="#999", stroke_width=0.003)
    for i, (fam, cs) in enumerate(zip(fams, corners)):
        color = PALETTE[i % len(PALETTE)]
        for quad in cs:
            canvas.polygon(f"family-{fam.angle_index}", quad, stroke=color,
                           stroke_width=0.002, opacity=0.7)
    canvas.text("labels", 0.0, -0.1,
                f"stage {level}: families {list(indices)} of {n_fam}", size=0.05)
    return canvas.to_string()


def render_gamma_theta(rf: RotationFamily, thetas, level: int,
                       n_samples: int = 600, seed: int = 0) -> str:
    """Anchor clouds of rotated copies at the given angles."""
    import random

    clouds = []
    for th in thetas:
        pts, _, _, _ = rf.gamma_anchors(
            Fraction(th).limit_denominator(10**12), level,
            n_samples=n_samples, rng=random.Random(seed))
        clouds.append(pts)
    xs = np.concatenate([c[:, 0] for c in clouds])
    ys = np.concatenate([c[:, 1] for c in clouds])
    canvas = SvgCanvas(_bbox_viewbox(
        list(xs) + [0, 1], list(ys) + [0, 1]))
    canvas.rect("frame", 0, 0, 1, 1, stroke="#999", stroke_width=0.002)
    for i, (th, pts) in enumerate(zip(thetas, clouds)):
        color = PALETTE[i % len(PALETTE)]
        lname = f"theta-{i}"
        for x, y in pts:
            canvas.dot(lname, x, y, r=0.003, fill=color)
        canvas.text("labels", 0.02, -0.06 - 0.05 * i,
                    f"theta = {float(th):.6f}", size=0.035, fill=color)
    return canvas.to_string()

