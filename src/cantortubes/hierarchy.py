"""Nested rectangle generations over the solved arcs.

Level 1 is the unit square; every next level places children along the
level's circular arc by rotating the parent's bottom-left corner about the
arc center in equal angle steps.  Shallow levels are materialized outright;
deep levels (populations run into the billions) are reached lazily through
closed-form anchors indexed by child paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath
import numpy as np

from .arcs import ArcSolution, solve_table_arcs
from .dyadic import ceil_frac
from .errors import ConstructionError, PopulationCapError
from .numerics import arith_error, default_precision, frac_to_mpf, workprec
from .reports import VerificationReport
from .sequences import SequenceTable

DEFAULT_MATERIALIZATION_CAP = 2_000_000


@lru_cache(maxsize=64)
def _width_mpf(width: Fraction, prec: int):
    """frac_to_mpf(width) at `prec` bits, converted once: a level's
    rectangles share their width, and the count predicates use it at the
    solution's precision and its doubled retry."""
    with workprec(prec):
        return frac_to_mpf(width)


@dataclass(frozen=True, eq=False)
class RectNode:
    """Axis-parallel rectangle: exact width, bottom-left anchor, and the
    height inherited from the next sibling anchor."""

    level: int
    path: tuple
    anchor: object  # complex point (mpc)
    width: Fraction
    height: object  # mpf

    def contain_slack(self, z):
        """Smallest signed distance of z to the four sides; >= 0 iff z lies
        in the closed rectangle.  Evaluate under a working precision."""
        w = _width_mpf(self.width, mpmath.mp.prec)
        return min(
            z.real - self.anchor.real,
            self.anchor.real + w - z.real,
            z.imag - self.anchor.imag,
            self.anchor.imag + self.height - z.imag,
        )

    def corners_float(self) -> tuple:
        x0, y0 = float(self.anchor.real), float(self.anchor.imag)
        return (x0, y0, x0 + float(self.width), y0 + float(self.height))


@dataclass
class LevelSet:
    """One full generation: rectangles in anchor-x order (which equals the
    distance-from-origin order here)."""

    level: int
    rects: list

    def __len__(self):
        return len(self.rects)

    def anchors_float(self) -> np.ndarray:
        """(m, 2) float64 anchors, built once and read-only."""
        return self._anchors_float

    @cached_property
    def _anchors_float(self) -> np.ndarray:
        anchors = np.array([[float(r.anchor.real), float(r.anchor.imag)]
                            for r in self.rects])
        anchors.flags.writeable = False
        return anchors


def child_anchor(parent_anchor, sol: ArcSolution, k: int, prec: int | None = None):
    """Anchor of the k-th child: rotate the parent anchor clockwise by
    (k-1) angle steps about the arc center.  k = 1 returns the parent.  Runs
    at the solution's precision; only `count_children`'s retry passes `prec`."""
    if k < 1:
        raise ValueError(f"child index must be >= 1, got {k}")
    if k == 1:
        return parent_anchor
    with workprec(prec or sol.prec):
        rot = mpmath.expj(-sol.turn(k - 1))
        return sol.center_c * (1 - rot) + rot * parent_anchor


def child_rect(a_k, a_k1, delta_next: Fraction, level: int, path: tuple) -> RectNode:
    """Child rectangle spanning delta_next in x from a_k and reaching up to
    the next anchor's height.  The next anchor must lie strictly up-right."""
    if not (a_k1.real > a_k.real and a_k1.imag > a_k.imag):
        raise ConstructionError(
            f"next anchor {a_k1} is not strictly above and to the right of "
            f"{a_k}; spacing assumption violated at level {level}, path {path}")
    return RectNode(level=level, path=path, anchor=a_k,
                    width=Fraction(delta_next), height=a_k1.imag - a_k.imag)


def _exit_step(parent: RectNode, sol: ArcSolution) -> int:
    """Closed-form estimate of the child count: the number of whole angle
    steps before the child orbit leaves the parent.

    Anchor k+1 is c + R*exp(i(psi - k*phi)) with z = parent.anchor - c =
    R*exp(i*psi); it climbs up and to the right, crossing the parent's right
    edge at rotation psi - acos((x + w - c.x)/R) and its top edge (when the
    circle reaches that high) at psi - (pi - asin((y + h - c.y)/R)).  A right
    edge beyond the circle is taken at the orbit's rightmost point.  The
    estimate only seeds the search; `count_children` certifies the result.
    """
    with workprec(sol.prec):
        c = sol.center_c
        z = parent.anchor - c
        R, psi = abs(z), mpmath.arg(z)
        right = (parent.anchor.real + _width_mpf(parent.width, sol.prec)
                 - c.real) / R
        exits = [psi - mpmath.acos(min(right, 1))]
        top = (parent.anchor.imag + parent.height - c.imag) / R
        if top <= 1:
            exits.append(psi - (mpmath.pi - mpmath.asin(top)))
        return int(mpmath.floor(min(exits) / sol.turn(1)))


def _certified_transition(pred, hint: int, hi: int) -> int:
    """The k in [0, hi) with pred(k) and not pred(k+1), given pred(0) true and
    pred(hi) false (neither is evaluated).

    The search starts from the bracket [hint, hint+1] (hint clamped into
    [0, hi-1]); when that bracket does not certify, it widens on the failing
    side by steps of 1, 2, 4, ... from the hint and bisects inside the
    widened bracket.
    """
    lo, k = 0, min(max(hint, 0), hi - 1)
    step = 1
    if k > lo and not pred(k):
        hi = k
        while k - step > lo:
            if pred(k - step):
                lo = k - step
                break
            hi = k - step
            step *= 2
    else:
        lo = k
        while k + step < hi:
            if not pred(k + step):
                hi = k + step
                break
            lo = k + step
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def count_children(parent: RectNode, sol: ArcSolution, hi: int) -> int:
    """Largest m such that children 1..m stay inside the parent, i.e. the
    certified transition pred(m) and not pred(m+1) of the monotone criterion
    pred(k) = "anchor k+1 lies in the parent" (pred(0) holds: anchor 1 is
    the parent's own corner).

    The search starts at the closed-form exit step of the child orbit
    (`_exit_step`), which is exact in practice, so a count costs about three
    predicate evaluations; the predicate alone decides the result.

    `hi` must be a known strict upper bound for the count; use
    `count_search_bound` (the sandwich bound, valid at every level, unlike
    the angle-step ratio which is attained at level 1).  The predicate is
    verified false there before the search is trusted.
    Containment decisions run at the solution's precision and re-evaluate
    at doubled precision when the slack is suspiciously close to zero.
    """
    def slack(k: int, retry: int | None = None):
        with workprec(retry or sol.prec):
            a = child_anchor(parent.anchor, sol, k + 1, prec=retry)
            return parent.contain_slack(a)

    def pred(k: int) -> bool:
        s = slack(k)
        guard = mpmath.mpf(2) ** (-(sol.prec // 2))
        if abs(s) < guard:
            s = slack(k, sol.prec * 2)
        return s >= 0

    if pred(hi):
        raise ConstructionError(
            f"containment did not terminate below the angle-ratio bound {hi}; "
            "monotone-exit assumption violated")
    return _certified_transition(pred, _exit_step(parent, sol), hi)


def count_search_bound(table: SequenceTable, n: int) -> int:
    """Strict upper bound for per-parent child counts at level n, from the
    two-sided count sandwich (valid at every level; the angle-step ratio is
    *attained* at level 1, so it cannot serve as a strict bracket there)."""
    return ceil_frac(table.count_sandwich(n)[1]) + 1


class Construction:
    """A sequence table, its solved arcs, and cached access to materialized
    levels, exact child counts, and lazy path-indexed anchors.  Its working
    precision `prec` is that of its arcs (refused when `sols` mix several)."""

    def __init__(self, table: SequenceTable,
                 cap: int = DEFAULT_MATERIALIZATION_CAP,
                 sols: tuple | None = None):
        self.table = table
        self.sols = solve_table_arcs(table) if sols is None else sols
        self.prec = self.sols[0].prec if self.sols else default_precision(table)
        if any(sol.prec != self.prec for sol in self.sols):
            raise ValueError("arc solutions mix precisions")
        self.cap = cap
        root = RectNode(level=1, path=(), anchor=mpmath.mpc(0, 0),
                        width=Fraction(1), height=mpmath.mpf(1))
        self._levels = {1: LevelSet(level=1, rects=[root])}
        self._depth: int | None = None
        self._counts: dict[tuple, int] = {}
        self._N: dict[int, int] = {}
        self._search_bounds: dict[int, int] = {}

    def sol(self, n: int) -> ArcSolution:
        """Arc solution used to subdivide level n, refused (ValueError)
        outside 1..depth - 1: the deepest level has no children."""
        if not 1 <= n <= len(self.sols):
            raise ValueError(f"no arc subdivides level {n} of a depth-"
                             f"{self.table.depth} table")
        return self.sols[n - 1]

    def anchor_error(self, n: int):
        """Error (mpf) of level-n anchors and their increments: `arith_error`,
        plus the parent arc's residual, which moves its centre and with it
        every increment by about residual*radius."""
        with workprec(self.prec):
            err = arith_error(self.prec)
            if n >= 2:
                sol = self.sol(n - 1)
                err += 4 * sol.residual * sol.radius
            return err

    def level(self, n: int) -> LevelSet:
        """Level n, materialized on first use; past `materializable_depth()`
        its population exceeds the cap and `PopulationCapError` is raised.
        Its rectangles are the first N(n - 1) children (the uniform count)
        of every level-(n - 1) rectangle, each built by `rect_by_path`, in
        path order, which must be anchor-x order."""
        self.table.check_level(n)
        if n not in self._levels:
            population = self.population(n)
            if population > self.cap:
                raise PopulationCapError(level=n, population=population,
                                         cap=self.cap)
            ks = range(1, self.N(n - 1) + 1)
            rects = [self.rect_by_path(parent.path + (k,))
                     for parent in self.level(n - 1).rects for k in ks]
            xs = [float(r.anchor.real) for r in rects]
            if any(a >= b for a, b in zip(xs, xs[1:])):
                raise ConstructionError(
                    "materialized level is not in anchor-x order")
            self._levels[n] = LevelSet(level=n, rects=rects)
        return self._levels[n]

    def materializable_depth(self) -> int:
        """Deepest level whose population fits the cap: levels up to it are
        exact, deeper ones are reached lazily by path.  Populations never
        shrink, and deciding that level n fits needs only level n - 1 and its
        counts, so deciding builds no level past the answer (nor the answer
        itself when it is the table depth)."""
        if self._depth is None:
            n = 1
            while n < self.table.depth and self.population(n + 1) <= self.cap:
                n += 1
            self._depth = n
        return self._depth

    def counted_depth(self) -> int:
        """Deepest level whose population is exact (it needs the counts of
        the materialized level above): the angle grid, projection and
        dimension levels stop here."""
        return min(self.table.depth, self.materializable_depth() + 1)

    def counts(self, n: int) -> tuple:
        """Per-parent child counts at level n; needs only level n itself."""
        return tuple(map(self.count_children_of, self.level(n).rects))

    def N(self, n: int) -> int:
        """Uniform child count at level n (min over the level's parents),
        found once per level.  Exact while level n itself is
        materializable."""
        if n not in self._N:
            N = min(self.counts(n))
            if N == 0:
                raise ConstructionError(
                    f"a level-{n} parent admits no children")
            self._N[n] = N
        return self._N[n]

    def population(self, n: int) -> int:
        """Exact rectangle count of level n (a product of uniform counts,
        no enumeration)."""
        pop = 1
        for q in range(1, n):
            pop *= self.N(q)
        return pop

    # -- lazy access by path -------------------------------------------------

    def anchor_by_path(self, path) -> object:
        """Anchor of the level-(len(path)+1) rectangle addressed by child
        indices; composes the child-anchor map level by level, starting from
        the deepest materialized level the path's leading indices address."""
        path = self._checked(path)
        i, node = self._materialized_prefix(path)
        return self._walk(path, i, node.anchor)

    def _checked(self, path) -> tuple:
        """`path` as a tuple, refused past the table or at an index below 1."""
        path = tuple(path)
        if len(path) > len(self.sols):
            raise ValueError(
                f"path of length {len(path)} exceeds table depth {self.table.depth}")
        for j, k in enumerate(path):
            if k < 1:
                raise ValueError(f"path index {k} out of range at level {j + 1}")
        return path

    def _materialized_prefix(self, path: tuple) -> tuple:
        """(i, node): the built level-(i+1) rectangle that path[:i]
        addresses, for the largest i whose level is already materialized and
        whose indices lie within its uniform counts.  Reads only levels built
        so far (at mixed-radix rank)."""
        i, rank = 0, 0
        while i < len(path) and i + 2 in self._levels:
            N = self.N(i + 1)
            if not 1 <= path[i] <= N:
                break
            rank = rank * N + path[i] - 1
            i += 1
        return i, self._levels[i + 1].rects[rank]

    def _walk(self, path: tuple, i: int, anchor) -> object:
        """Compose the child-anchor maps of path[i:] onto `anchor`, the
        anchor path[:i] addresses."""
        for j in range(i, len(path)):
            anchor = child_anchor(anchor, self.sols[j], path[j])
        return anchor

    def anchors_float64(self, paths) -> tuple:
        """Anchors addressed by `paths` (all of one length) as an (m, 2)
        float64 array, and a bound e on the distance of every row from
        float(anchor_by_path(path)).

        One vectorized pass per level applies the child-anchor map in its
        cancellation-free form a <- a - (c - a)*expm1(-i*t), with
        expm1(-i*t) = -2*sin(t/2)**2 - i*sin(t) and t = (k-1)*step rounded
        once to float64 (`ArcSolution.turn_float`): the step moves a by
        |c - a|*t, the orbit step, never by the difference of two terms of
        size |c|.  Path indices stay Python ints (deep ones overflow int64).

        e is derived from the rounding of every step, with unit u = 2**-53
        and numpy's float64 sine within one ulp:
          - t is within u*t of the exact angle, so the computed expm1 is
            within mu = u*t*(3 + 3t) of the exact one (the map is 1-Lipschitz
            in t; the sines add 2u relative, the square 3u);
          - the float centre is within u*|c|, the difference c - a within
            u*|c - a|, the complex product within 2*sqrt(2)*u of its size,
            the update within u*|a|;
          - an error E in a passes on as E*|1 + expm1| <= E*(1 + mu).
        The mpmath walk's own rounding (8 operations per level at the
        construction's precision) and the final float() rounding u*|a| are
        added; a factor 1 + 2**-20 covers second-order terms and the
        rounding of the bound's own arithmetic.
        """
        paths = [self._checked(p) for p in paths]
        depth = len(paths[0]) if paths else 0
        if any(len(p) != depth for p in paths):
            raise ValueError("paths must all have the same length")
        u = 2.0 ** -53
        a = np.zeros(len(paths), dtype=complex)
        E = np.zeros(len(paths))
        mp_err = 0.0
        for i in range(depth):
            sol = self.sols[i]
            t = np.array([sol.turn_float(p[i] - 1) for p in paths])
            s = np.sin(0.5 * t)
            m = -2 * s * s - 1j * np.sin(t)
            c = complex(sol.center_c)
            c_abs = abs(c)
            mp_err += float(arith_error(
                self.prec, scale=2 * c_abs + np.abs(a).max(), ops=8))
            d = c - a
            a = a - d * m
            mu = u * t * (3 + 3 * t)
            E = (E * (1 + mu) + np.abs(m) * u * (c_abs + 4 * np.abs(d))
                 + np.abs(d) * mu + u * np.abs(a))
        e = np.max(E + u * np.abs(a), initial=0.0) + mp_err
        return np.stack([a.real, a.imag], axis=1), float(e) * (1 + 2.0 ** -20)

    def rect_by_path(self, path) -> RectNode:
        """The level-(len(path)+1) rectangle addressed by child indices: the
        built one when its level is materialized, else the last child step
        from its parent's anchor, which the walk reaches as `anchor_by_path`
        does.  This is the one place rectangles past level 1 are built."""
        path = self._checked(path)
        i, node = self._materialized_prefix(path)
        if i == len(path):
            return node
        sol, k = self.sols[len(path) - 1], path[-1]
        with workprec(self.prec):
            parent = self._walk(path[:-1], i, node.anchor)
            a = child_anchor(parent, sol, k)
            a2 = child_anchor(parent, sol, k + 1)
            return child_rect(a, a2, self.table.delta_(len(path) + 1),
                              level=len(path) + 1, path=path)

    def count_children_by_path(self, path) -> int:
        """Per-parent child count of the parent `path` addresses."""
        path = tuple(path)
        if path in self._counts:
            return self._counts[path]
        return self.count_children_of(self.rect_by_path(path))

    def count_children_of(self, parent: RectNode) -> int:
        """Per-parent child count of a parent rectangle already built (by
        `rect_by_path`), cached by its path: the one count cache, shared by
        `counts`, `count_children_by_path` and sampled spacing checks.  The
        search bound is computed once per level."""
        if parent.path not in self._counts:
            n = parent.level
            if n not in self._search_bounds:
                self._search_bounds[n] = count_search_bound(self.table, n)
            self._counts[parent.path] = count_children(
                parent, self.sol(n), self._search_bounds[n])
        return self._counts[parent.path]

    def sample_parent_paths(self, parent_level: int, n_samples: int,
                            rng: random.Random) -> list:
        """Uniformly sampled paths addressing level-`parent_level` parents.
        Uses the exact uniform counts of the materializable levels,
        per-parent counts beyond."""
        self.table.check_level(parent_level)
        exact = [self.N(lvl) for lvl in
                 range(1, min(parent_level, self.counted_depth()))]
        paths = []
        for _ in range(n_samples):
            path = []
            for i in range(parent_level - 1):
                if i < len(exact):
                    bound = exact[i]
                else:
                    bound = self.count_children_by_path(tuple(path))
                path.append(rng.randint(1, bound))
            paths.append(tuple(path))
        return paths


def _worst_deviation(bound, centre, values):
    """min(bound - |centre - v|) over `values` (mpfs), evaluated at their
    least and greatest only: mpmath rounds every operation correctly, so
    fl(centre - v) is monotone in v and fl(bound - t) in t, and the minimum
    is reached there bit for bit."""
    return min(bound - abs(centre - v) for v in (min(values), max(values)))


def _sampled_increments(cons: Construction, n: int, n_samples: int,
                        rng: random.Random) -> list:
    """Increments a_{k+1} - a_k between consecutive children of sampled
    level-n parents, one pair per parent, with k drawn from `rng` after the
    parent paths (as `sample_parent_paths` draws them).  Run under the
    construction's precision.

    Each increment is taken in the arc's local frame, about its centre c:
    d = (a_p - c)*expm1(-i*phi)*exp(-i*(k-1)*phi), with phi one angle step
    and expm1(-i*phi) = -2*sin(phi/2)**2 - i*sin(phi) formed once without
    cancellation; (a_p - c)*expm1(-i*phi) and the child count are kept per
    parent, so a pair costs one `expj` and one product.  Every factor is
    within a few ulps of its own size, so d is within a few ulps of |d| <= 1
    of the exact map's increment from the computed parent anchor a_p, where
    the difference of two anchors would lose |c|*2**-prec to cancellation.
    An error E in a_p moves d by E*|expm1(-i*phi)|, about E*phi.  Both lie
    well inside `anchor_error(n + 1)`.
    """
    sol = cons.sol(n)
    c = sol.center_c
    phi = sol.turn(1)
    s = mpmath.sin(phi / 2)
    step = mpmath.mpc(-2 * s * s, -mpmath.sin(phi))
    frames = {}  # parent path -> ((a_p - c)*step, child count)
    increments = []
    for ppath in cons.sample_parent_paths(n, n_samples, rng):
        if ppath not in frames:
            parent = cons.rect_by_path(ppath)
            frames[ppath] = ((parent.anchor - c) * step,
                             cons.count_children_of(parent))
        w, cnt = frames[ppath]
        if cnt >= 1:
            k = rng.randint(1, cnt)
            increments.append(w * mpmath.expj(-sol.turn(k - 1)))
    return increments


def verify_spacing(cons: Construction, child_level: int,
                   n_samples: int | None = None,
                   rng: random.Random | None = None) -> VerificationReport:
    """Check the spacing bounds for consecutive same-parent child anchors at
    `child_level`: height increments within c1*theta of the height scale,
    x-advances within 3*c1*theta of the expected stride, and x-gaps of at
    least three widths.

    With `n_samples` unset, every consecutive pair of the materialized level
    is checked; otherwise one pair per sampled parent, its increment taken
    in the arc's local frame (`_sampled_increments`).
    """
    table = cons.table
    n = child_level - 1  # parent level
    if n < 1:
        raise ValueError("child_level must be >= 2")
    theta = table.theta_(child_level)
    Delta = table.Delta_(child_level)
    delta = table.delta_(child_level)
    stride = table.delta_(n) / table.Delta_(n) * Delta
    c1 = table.c1

    rep = VerificationReport(
        title=f"spacing of level-{child_level} children "
              f"({'all pairs' if n_samples is None else f'{n_samples} sampled pairs'})")
    pairs = []
    err = cons.anchor_error(child_level)
    with workprec(cons.prec):
        if n_samples is None:
            level = cons.level(child_level)
            for a, b in zip(level.rects, level.rects[1:]):
                if a.path[:-1] == b.path[:-1]:
                    pairs.append((b.anchor - a.anchor))
        else:
            pairs = _sampled_increments(cons, n, n_samples,
                                        rng or random.Random(0))

        if not pairs:
            raise ConstructionError("no consecutive child pairs to verify")
        bound_y, bound_x, gap = c1 * theta, 3 * c1 * theta, 3 * delta
        by, bx, g = frac_to_mpf(bound_y), frac_to_mpf(bound_x), frac_to_mpf(gap)
        Dm, Sm = frac_to_mpf(Delta), frac_to_mpf(stride)
        xs = [d.real for d in pairs]
        worst_y = _worst_deviation(by, Dm, [d.imag for d in pairs])
        worst_x = _worst_deviation(bx, Sm, xs)
        worst_gap = min(xs) - g

    rep.stats = {
        "pairs": len(pairs),
        "child_level": child_level,
        "bound_y": bound_y,
        "bound_x": bound_x,
        "min_gap_required": gap,
    }
    rep.add_inequality(
        "height increment within c1*theta of the height scale", worst_y, err,
        detail=f"worst over {len(pairs)} pairs")
    rep.add_inequality(
        "x-advance within 3*c1*theta of the expected stride", worst_x, err,
        detail=f"worst over {len(pairs)} pairs")
    rep.add_inequality(
        "anchor x-gap at least 3x the child width", worst_gap, err,
        detail=f"worst over {len(pairs)} pairs")
    return rep


def verify_level_invariants(cons: Construction, n: int) -> VerificationReport:
    """Structural invariants of a materialized level: ordering, projection
    disjointness, height control, and the exact first rectangle."""
    table = cons.table
    rects = cons.level(n).rects
    rep = VerificationReport(title=f"level-{n} structure ({len(rects)} rects)")

    err = cons.anchor_error(n)
    with workprec(cons.prec):
        first = rects[0]
        rep.add("first rectangle anchored at the origin", first.anchor == 0)
        rep.add("widths equal the level width scale exactly",
                all(r.width == table.delta_(n) for r in rects))
        if n >= 2:
            rep.add_equality("first rectangle height equals the height scale",
                             first.height - frac_to_mpf(table.Delta_(n)), err)

        pairs = list(zip(rects, rects[1:]))
        rep.add("anchors strictly increasing in x and y",
                all(a.anchor.real < b.anchor.real and a.anchor.imag < b.anchor.imag
                    for a, b in pairs))

        w = frac_to_mpf(table.delta_(n))
        if pairs:
            rep.add_inequality(
                "x-projections disjoint with gaps of 2x the width",
                min(b.anchor.real - (a.anchor.real + w) for a, b in pairs)
                - 2 * w, err)
        # A child's top is its next sibling's anchor height, so siblings'
        # y-projections share an endpoint; other neighbours must not overlap.
        y_gaps = [(a.path[:-1] == b.path[:-1],
                   b.anchor.imag - (a.anchor.imag + a.height)) for a, b in pairs]
        siblings = [abs(g) for same, g in y_gaps if same]
        cousins = [g for same, g in y_gaps if not same]
        if siblings:
            rep.add_equality("y-projections of siblings share an endpoint",
                             max(siblings), err)
        if cousins:
            rep.add_inequality(
                "y-projections of different parents' children disjoint",
                min(cousins), err)

        if n >= 2:
            hb = frac_to_mpf(table.c1 * table.theta_(n))
            Dm = frac_to_mpf(table.Delta_(n))
            rep.add_inequality("heights within c1*theta of the height scale",
                               min(hb - abs(r.height - Dm) for r in rects), err)

        # The lower sides follow from the origin anchor and the increasing
        # anchors; level 1 is the unit square itself, built exactly.
        top = max(max(r.anchor.real + w, r.anchor.imag + r.height)
                  for r in rects)
        if n == 1:
            rep.add("rectangles contained in the unit square", top <= 1,
                    margin=1 - top)
        else:
            rep.add_inequality("rectangles contained in the unit square",
                               1 - top, err)

    rep.stats = {"level": n, "rects": len(rects)}
    return rep


def verify_counts(cons: Construction, max_parent_level: int) -> VerificationReport:
    """Exact rational checks on the child counts: the two-sided sandwich
    around the height-scale ratio (with width scale delta_0 := 1 at the first
    level) and the strict angle-ratio upper bound."""
    table = cons.table
    rep = VerificationReport(title="child count bounds")
    rep.stats = {"N": {}}
    for n in range(1, max_parent_level + 1):
        N = cons.N(n)
        rep.stats["N"][n] = N
        lo, hi = table.count_sandwich(n)
        rep.add(f"N_{n} sandwich lower bound", N >= lo,
                margin=N - lo, detail=f"N={N}, bound={float(lo):.6g}")
        rep.add(f"N_{n} sandwich upper bound", N <= hi,
                margin=hi - N, detail=f"N={N}, bound={float(hi):.6g}")
        # The strict angle-ratio bound genuinely fails at n = 1, where the
        # first level's unit width removes all headroom and the count equals
        # the ratio exactly; it holds with huge margin from n = 2 on.
        angle_ratio = table.theta_(n) / table.theta_(n + 1)
        rep.add(f"N_{n} below the angle-step ratio", N < angle_ratio,
                margin=angle_ratio - N,
                detail=f"N={N}, ratio={float(angle_ratio):.6g}")
        per_parent = cons.counts(n)
        rep.add(f"level-{n} per-parent counts within the same sandwich",
                all(lo <= m <= hi for m in per_parent),
                detail=f"min={min(per_parent)}, max={max(per_parent)}")
    return rep
