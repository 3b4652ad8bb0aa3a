"""Nested rectangle generations over the solved arcs.

Level 1 is the unit square; every next level places children along the
level's circular arc by rotating the parent's bottom-left corner about the
arc center in equal angle steps (`child_anchor`), each rectangle built from
its parent (`Construction.child_rect`).  Shallow levels are materialized
outright; deep ones (populations in the billions) are reached by path.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath
import numpy as np

from .arcs import ArcSolution, solve_table_arcs
from .dyadic import ceil_frac, floor_log2
from .errors import ConstructionError, PopulationCapError
from .numerics import arith_error, default_precision, frac_to_mpf, workprec
from .reports import INCONCLUSIVE, PASS, VerificationReport, classify
from .sequences import SequenceTable

DEFAULT_MATERIALIZATION_CAP = 2_000_000


@lru_cache(maxsize=64)
def _width_mpf(width: Fraction, prec: int):
    """frac_to_mpf(width) at `prec` bits, converted once: a level's
    rectangles share their width, and every count predicate uses it."""
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

    def contain_slack(self, d):
        """Smallest signed distance of the point anchor + d to the four
        sides, from its displacement d from the anchor; >= 0 iff the point
        lies in the closed rectangle.  Evaluate under a working precision:
        each side is one subtraction at the scale of max(|d|, width,
        height), never at that of the anchor."""
        w = _width_mpf(self.width, mpmath.mp.prec)
        return min(d.real, w - d.real, d.imag, self.height - d.imag)

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


def child_anchor(parent_anchor, sol: ArcSolution, k: int):
    """Anchor of the k-th child, the one mpmath orbit map: the parent anchor
    a rotated clockwise by k-1 angle steps about the arc centre c, in the
    local frame a + (a - c)*expm1_turn(k - 1), at the solution's precision.
    Its move d is within 7*2**-prec*|d| (a - c, the factor and the product
    each round at their own size), the sum within 2**-prec*|a_k|."""
    if k < 1:
        raise ValueError(f"child index must be >= 1, got {k}")
    if k == 1:
        return parent_anchor
    with workprec(sol.prec):
        a = parent_anchor
        return a + (a - sol.center_c) * sol.expm1_turn(k - 1)


def _exit_step(parent: RectNode, sol: ArcSolution, z, hi: int) -> int:
    """Closed-form estimate of the child count: the number of whole angle
    steps before the child orbit leaves the parent, solved in the arc's
    local frame z = parent.anchor - c = X + iY.

    Rotating the parent's corner clockwise by t moves it by
    z*(exp(-i*t) - 1) = (X*(cos t - 1) + Y*sin t) + i*(Y*(cos t - 1) - X*sin t).
    With s = tan(t/2), cos t - 1 = -2s**2/(1 + s**2) and sin t =
    2s/(1 + s**2), so reaching the right edge (real part w, the width) and
    the top edge (imaginary part h, the height) are the quadratics
        (2X + w)*s**2 - 2Y*s + w = 0,   (2Y + h)*s**2 + 2X*s + h = 0,
    whose least positive roots, written without cancellation, are
        s = w/(Y + sqrt(Y**2 + (-2X - w)*w)),
        s = h/(-X + sqrt(X**2 - (2Y + h)*h)),
    both positive as X < 0 < Y (the centre lies below and right of every
    parent).  A negative discriminant means the orbit does not cross that
    edge; with neither crossed, the estimate is hi.  The orbit leaves at
    t = 2*atan(min s), and the estimate is floor(t/phi) for the angle step
    phi.

    Precision: every term above adds quantities of one sign or divides, so
    t comes out within a few ulps relative.  t/phi is at most hi, so its
    absolute error is about hi*2**-p, and p = bits(hi) + 64 leaves it below
    2**-60: a floor only misses when t/phi lies that close to an integer.
    The global-frame angle difference psi - acos(...) needed the precision
    of 1/phi instead, since it subtracts two angles of size one.  The
    estimate only seeds the search; `count_children` certifies the result.
    """
    with workprec((hi - 1).bit_length() + 64):
        X, Y = +z.real, +z.imag
        w, h = _width_mpf(parent.width, mpmath.mp.prec), +parent.height
        roots = []
        disc = Y * Y + (-2 * X - w) * w
        if disc >= 0:
            roots.append(w / (Y + mpmath.sqrt(disc)))
        disc = X * X - (2 * Y + h) * h
        if disc >= 0:
            roots.append(h / (-X + mpmath.sqrt(disc)))
        if not roots:
            return hi
        return int(2 * mpmath.atan(min(roots)) / sol.turn(1))  # floor: t > 0


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


def count_children(parent: RectNode, sol: ArcSolution, hi: int, err,
                   step_factor, bound_factor) -> int:
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

    pred(k) is decided in the arc's local frame: with z = a_p - c formed
    once per parent, anchor k+1 is a_p + d_k with the displacement
    d_k = z*expm1_turn(k).  pred(hi) uses `bound_factor` = expm1_turn(hi),
    and pred(k+1) right after pred(k) costs one product: with E_j =
    expm1_turn(j), E_{k+1} = (E_k + 1)*(E_1 + 1) - 1 = E_k + (1 + E_k)*E_1,
    so d_{k+1} = d_k + (z + d_k)*`step_factor` (= E_1).  Any other pred(k)
    costs one expm1_turn(k); d_0 = 0 seeds the chain.  Both factors are per
    level (`Construction._constants`).

    pred takes the sign of `parent.contain_slack(d_k)` by the report rule
    (`reports.classify`): only when it clears MARGIN_FACTOR * `err`, a bound
    on its arithmetic error (the child level's `Construction.anchor_error`).
    An inconclusive slack raises ConstructionError.  z is one rounding from
    a_p - c and E_k is within a few ulps of its size, so d_k is within a few
    ulps of |d_k| <= 2 (a product step adds a few ulps of |z + d_k|*|E_1|,
    about |d_1|), and the slack subtracts d_k from the width and height
    directly: it is within a few 2**-prec of max(|d_k|, w, h) of its value
    from the computed a_p, far inside `err` = 64*2**-prec*(1 + sum |c_j|).
    """
    def pred(k: int) -> bool:
        nonlocal last
        j, d = last
        if k == hi:
            d = z * bound_factor
        elif k == j + 1:
            d = d + (z + d) * step_factor
        else:
            d = z * sol.expm1_turn(k)
        last = (k, d)
        s = parent.contain_slack(d)
        verdict = classify(s, err)
        if verdict == INCONCLUSIVE:
            raise ConstructionError(
                f"containment slack {mpmath.nstr(s, 5)} of child {k + 1} of "
                f"level-{parent.level} parent {parent.path} is inconclusive "
                f"against its error bound {mpmath.nstr(err, 5)}")
        return verdict == PASS

    with workprec(sol.prec):
        z = parent.anchor - sol.center_c
        last = (0, mpmath.mpc(0))  # (k, d_k) of the previous pred; d_0 = 0
        if pred(hi):
            raise ConstructionError(
                f"containment did not terminate below the angle-ratio bound "
                f"{hi}; monotone-exit assumption violated")
        return _certified_transition(pred, _exit_step(parent, sol, z, hi), hi)


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
        self._consts: dict[int, tuple] = {}

    def sol(self, n: int) -> ArcSolution:
        """Arc solution used to subdivide level n, refused (ValueError)
        outside 1..depth - 1: the deepest level has no children."""
        if not 1 <= n <= len(self.sols):
            raise ValueError(f"no arc subdivides level {n} of a depth-"
                             f"{self.table.depth} table")
        return self.sols[n - 1]

    def anchor_error(self, n: int):
        """Error (mpf) of level-n anchors and their increments:
        `arith_error` at the scale 1 + sum |c_j| over the centres c_1 ..
        c_{n-1} that a level-n anchor's walk rotates about (each step rounds
        relative to its centre's magnitude, see `default_precision`), plus
        the parent arc's residual, which moves its centre and with it every
        increment by about residual*radius."""
        with workprec(self.prec):
            scale = 1 + sum(abs(sol.center_c) for sol in self.sols[:n - 1])
            err = arith_error(self.prec, scale)
            if n >= 2:
                sol = self.sol(n - 1)
                err += 4 * sol.residual * sol.radius
            return err

    def level(self, n: int) -> LevelSet:
        """Level n, materialized on first use; past `materializable_depth()`
        its population exceeds the cap and `PopulationCapError` is raised.
        Its rectangles are the first N(n - 1) children (the uniform count)
        of every level-(n - 1) rectangle, each built by `child_rect`, in
        path order, which must be anchor-x order."""
        self.table.check_level(n)
        if n not in self._levels:
            population = self.population(n)
            if population > self.cap:
                raise PopulationCapError(level=n, population=population,
                                         cap=self.cap)
            ks = range(1, self.N(n - 1) + 1)
            rects = [self.child_rect(parent, k)
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
        """Anchor of the rectangle `path` addresses (`rect_by_path`)."""
        return self.rect_by_path(path).anchor

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
        """The level-(len(path)+1) rectangle addressed by child indices: one
        `child_rect` per index past the deepest materialized one on it."""
        path = self._checked(path)
        i, rect = self._materialized_prefix(path)
        for k in path[i:]:
            rect = self.child_rect(rect, k)
        return rect

    def child_rect(self, parent: RectNode, k: int) -> RectNode:
        """Child k of `parent`, the one place rectangles past level 1 are
        built: anchored at a_k, of the child width, and as high as the step
        to its next sibling (`_child`), which must point strictly up-right."""
        a, step = self._child(parent, k)
        path = parent.path + (k,)
        if not (step.real > 0 and step.imag > 0):
            raise ConstructionError(
                f"step {step} to the next sibling is not strictly up-right; "
                f"spacing assumption violated at level {len(path) + 1}, path {path}")
        return RectNode(len(path) + 1, path, a, self.table.delta_(len(path) + 1),
                        step.imag)

    def _child(self, parent: RectNode, k: int) -> tuple:
        """(a_k, a_{k+1} - a_k) of child k: `child_anchor`, and the step
        (a_k - c)*E_1 within a few ulps of max(|step|, |a_k|*|E_1|), where
        two anchors' difference would lose |c|*2**-prec."""
        sol = self.sol(parent.level)
        a = child_anchor(parent.anchor, sol, k)
        with workprec(self.prec):
            return a, (a - sol.center_c) * self._constants(parent.level)[2]

    def count_children_by_path(self, path) -> int:
        """Per-parent child count of the parent `path` addresses."""
        path = tuple(path)
        if path in self._counts:
            return self._counts[path]
        return self.count_children_of(self.rect_by_path(path))

    def count_children_of(self, parent: RectNode) -> int:
        """Per-parent child count of a parent rectangle already built (by
        `rect_by_path`), cached by its path: the one count cache, shared by
        `counts`, `count_children_by_path` and sampled spacing checks."""
        if parent.path not in self._counts:
            self._counts[parent.path] = count_children(
                parent, self.sol(parent.level), *self._constants(parent.level))
        return self._counts[parent.path]

    def _constants(self, n: int) -> tuple:
        """(hi, err, E_1, E_hi) of level-n parents, once per level: the count
        search bound, the children's `anchor_error`, and expm1_turn of one
        angle step (each child's step, `_child`) and of hi."""
        if n not in self._consts:
            sol, hi = self.sol(n), count_search_bound(self.table, n)
            with workprec(self.prec):
                self._consts[n] = (hi, self.anchor_error(n + 1),
                                   sol.expm1_turn(1), sol.expm1_turn(hi))
        return self._consts[n]

    def sample_parent_paths(self, parent_level: int, n_samples: int,
                            rng: random.Random) -> list:
        """Uniformly sampled paths addressing level-`parent_level` parents.
        Uses the exact uniform counts of the materializable levels,
        per-parent counts beyond, read off the rectangle each draw carries
        down its path: each lazy prefix is built once."""
        self.table.check_level(parent_level)
        exact = [self.N(lvl) for lvl in
                 range(1, min(parent_level, self.counted_depth()))]
        paths = []
        for _ in range(n_samples):
            path, rect = [], None
            for i in range(parent_level - 1):
                if i < len(exact):
                    bound = exact[i]
                else:
                    rect = (self.rect_by_path(path) if rect is None
                            else self.child_rect(rect, path[-1]))
                    bound = self.count_children_of(rect)
                path.append(rng.randint(1, bound))
            paths.append(tuple(path))
        return paths


def _worst_deviation(bound, centre, values):
    """min(bound - |centre - v|) over `values` (mpfs), evaluated at their
    least and greatest only: mpmath rounds every operation correctly, so
    fl(centre - v) is monotone in v and fl(bound - t) in t, and the minimum
    is reached there bit for bit."""
    return min(bound - abs(centre - v) for v in (min(values), max(values)))


def _sampled_pairs(cons: Construction, n: int, n_samples: int,
                   rng: random.Random):
    """(parent, k) of one consecutive-children pair k, k + 1 per sampled
    level-n parent, both children in level n + 1: all parent paths are
    drawn from `rng` first, then one k per path from 1..N(n) - 1 while level
    n is counted (level n + 1 keeps the first N(n) children of each parent),
    from 1..count - 1 beyond.  A parent with fewer than two children is
    skipped."""
    counted = n < cons.counted_depth()
    for ppath in cons.sample_parent_paths(n, n_samples, rng):
        parent = cons.rect_by_path(ppath)
        kids = cons.N(n) if counted else cons.count_children_of(parent)
        if kids >= 2:
            yield parent, rng.randint(1, kids - 1)


def _increments(cons: Construction, n: int, pairs) -> list:
    """Increments a_{k+1} - a_k of the (parent, k) `pairs` of level-n
    parents: each child's step, whose imaginary part is its height
    (`Construction._child`).  An error E in a_p moves one by about E*phi."""
    return [cons._child(parent, k)[1] for parent, k in pairs]


def _extreme_pairs(cons: Construction, n: int, pairs: list) -> list:
    """The (parent, k) `pairs` of level-n parents whose increment (as
    `_increments` evaluates it) can reach the minimum or the maximum of
    either coordinate over all of `pairs`, screened in float64.

    Raw increments agree to far below float64's resolution at deep levels
    (to about 1e-27 relative at strict depth 4, level 4), so the screen
    reads each one's deviation from the reference increment w_ref of the
    first pair's parent a_ref.  With E_1 = `expm1_turn(1)`, w_p =
    (a_p - c)*E_1 = w_ref + (a_p - a_ref)*E_1 and t = (k - 1)*phi,
        d - w_ref = (a_p - a_ref)*E_1 + w_p*(exp(-i*t) - 1),
    exactly; the last factor is -2*sin(t/2)**2 - i*sin(t) at t =
    `turn_float(k - 1)`, as in `anchors_float64`.  Every term is scaled by
    2**E, E = -floor(log2(Delta_{n+1})), so increments are of order one and
    nothing underflows at deep levels.

    Bound.  With u = 2**-53 and v = 2**-prec (the working precision), each
    input enters within r = u + 8v relative: E_1, D = a_p - a_ref and w_ref
    are mpmath values within 8 ulps, each rounded once to float64 (scaling
    by 2**E is exact).  Then, per pair, operation by operation:
      - P = D*E_1 is within eP = |D|*|E_1|*(2r + 2*sqrt(2)*u), the complex
        product rounding within 2*sqrt(2)*u of its size;
      - w_p = w_ref + P is within ew = r*|w_ref| + eP + u*|w_p|;
      - the factor m is within u*t*(3 + 3t) (`anchors_float64`);
      - Q = w_p*m is within |m|*ew + |w_p|*u*t*(3 + 3t) +
        2*sqrt(2)*u*|w_p|*|m|;
      - X = P + Q rounds within u*|X|.
    The increment `_increments` evaluates (five roundings and two factors
    within 5v) lies within v*(23*|w_p| + |a_p|*|E_1|) of the exact one, and
    64v*(|w_p| + ew + (|a_ref| + |D|)*|E_1|) covers it, scaled.  An operation
    whose result is subnormal (a tiny t, a tiny component of E_1) rounds
    within 2**-1075 absolute instead, and the pair's few dozen operations
    pass that on with factors at most 1 + |w_p| + |D|: 2**-1069*(1 + |w_p| +
    |D|) covers them.
    e is the largest per-pair sum, times 1 + 2**-20 for second-order terms
    and the rounding of the bound's own arithmetic.  So a screened
    coordinate X_p lies within e of x_p, the same coordinate of the
    computed increment, scaled, less one constant common to every pair (the
    exact w_ref, scaled).

    Keep rule.  If pair q attains the least x and pair r the least X, then
    X_q <= x_q + e <= x_r + e <= X_r + 2e: every pair within 2e of the
    least X is kept, and likewise at the greatest.  So the kept pairs hold
    every pair that attains an extreme, and the extremes over them are the
    extremes over all pairs, the same mpfs bit for bit.  When any scaled
    quantity is not finite, every pair is kept.  `pairs` must not be empty.
    """
    sol = cons.sol(n)
    E = -floor_log2(cons.table.Delta_(n + 1))

    def scaled(z) -> complex:
        return complex(mpmath.ldexp(z.real, E), mpmath.ldexp(z.imag, E))

    with workprec(cons.prec):
        ref, w_ref = cons._child(pairs[0][0], 1)  # a_ref, (a_ref - c)*E_1
        E1, w_ref = scaled(cons._constants(n)[2]), scaled(w_ref)
        diff = lru_cache(maxsize=None)(
            lambda parent: complex(parent.anchor - ref))
        D = np.array([diff(parent) for parent, _ in pairs])
    t = np.array([sol.turn_float(k - 1) for _, k in pairs])
    u, v = 2.0 ** -53, 2.0 ** -min(cons.prec, 1000)  # v >= 2**-prec
    r, cross = u + 8 * v, 2 * np.sqrt(2) * u
    with np.errstate(all="ignore"):
        s = np.sin(0.5 * t)
        m = -2 * s * s - 1j * np.sin(t)
        P = D * E1
        w = w_ref + P
        X = P + w * m
        Dabs, W, M = np.abs(D), np.abs(w), np.abs(m)
        eP = Dabs * abs(E1) * (2 * r + cross)
        ew = r * abs(w_ref) + eP + u * W
        eX = (eP + M * ew + W * u * t * (3 + 3 * t) + cross * W * M + u * np.abs(X)
              + 64 * v * (W + ew + (abs(complex(ref)) + Dabs) * abs(E1))
              + 2.0 ** -1069 * (1 + W + Dabs))
        e = np.max(eX) * (1 + 2.0 ** -20)
        if not (np.isfinite(e) and np.isfinite(X).all()):
            return pairs
        keep = np.zeros(len(pairs), dtype=bool)
        for x in (X.real, X.imag):
            keep |= (x <= x.min() + 2 * e) | (x >= x.max() - 2 * e)
    return [pair for pair, kept in zip(pairs, keep) if kept]


def verify_spacing(cons: Construction, child_level: int,
                   n_samples: int | None = None,
                   rng: random.Random | None = None) -> VerificationReport:
    """Check the spacing bounds for consecutive same-parent child anchors at
    `child_level`: height increments within c1*theta of the height scale,
    x-advances within 3*c1*theta of the expected stride, and x-gaps of at
    least three widths.

    With `n_samples` unset, every consecutive pair of the materialized level
    is checked; otherwise one pair per sampled parent (`_sampled_pairs`).
    Either way each increment is taken in the arc's local frame
    (`_increments`), and only for the pairs the float64 screen
    `_extreme_pairs` keeps: the checks read only the extremes of the
    increments, and those are the same mpfs over the kept pairs as over all.
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
    err = cons.anchor_error(child_level)
    with workprec(cons.prec):
        if n_samples is None:
            cons.level(child_level)  # refused past the cap
            pairs = [(parent, k) for parent in cons.level(n).rects
                     for k in range(1, cons.N(n))]
        else:
            pairs = list(_sampled_pairs(cons, n, n_samples,
                                        rng or random.Random(0)))
        if not pairs:
            raise ConstructionError("no consecutive child pairs to verify")
        increments = _increments(cons, n, _extreme_pairs(cons, n, pairs))

        bound_y, bound_x, gap = c1 * theta, 3 * c1 * theta, 3 * delta
        by, bx, g = frac_to_mpf(bound_y), frac_to_mpf(bound_x), frac_to_mpf(gap)
        Dm, Sm = frac_to_mpf(Delta), frac_to_mpf(stride)
        xs = [d.real for d in increments]
        worst_y = _worst_deviation(by, Dm, [d.imag for d in increments])
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


def _six_digits(x: Fraction) -> str:
    """x as f"{float(x):.6g}" writes it, also past float64's range."""
    if abs(x) <= sys.float_info.max:
        return f"{float(x):.6g}"
    with workprec(80):
        return mpmath.nstr(frac_to_mpf(x), 6)


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
                margin=N - lo, detail=f"N={N}, bound={_six_digits(lo)}")
        rep.add(f"N_{n} sandwich upper bound", N <= hi,
                margin=hi - N, detail=f"N={N}, bound={_six_digits(hi)}")
        # The strict angle-ratio bound genuinely fails at n = 1, where the
        # first level's unit width removes all headroom and the count equals
        # the ratio exactly; it holds with huge margin from n = 2 on.
        angle_ratio = table.theta_(n) / table.theta_(n + 1)
        rep.add(f"N_{n} below the angle-step ratio", N < angle_ratio,
                margin=angle_ratio - N,
                detail=f"N={N}, ratio={_six_digits(angle_ratio)}")
        per_parent = cons.counts(n)
        rep.add(f"level-{n} per-parent counts within the same sandwich",
                all(lo <= m <= hi for m in per_parent),
                detail=f"min={min(per_parent)}, max={max(per_parent)}")
    return rep
