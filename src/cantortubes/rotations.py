"""Rotated copies of the construction and their tube coverings.

A clockwise rotation by theta is paired with a translation vector v(theta)
chosen so that consecutive rotated copies overlap heavily.  On the dyadic
angle grid (multiples of the per-level angle steps) v is defined by a
three-case recursion over `child_anchor` orbit points; elsewhere it is the
left limit along the grid, with a certified Cauchy tail bound.  `v_limit`
serves any angle, exactly (bound 0) on the grid.  The recursion runs on
integer pairs (m, i), the angle i*theta_m, split by divmod; a public angle
becomes its finest-grid index once, at entry.  Tube families inflate a
level's rectangles, rotate them, and translate them by v; their union over
one level's grid is the level's stage of the covering set.  Both v and the
tube families are built once per `RotationFamily` and then shared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import OffGridError, PopulationCapError
from .hierarchy import Construction, child_anchor
from .numerics import frac_to_mpf, workprec
from .reports import VerificationReport
from .sequences import p2_exponent

CASE_ROTATION_ONLY = "rotation-only"      # multiples of the coarsest step
CASE_ANCHOR = "anchor"                    # v = first-parent child anchor
CASE_ROTATED_ANCHOR = "rotated-anchor"    # anchor rotated by a block angle
CASE_COMPOSED = "composed"                # coarse part + rotated remainder

TRANSLATION_TABLE_CAP = 200_000   # entries of one materialized v table
STAGE_TUBE_CAP = 5_000_000        # tubes of one Besicovitch stage, and of
                                  # the tube-family memo


@dataclass(frozen=True)
class VLimitResult:
    """Left-limit evaluation of v at an arbitrary angle."""

    theta: Fraction
    point: object            # mpc
    error_bound: float
    grid_level: int
    evaluations: tuple       # ((m, point), ...) partial values per grid level
    index: int               # floor(theta/theta_G) on that finest grid G


@dataclass(frozen=True)
class TranslationEntry:
    index: int
    theta: Fraction
    x: float
    y: float
    case: str


@dataclass(frozen=True)
class TubeFamily:
    """All tubes of one rotation angle: congruent rotated boxes sharing one
    rotation and one translation, so only the centers vary.  Immutable, its
    centers a read-only view, so one family can be shared by every caller."""

    level: int
    angle_index: int
    angle: Fraction
    variant: str              # "T" (inflated level boxes) or "T_prime" (doubled)
    C: Fraction
    half_width: float
    half_height: float
    rotation: float           # box axes rotated by this signed angle
    centers: np.ndarray       # (m, 2) world coordinates
    v: tuple

    def __post_init__(self):
        centers = np.asarray(self.centers).view()
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    def __len__(self):
        return len(self.centers)

    def local_coords(self, points: np.ndarray) -> np.ndarray:
        """World points (k, 2) -> coordinates in each box frame, (k, m, 2)."""
        ca, sa = np.cos(-self.rotation), np.sin(-self.rotation)
        d = points[:, None, :] - self.centers[None, :, :]
        return np.stack([ca * d[..., 0] - sa * d[..., 1],
                         sa * d[..., 0] + ca * d[..., 1]], axis=-1)

    def corners(self) -> np.ndarray:
        """Polygon corners of every box, (m, 4, 2), for rendering/raster."""
        hw, hh = self.half_width, self.half_height
        local = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
        ca, sa = np.cos(self.rotation), np.sin(self.rotation)
        rot = np.array([[ca, -sa], [sa, ca]])
        return self.centers[:, None, :] + local @ rot.T


@dataclass(frozen=True)
class ContainmentReport:
    theta: float
    level: int
    C: float
    C_min: float
    C_min_single_family: float
    contained: bool
    family_index: int
    n_anchors: int
    sampled: bool
    worst_x_ratio: float
    worst_y_ratio: float
    v_error_bound: float
    scanned_all_families: bool

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class RotationFamily:
    """Translation vectors, rotated copies, and tube families over one
    construction."""

    def __init__(self, cons: Construction):
        self.cons = cons
        self._memo: dict[tuple, tuple] = {}     # (m, i): v at i*theta_m, case
        self._orbit: dict[tuple, object] = {}   # (n, k): origin's anchor k + 1
        self._coarse: dict[tuple, object] = {}  # (n, j): exp(-i*j*theta_n)
        self._tails: dict[int, Fraction] = {}   # m: tail_bound(m)
        self._families: dict[tuple, TubeFamily] = {}
        self._family_tubes = 0

    # -- angle grid ----------------------------------------------------------

    def grid_depth(self) -> int:
        """Finest grid level usable by the recursion, which needs the exact
        counts of every coarser level: the construction's `counted_depth()`."""
        return self.cons.counted_depth()

    def _steps(self, n: int, m: int) -> int:
        """theta_n/theta_m for n <= m, a power of two (`validate_sequences`):
        the ratio of the steps' denominators."""
        table = self.cons.table
        return table.theta_(m).denominator // table.theta_(n).denominator

    def _grid_index(self, theta: Fraction) -> tuple:
        """(floor(theta/theta_G), theta on that grid?) for the finest usable
        grid G, refused outside [0, 1]."""
        if not 0 <= theta <= 1:
            raise ValueError(f"angle must lie in [0, 1], got {theta}")
        i, rest = divmod(theta, self.cons.table.theta_(self.grid_depth()))
        return i, rest == 0

    # -- translation vectors ---------------------------------------------------

    def v(self, theta: Fraction):
        """Translation vector on the dyadic angle grid (exact recursion)."""
        theta = Fraction(theta)
        i, on_grid = self._grid_index(theta)
        if not on_grid:
            raise OffGridError(f"{theta} is off the finest usable grid "
                               f"(level {self.grid_depth()}); use v_limit")
        return self._v(self.grid_depth(), i)[0]

    def _v(self, m: int, i: int) -> tuple:
        """(v, case) at the angle i*theta_m, memoised by (m, i)."""
        if (m, i) not in self._memo:
            self._memo[m, i] = self._v_recursion(m, i)
        return self._memo[m, i]

    def _v_recursion(self, m: int, i: int) -> tuple:
        """v at i*theta_m = j*theta_n + K*theta_m, n = m - 1: the coarser
        level's v when K = 0, else with K = q*N_n + k.  The origin's orbit
        point child_anchor(0, sol_n, k + 1) is kept per (n, k), and the
        coarse rotation exp(-i*j*theta_n) per (n, j): a level's table meets
        each of them once per j or k, not once per entry.  Each is built
        once by the expression it replaces, at the construction's
        precision, so every v is bit for bit the one built without them."""
        if m == 1:  # every multiple of theta_1, 0 included
            return mpmath.mpc(0, 0), CASE_ROTATION_ONLY
        n = m - 1
        theta_n = self.cons.table.theta_(n)
        j, K = divmod(i, self._steps(n, m))
        if not K:
            return self._v(n, j)
        N_n = self.cons.N(n)
        q, k = divmod(K, N_n)
        sol = self.cons.sol(n)
        with workprec(self.cons.prec):
            if (n, k) not in self._orbit:
                self._orbit[n, k] = child_anchor(mpmath.mpc(0, 0), sol, k + 1)
            base = self._orbit[n, k]
            case = CASE_ANCHOR
            if q:
                base = mpmath.expj(-sol.turn(q * N_n)) * base
                case = CASE_ROTATED_ANCHOR
            if j:
                coarse, _ = self._v(n, j)
                if (n, j) not in self._coarse:
                    self._coarse[n, j] = mpmath.expj(-frac_to_mpf(j * theta_n))
                base = self._coarse[n, j] * base + coarse
                case = CASE_COMPOSED
        return base, case

    def tail_bound(self, m: int) -> Fraction:
        """Certified bound on ||v(theta) - v(Theta_m)||: the increment chain
        2*Delta_j from level m through the table depth, plus the geometric
        tail beyond the table (next height scale is at most c*delta_D^e and
        the scales at least halve); formed once per m."""
        if m not in self._tails:
            table = self.cons.table
            D = table.depth
            tail = sum((2 * table.Delta_(j) for j in range(m, D + 1)),
                       Fraction(0))
            beyond = table.c * table.delta_(D) ** p2_exponent(table.profile, D)
            self._tails[m] = tail + 4 * beyond
        return self._tails[m]

    def v_limit(self, theta) -> VLimitResult:
        """v at any angle in [0, 1] as the left limit: evaluate at the grid
        points below theta on every grid level; the finest value ships with
        its certified bound, 0 when theta lies on the finest usable grid."""
        theta = Fraction(theta)
        i, on_grid = self._grid_index(theta)
        level = self.grid_depth()
        evals = tuple((m, self._v(m, i // self._steps(m, level))[0])
                      for m in range(1, level + 1))
        return VLimitResult(
            theta=theta, point=evals[-1][1],
            error_bound=0.0 if on_grid else float(self.tail_bound(level)),
            grid_level=level, evaluations=evals, index=i)

    def translation_table(self, level: int) -> list:
        """Materialized v on a level's full angle grid, one `TranslationEntry`
        per grid index, refused past `TRANSLATION_TABLE_CAP` entries."""
        step = self.cons.table.theta_(level)
        count = self.cons.table.family_count(level)
        if count > TRANSLATION_TABLE_CAP:
            raise PopulationCapError(level=level, population=count,
                                     cap=TRANSLATION_TABLE_CAP)
        entries = []
        for idx in range(count):
            point, case = self._v(level, idx)
            entries.append(TranslationEntry(
                index=idx, theta=idx * step,
                x=float(point.real), y=float(point.imag), case=case))
        return entries

    # -- rotated copies --------------------------------------------------------

    def gamma_anchors(self, theta, level: int, n_samples: int | None = None,
                      rng: random.Random | None = None) -> tuple:
        """Anchors of the level approximant rotated by -theta and translated
        by v(theta): ((m, 2) float array, v point, v error bound, sampled?).

        Uses the materialized level when it fits the cap, sampled lazy paths
        otherwise (`n_samples` required then); sampled anchors come from the
        float64 pass `Construction.anchors_float64`, within its bound of the
        mpmath anchors.
        """
        res = self.v_limit(theta)
        v, theta = res.point, res.theta
        anchors, paths, _ = self.level_anchors(level, n_samples, rng)
        return _place(anchors, theta, v), v, res.error_bound, paths is not None

    def level_anchors(self, level: int, n_samples: int | None,
                      rng: random.Random | None) -> tuple:
        """(unrotated (m, 2) anchors, sampled paths or None, error bound):
        the materialized level exactly (read-only), else float64 anchors of
        `n_samples` lazy paths drawn from `rng`.  One draw can serve every
        containment check of the level (`check_containment`'s `sample`)."""
        if n_samples is None or level <= self.cons.materializable_depth():
            return self.cons.level(level).anchors_float(), None, 0.0
        paths = self.cons.sample_parent_paths(
            level, n_samples, rng or random.Random(0))
        anchors, e = self.cons.anchors_float64(paths)
        return anchors, paths, e

    # -- tube families -----------------------------------------------------------

    def _tube_C(self, C) -> Fraction:
        """The tube constant as a rational, the table's C_tube by default;
        a negative one is refused."""
        C = Fraction(C if C is not None else self.cons.table.C_tube)
        if C < 0:
            raise ValueError(f"C must be >= 0, got {C}")
        return C

    def tube_family(self, level: int, l: int, C=None, variant: str = "T") -> TubeFamily:
        """Rotated-box family at one grid angle: every level rectangle's
        anchor gets a centered box of half-extents C*theta x C*Delta ("T") or
        twice that ("T_prime"), all rotated by -l*theta_level and translated
        by v(l*theta_level).  Built once per (level, l, C, variant) and then
        shared, until the memo holds `STAGE_TUBE_CAP` tubes; past that,
        families are built afresh on every call."""
        table = self.cons.table
        C = self._tube_C(C)
        key = (level, l, C, variant)
        if key in self._families:
            return self._families[key]
        if variant not in ("T", "T_prime"):
            raise ValueError(f"unknown variant {variant!r}")
        mult = 1 if variant == "T" else 2
        step = table.theta_(level)
        n_fam = table.family_count(level)
        if not 0 <= l < n_fam:
            raise ValueError(f"angle index {l} outside 0..{n_fam - 1}")
        angle = l * step
        v = self._v(level, l)[0]
        fam = TubeFamily(
            level=level, angle_index=l, angle=angle, variant=variant, C=C,
            half_width=mult * float(C * step),
            half_height=mult * float(C * table.Delta_(level)),
            rotation=-float(angle),
            centers=_place(self.cons.level(level).anchors_float(), angle, v),
            v=(float(v.real), float(v.imag)),
        )
        if self._family_tubes + len(fam) <= STAGE_TUBE_CAP:
            self._families[key] = fam
            self._family_tubes += len(fam)
        return fam

    def besicovitch_stage(self, level: int, C=None, variant: str = "T") -> list:
        """All tube families of one level: angle indices 0..floor(1/theta).
        The intersection of these unions over successive levels is the
        covering set; one level is one finite stage.  Refused past
        `STAGE_TUBE_CAP` tubes."""
        n_fam = self.cons.table.family_count(level)
        pop = n_fam * len(self.cons.level(level).rects)
        if pop > STAGE_TUBE_CAP:
            raise PopulationCapError(level=level, population=pop,
                                     cap=STAGE_TUBE_CAP)
        return [self.tube_family(level, l, C, variant) for l in range(n_fam)]

    # -- containment -----------------------------------------------------------

    def check_containment(self, theta, n: int, C=None,
                          n_samples: int = 1000,
                          rng: random.Random | None = None,
                          sample: tuple | None = None) -> ContainmentReport:
        """Is the rotated level-(n+1) approximant inside the level-n tube
        union?  Reports the minimal sufficient C: each anchor is matched with
        the cheapest tube of the angle's own family, and the scan widens to
        every family only when that family cannot cover the anchor within C.

        Sampled anchors are screened in float64 (`anchors_float64`, bound e)
        and refined in mpmath only where they can decide a reported number.
        The ratio is L-Lipschitz in the anchor, L = 1/min(theta_n, Delta_n),
        so a screened ratio lies within delta = L*(e + 2*e_map) of the one
        built from the mpmath anchor, where e_map = 16*u*M (u = 2**-53, M
        bounds |anchor| + |v| + |tube centre|) bounds the rounding of one
        float evaluation of the rotation, the translation and the tube frame
        (cos and sin within one ulp).  Every anchor whose screened ratio lies
        within 2*delta of the maximum, for its own family or over every
        family, is recomputed through `anchor_by_path`; every family is
        screened unless the screened maximum lies more than delta below C.
        The maxima, the argmax anchor and every reported number then come
        from mpmath anchors alone.

        `sample` is the level-(n+1) draw `level_anchors(n + 1, n_samples,
        rng)`, made here when not given (then from `n_samples` and `rng`);
        a caller checking several angles passes one draw to each.  Refined
        anchors go into this check's own copy, so no refinement carries over
        from one check to the next.  The level n lies on the angle grid:
        1 <= n <= `grid_depth()`.
        """
        table = self.cons.table
        C = self._tube_C(C)
        res = self.v_limit(theta)
        if not 1 <= n <= res.grid_level:
            raise ValueError(f"containment level {n} outside 1.."
                             f"{res.grid_level}, the angle grid's levels")
        v, theta = res.point, res.theta
        anchors, paths, e = sample or self.level_anchors(n + 1, n_samples, rng)
        theta_n, Delta_n = float(table.theta_(n)), float(table.Delta_(n))
        n_fam = table.family_count(n)
        # floor(theta/theta_n) from the grid index: theta_G divides theta_n.
        i0 = min(res.index // self._steps(n, res.grid_level), n_fam - 1)
        own = self.tube_family(n, i0, C, "T")
        others = []

        def every_family() -> list:
            if not others:
                others.extend(self.tube_family(n, l, C, "T")
                              for l in range(n_fam) if l != i0)
            return others

        def ratios(family: TubeFamily, pts: np.ndarray) -> tuple:
            local = family.local_coords(pts)  # (k, m, 2)
            return local, np.maximum(np.abs(local[..., 0]) / theta_n,
                                     np.abs(local[..., 1]) / Delta_n)

        def widest(pts: np.ndarray, single: np.ndarray) -> np.ndarray:
            best = single
            for family in every_family():
                best = np.minimum(best, ratios(family, pts)[1].min(axis=1))
            return best

        pts = _place(anchors, theta, v)
        if paths is not None:
            u, L = 2.0 ** -53, 1 / min(theta_n, Delta_n)
            reach = np.hypot(anchors[:, 0], anchors[:, 1]).max() + abs(complex(v))

            def delta(families) -> float:
                M = reach + max(np.hypot(f.centers[:, 0], f.centers[:, 1]).max()
                                for f in families)
                return L * (e + 2 * 16 * u * M)

            single = ratios(own, pts)[1].min(axis=1)
            d_own = delta([own])
            refine = single >= single.max() - 2 * d_own
            if single.max() > float(C) - d_own:
                best = widest(pts, single)
                refine |= best >= best.max() - 2 * delta([own] + others)
            anchors = anchors.copy()
            for j in np.flatnonzero(refine):
                a = self.cons.anchor_by_path(paths[j])
                anchors[j] = (float(a.real), float(a.imag))
            pts = _place(anchors, theta, v)

        local, own_ratios = ratios(own, pts)
        single = own_ratios.min(axis=1)  # best tube of the own family
        scanned_all = bool(single.max() > float(C))
        best = widest(pts, single) if scanned_all else single
        worst = int(np.argmax(single))
        j_best = int(np.argmin(own_ratios[worst]))
        return ContainmentReport(
            theta=float(theta), level=n, C=float(C),
            C_min=float(best.max()),
            C_min_single_family=float(single.max()),
            contained=bool(best.max() <= float(C)),
            family_index=i0,
            n_anchors=len(pts),
            sampled=paths is not None,
            worst_x_ratio=float(np.abs(local[worst, j_best, 0]) / theta_n),
            worst_y_ratio=float(np.abs(local[worst, j_best, 1]) / Delta_n),
            v_error_bound=res.error_bound,
            scanned_all_families=scanned_all,
        )


def _place(anchors: np.ndarray, theta: Fraction, v) -> np.ndarray:
    """(m, 2) anchors rotated by -theta and translated by v."""
    z = (anchors[:, 0] + 1j * anchors[:, 1]) * np.exp(-1j * float(theta)) \
        + complex(float(v.real), float(v.imag))
    return np.stack([z.real, z.imag], axis=1)


def verify_translation_invariants(rf: RotationFamily,
                                  rng: random.Random | None = None
                                  ) -> VerificationReport:
    """The limit-evaluation invariants: per-level increments within twice the
    height scale, on-grid stationarity, and honesty of the returned bound."""
    rng = rng or random.Random(0)
    n_thetas = 40
    cons = rf.cons
    table = cons.table
    depth = rf.grid_depth()
    if depth < 2:
        raise ValueError("translation invariants need a grid depth >= 2")
    rep = VerificationReport(title="translation-vector limit behaviour")

    incs, honesty = [], []
    with workprec(cons.prec):
        # Per level m: twice the height scale, and the bound certified after
        # evaluating at level m, which refining by one level stays within.
        bounds = [(frac_to_mpf(2 * table.Delta_(m)),
                   frac_to_mpf(rf.tail_bound(m))) for m in range(1, depth)]
        for _ in range(n_thetas):
            theta = Fraction(rng.random()).limit_denominator(10**12)
            evals = dict(rf.v_limit(theta).evaluations)
            for m, (scale, tail) in enumerate(bounds, start=1):
                inc = abs(evals[m + 1] - evals[m])
                incs.append(scale - inc)
                honesty.append(tail - inc)
        # v at grid level m is built from child-anchor orbit points about
        # the centres of arcs 1..m - 1, as a level-m anchor is.
        err = cons.anchor_error(depth)
        rep.add_inequality("grid-refinement increments within 2*Delta_m",
                           min(incs), err, detail=f"{n_thetas} random angles")
        rep.add_inequality("certified bound dominates the observed refinement",
                           min(honesty), err)

    # On the grid the limit's finest evaluation is the memoised v itself.
    grid = [rng.randint(0, int(1 / table.theta_(m)) - 1) * table.theta_(m)
            for m in range(1, depth + 1)]
    rep.add("on-grid limit equals the recursion value",
            all(rf.v_limit(g).point == rf.v(g) for g in grid))
    return rep
