"""Float64 views of the construction that only the demos show: the angle a
level's circle subtends as its center moves along the bisector (demo 02),
and the translation-size constants measured on the angle grid (demo 04)."""

import random
from fractions import Fraction

import numpy as np


def perp_bisector_axis_crossing(delta_n, Delta_n) -> tuple[Fraction, Fraction]:
    """Where the perpendicular bisector of (0,0)-(delta, Delta) meets the
    x-axis: ((delta^2 + Delta^2) / (2 delta), 0), exactly."""
    d, D = Fraction(delta_n), Fraction(Delta_n)
    return ((d * d + D * D) / (2 * d), Fraction(0))


def angle_profile(delta_n, Delta_n, Delta_next, ts: np.ndarray) -> np.ndarray:
    """Float64 sweep of the achieved angle over center offsets `ts`.

    Independent, vectorized view of the same geometry: the angle shrinks
    monotonically to zero as the center moves outward, so the target angle
    is met by exactly one center; `ts` are offsets along the bisector
    measured from its x-axis crossing.
    """
    d = float(delta_n)
    D = float(Delta_n)
    h = float(Delta_next)
    L = np.hypot(d, D)
    mx, my = d / 2.0, D / 2.0
    ux, uy = D / L, -d / L
    t_axis = D * L / (2.0 * d)
    ax = mx + (t_axis + ts) * ux
    ay = my + (t_axis + ts) * uy
    r = np.hypot(ax, ay)
    u = h * (h - 2.0 * ay) / (ax * ax)
    xq = ax * u / (1.0 + np.sqrt(1.0 - u))
    chord = np.hypot(xq, h)
    return 2.0 * np.arcsin(chord / (2.0 * r))


def empirical_v_bounds(rf, n: int, n_samples: int = 400,
                       rng: random.Random | None = None) -> dict:
    """Measured constants K_x, K_y with |P_x(v)| <= K_x*theta_n and
    |P_y(v)| <= K_y*Delta_n over sampled on-grid angles below theta_n."""
    rng = rng or random.Random(0)
    table = rf.cons.table
    theta_n = table.theta_(n)
    finest = rf.grid_depth()
    K_x = K_y = 0.0
    count = 0
    for m in range(n + 1, finest + 1):
        step = table.theta_(m)
        max_idx = int(theta_n / step) - 1
        if max_idx < 1:
            continue
        idxs = {rng.randint(1, max_idx) for _ in range(n_samples // 2)}
        idxs.update(range(1, min(max_idx, 16) + 1))
        for idx in sorted(idxs):
            v = rf.v(idx * step)
            K_x = max(K_x, abs(float(v.real)) / float(theta_n))
            K_y = max(K_y, abs(float(v.imag)) / float(table.Delta_(n)))
            count += 1
    return {"level": n, "K_x": K_x, "K_y": K_y, "samples": count}
