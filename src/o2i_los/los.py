"""Line-of-sight probability through the window, three ways.

clearances is the one LoS predicate: it splits the base-station-to-receiver
path at the wall plane and returns the verdict with the crossing point, d1,
d2, the Fresnel radius and both signed edge clearances; p_los_grids applies
it to the receiver grids of a batch of scenes.  p_los_closed evaluates the
closed-form wedge-area approximation, p_los_optical its frequency-independent
high-frequency limit, and p_los_grid is the exact deterministic reference the
closed form is judged against.

Why one LoS interval per grid column suffices: at fixed receiver depth x
the wall crossing u is an increasing affine function of y, and a receiver
is LoS when the normalised margin

    half_window - |u| - LOS_CLEARANCE_RATIO * r_d / cos_norm

is >= 0.  With path slope s = (u - bs_y) / standoff the clearance term
equals K * (1 + s^2)^(3/4), K fixed per column, which is convex in u; the
margin is therefore concave in u and in y, and its >= 0 set is one
interval.  p_los_grids predicts the two ends of that interval per column
with a few Newton steps on the margin and checks each prediction with the
exact predicate, so a chunk of grid columns, from several scenes, costs two
vectorised predicate calls; a column whose prediction fails the check is
bisected with O(log n) evaluations, and a column whose best margin lies
within 1e-9 of the room side of zero is counted cell by cell.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .diffraction import SPEED_OF_LIGHT, fresnel_radius, wavelength
from .geometry import SceneGeometry, bs_position

if TYPE_CHECKING:
    import numpy as np

# A link is LoS when both window edges clear this fraction of the first
# Fresnel zone radius.
LOS_CLEARANCE_RATIO = 0.6

# A ray from deep in front of the window leaves the back wall for a side
# wall at atan((L/2)/L); independent of the room size for a square room.
CORNER_RAY_ANGLE = math.atan(0.5)

# A grid column whose largest normalised margin lies within this share of
# the room side of zero is counted densely.
_NEAR_ZERO = 1e-9

# Newton steps that predict each grid column's two LoS boundaries.
_NEWTON_STEPS = 3

# Most grid columns per vectorised pass; larger chunks were no faster and hold more memory.
_CHUNK_COLUMNS = 3072


@dataclass(frozen=True)
class GridSpec:
    """Grid-simulation resolution: n x n receiver positions at cell centres."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 10):
            raise ValueError("grid n must be an integer of at least 10")


@dataclass(frozen=True)
class LosEvaluation:
    """LoS probability of one scene and carrier frequency, all routes."""

    p_closed: float
    p_optical: float
    below_critical: bool
    p_grid: float | None = None


def p_los_closed(scene: SceneGeometry, frequency: float) -> float:
    """Closed-form LoS probability for a uniformly placed indoor receiver.

    The area of the wedge of half-angle phi about the central ray through
    the window centre, between radii d1 and d1 + d2, over the room area;
    d2 runs on to the back wall inside CORNER_RAY_ANGLE, to a side wall
    beyond it.  Below the critical frequency phi <= 0 and no wedge exists.
    """
    lam = wavelength(frequency)
    theta = scene.bs_angle
    cos_t = math.cos(theta)
    d1 = scene.bs_distance / cos_t
    if abs(theta) < CORNER_RAY_ANGLE:
        d2 = scene.room_side / cos_t
    else:
        d2 = scene.room_side / (2.0 * abs(math.sin(theta)))
    rd = fresnel_radius(d1, d2, lam)
    aperture = scene.window_width * cos_t * cos_t - 2.0 * LOS_CLEARANCE_RATIO * rd * cos_t
    phi = aperture / (2.0 * scene.bs_distance)
    if phi <= 0.0:
        return 0.0
    return min(phi * d2 * (d2 + 2.0 * d1) / scene.room_side**2, 1.0)


def p_los_optical(scene: SceneGeometry) -> float:
    """Frequency-independent LoS probability in the vanishing-wavelength limit.

    Valid at zero aspect angle, where the Fresnel clearance term drops out
    of the closed form.
    """
    p = scene.window_width * (1.0 / scene.room_side + 1.0 / (2.0 * scene.bs_distance))
    return min(p, 1.0)


def critical_frequency(scene: SceneGeometry) -> float:
    """Carrier frequency below which no LoS exists at zero aspect angle.

    Solves for the wavelength at which the required edge clearance exactly
    consumes the window aperture.  bs_angle is not read.
    """
    ratio = 2.0 * LOS_CLEARANCE_RATIO
    critical_wavelength = (scene.window_width / ratio) ** 2 * (
        1.0 / scene.bs_distance + 1.0 / scene.room_side
    )
    return SPEED_OF_LIGHT / critical_wavelength


class Clearances(NamedTuple):
    """The LoS predicate and its terms for receivers at (x, y).

    los: the path crosses the wall plane inside the window and both edge
    clearances reach LOS_CLEARANCE_RATIO * r_d.  margin: half_window - |u|
    - LOS_CLEARANCE_RATIO * r_d / cos_norm for the wall crossing u, with the
    sign of the predicate.  lower, upper: signed perpendicular distances of
    the window edges from the path, negative when the wall beyond that edge
    cuts the path.
    """

    los: np.ndarray
    margin: np.ndarray
    crossing_y: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    r_d: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def clearances(scene: SceneGeometry, x, y, wavelength_m: float) -> Clearances:
    """Split the path to receivers at (x, y) at the wall plane; x > 0, arrays or floats."""
    return _clearances(*bs_position(scene), scene.window_width / 2.0, x, y, wavelength_m)


def _clearances(bs_x, bs_y, half_window, x, y, wavelength_m) -> Clearances:
    # clearances for a base station and half-window given as floats or broadcasting arrays.
    import numpy as np

    t = (0.0 - bs_x) / (x - bs_x)
    y_cross = bs_y + (y - bs_y) * t
    d1 = np.hypot(0.0 - bs_x, y_cross - bs_y)
    d2 = np.hypot(x, y - y_cross)
    rd = np.sqrt(wavelength_m * d1 * d2 / (d1 + d2))
    # Perpendicular edge clearance = wall-plane offset scaled by the path
    # direction cosine against the wall normal.
    cos_norm = (x - bs_x) / np.hypot(x - bs_x, y - bs_y)
    threshold = LOS_CLEARANCE_RATIO * rd
    lower = (y_cross + half_window) * cos_norm
    upper = (half_window - y_cross) * cos_norm
    ok = (np.abs(y_cross) < half_window) & (upper >= threshold) & (lower >= threshold)
    margin = half_window - np.abs(y_cross) - threshold / cos_norm
    return Clearances(ok, margin, y_cross, d1, d2, rd, lower, upper)


def p_los_grid(scene: SceneGeometry, frequency: float, grid: GridSpec) -> float:
    """LoS fraction over an n x n grid of receivers at room cell centres: a batch of one."""
    return p_los_grids([(scene, wavelength(frequency))], grid)[0]


def p_los_grids(points, grid: GridSpec) -> list[float]:
    """p_los_grid of each (scene, wavelength_m) pair, in order.

    The exact per-point predicate decides every cell, yet a chunk of points,
    _CHUNK_COLUMNS // n of them or one when n is larger, takes a few
    predicate calls, each vectorised across all its grid columns.  The LoS
    cells of a column form one run (module docstring).  The seed cell of a
    column, of largest margin next to the closed-form maximiser, is LoS or
    the column has none.  Otherwise _NEWTON_STEPS Newton steps on the
    margin predict the first and last LoS cell, and one predicate call on
    them and their outer neighbours checks both; a column that fails the
    check is bisected with the predicate on each side of the seed.  A
    column whose largest margin lies within _NEAR_ZERO * room_side of zero
    is counted densely instead, since there rounding may split the run.
    The counts are exact and do not depend on the chunking, and a chunk
    whose columns all pass the check takes two predicate calls.
    """
    if not all(0 < wavelength_m < math.inf for _, wavelength_m in points):
        raise ValueError("wavelength must be positive and finite")
    size = max(1, _CHUNK_COLUMNS // grid.n)
    return [f for i in range(0, len(points), size) for f in _grid_chunk(points[i:i + size], grid.n)]


def _grid_chunk(points, n: int) -> list[float]:
    import numpy as np

    # Per-point values as (P, 1) columns against the (P, n) grid; np.take reads them
    # flat, where grid column c is point c // n's.
    bs_x, bs_y, h, lam, room, tan = np.array([
        (*bs_position(sc), sc.window_width / 2.0, wavelength_m, sc.room_side, math.tan(sc.bs_angle))
        for sc, wavelength_m in points
    ]).T[:, :, None]
    step, standoff = room / n, 0.0 - bs_x
    xs = (np.arange(n) + 0.5) * step
    ys = -room / 2.0 + (np.arange(n) + 0.5) * step
    offset = np.arange(len(points))[:, None] * n  # flat index of each point's row 0

    def of(p, *values):  # at points p; floats in a one-point chunk, which numpy applies faster
        return [np.take(a, 0 if len(points) == 1 else p) for a in values]

    def at(p, x, j):  # the predicate for points p at depth x and row index j
        bx, by, hw, wl, base = of(p, bs_x, bs_y, h, lam, offset)
        return _clearances(bx, by, hw, x, np.take(ys, base + j), wl)

    # Path slope s maximising the margin: the window-centre slope tan(theta)
    # unless the Fresnel term's slope there exceeds the unit slope of |u|,
    # in which case s = +-s_max solves 3k/(2 standoff) s (1+s^2)^(-1/4) = 1.
    # An overflow there gives s_max = inf, the no-clamp limit, so it is silenced.
    k = LOS_CLEARANCE_RATIO * np.sqrt(lam * standoff * xs / (xs + standoff))
    with np.errstate(over="ignore"):
        c2 = (2.0 * standoff / (3.0 * k)) ** 2
        s_max = np.sqrt(c2 * (c2 + np.sqrt(c2 * c2 + 4.0)) / 2.0)
    slope = np.clip(tan, -s_max, s_max)
    row = np.floor((bs_y + slope * (xs + standoff) + room / 2.0) / step - 0.5)
    pair = np.clip(np.stack([row, row + 1.0]), 0, n - 1).astype(np.intp)
    ok, margin = at(np.arange(len(points))[:, None], xs, pair)[:2]
    upper = margin[1] > margin[0]
    best = np.where(upper, pair[1], pair[0]).ravel()
    ok = np.where(upper, ok[1], ok[0]).ravel()
    near = (np.abs(np.maximum(margin[0], margin[1])) <= _NEAR_ZERO * room).ravel()

    # Predict the column's two boundaries: Newton steps on the margin
    # g(u) = h - sigma u - K (1 + s^2)^(3/4), s = (u - bs_y) / standoff, for
    # sigma = -1 (first cell) and +1 (last cell), from u = sigma h.  There g
    # < 0 outside the run, and g is concave, so the iterates approach the
    # root from outside without crossing it.  The check below judges the
    # prediction, so its overflow in extreme scenes is silenced, and
    # fmin/fmax map a non-finite one into range.
    cols = np.flatnonzero(ok & ~near)
    p, x, best, k = cols // n, xs.ravel()[cols], best[cols], k.ravel()[cols]
    hw, by, so, rm, st = of(p, h, bs_y, standoff, room, step)  # per column
    sigma = np.array([[-1.0], [1.0]])
    u = sigma * hw
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            s = (u - by) / so
            q = 1.0 + s * s
            u = u + (hw - sigma * u - k * q**0.75) / (sigma + 1.5 * k * s / (so * q**0.25))
        pos = (by + (u - by) / so * (x + so) + rm / 2.0) / st - 0.5
    first = np.fmin(np.fmax(np.ceil(pos[0]), 0), best).astype(np.intp)
    last = np.fmax(np.fmin(np.floor(pos[1]), n - 1), best).astype(np.intp)

    # Check each prediction with the predicate: first and last are LoS, and
    # their outer neighbours are not or lie outside the room.
    hit = at(p, x, np.clip(np.stack([first - 1, first, last, last + 1]), 0, n - 1)).los
    miss = ~(hit[1] & hit[2] & ((first == 0) | ~hit[0]) & ((last == n - 1) | ~hit[3]))
    checked = np.bincount(p[~miss], (last - first + 1)[~miss], len(points))

    # A column that fails the check is bisected.  The predicate is false,
    # then true up to best, then false again.
    p, x = p[miss], x[miss]
    first, first_end = np.zeros_like(p), best[miss]
    last, last_end = best[miss], np.full_like(p, n - 1)
    while (first < first_end).any() or (last < last_end).any():
        mid_first = (first + first_end) // 2
        mid_last = (last + last_end + 1) // 2
        hit = at(p, x, np.stack([mid_first, mid_last])).los
        first_end = np.where(hit[0], mid_first, first_end)
        first = np.where(hit[0], first, mid_first + 1)
        last = np.where(hit[1], mid_last, last)
        last_end = np.where(hit[1], last_end, mid_last - 1)
    count = checked + np.bincount(p, last - first + 1, len(points))

    dense = np.flatnonzero(near)
    if dense.size:
        hit = at(dense[:, None] // n, xs.ravel()[dense][:, None], np.arange(n)).los
        count = count + np.bincount(dense // n, np.count_nonzero(hit, axis=1), len(points))
    return (count / (n * n)).tolist()


def evaluate(
    scene: SceneGeometry, frequency: float, grid: GridSpec | None = None
) -> LosEvaluation:
    """All LoS probability routes for one scene and carrier frequency."""
    return LosEvaluation(
        p_closed=p_los_closed(scene, frequency),
        p_optical=p_los_optical(scene),
        below_critical=frequency <= critical_frequency(scene),
        p_grid=None if grid is None else p_los_grid(scene, frequency, grid),
    )
