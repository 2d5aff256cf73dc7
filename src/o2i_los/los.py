"""Line-of-sight probability through the window, three ways.

clearances is the one LoS predicate: it splits the base-station-to-receiver
path at the wall plane and returns the verdict with the crossing point, d1,
d2, the Fresnel radius and both signed edge clearances.  p_los_closed is the
closed-form wedge-area approximation, p_los_optical its high-frequency
limit, and p_los_grid the exact reference the closed form is judged against.

A receiver is LoS when the margin h - |u| - LOS_CLEARANCE_RATIO r_d /
cos_norm is >= 0, for half window h and wall crossing u.  Along a grid
column u is affine in y and the clearance term has the smooth form
K (1 + s^2)^(3/4) of the path slope s, convex in y, so the margin is concave
and a column's LoS cells form one run.  The predicate forms u as a weighted
mean of the receiver's and the base station's y, so no term loses digits to
cancellation at any standoff.  p_los_grids decides cells by the margin
outside a rounding band of one part in 1e9 of h, and takes the predicate
only for the columns it cannot settle.
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

# The smooth margin g = h - |u| - clear decides a grid cell where |g| > _NEAR_ZERO h.
# g shares the predicate's wall crossing u bit for bit, so the two differ by rounding
# of order eps (h + |u| + clear): about 1e-15 h while |u| + clear <= 3h, and beyond
# that g < -(2/3)(|u| + clear) reads dark in both, as does g = -inf; NaN is undecided.
_NEAR_ZERO = 1e-9

# Newton steps that predict each grid column's two LoS boundaries.
_NEWTON_STEPS = 3

# Most grid columns per vectorised pass; larger chunks gained little and hold more memory.
_CHUNK_COLUMNS = 6144


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
    theta, room, window, standoff = scene.bs_angle, scene.room_side, scene.window_width, scene.bs_distance
    cos_t = math.cos(theta)
    e = 0  # lengths in units of 2^e, e even, by fresnel_radius's rule: near L, d1 < 2^1022, the standoff >= 2^-1074
    if not (2.0**-300 < window <= room < 2.0**300 and 2.0**-300 < standoff < 2.0**300):
        e = max(math.frexp(room)[1], math.frexp(standoff)[1] - math.frexp(cos_t)[1] - 1022) & ~1
        room, window, standoff = math.ldexp(room, -e), math.ldexp(window, -e), max(math.ldexp(standoff, -e), 5e-324)
    d1 = standoff / cos_t
    if abs(theta) < CORNER_RAY_ANGLE:
        d2 = room / cos_t
    else:
        d2 = room / (2.0 * abs(math.sin(theta)))
    rd = math.ldexp(fresnel_radius(d1, d2, lam), -e // 2)  # r_d^2 is the wavelength times a length
    aperture = window * cos_t * cos_t - 2.0 * LOS_CLEARANCE_RATIO * rd * cos_t
    phi = aperture / (2.0 * standoff)
    if phi <= 0.0:
        return 0.0
    return min(phi * d2 * (d2 + 2.0 * d1) / (room * room), 1.0)  # x * x is correctly rounded, x**2 (pow) is not


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
    w, d, room = scene.window_width / (2.0 * LOS_CLEARANCE_RATIO), scene.bs_distance, scene.room_side
    if 2.0**-300 < w and room < 2.0**300 and 2.0**-300 < d < 2.0**300:  # fresnel_radius's rule; w < room
        return SPEED_OF_LIGHT / (w * w * (1.0 / d + 1.0 / room))
    (w, a), b = math.frexp(w), (math.frexp(d)[1] + math.frexp(room)[1]) // 2  # w in units of 2^a, d and L of 2^b
    return math.ldexp(SPEED_OF_LIGHT / (w * w * (1.0 / math.ldexp(d, -b) + 1.0 / math.ldexp(room, -b))), b - 2 * a)


class Clearances(NamedTuple):
    """The LoS predicate and its terms for receivers at (x, y).

    los: the path crosses the wall plane inside the window and both edge
    clearances reach LOS_CLEARANCE_RATIO * r_d.  lower, upper: signed
    perpendicular distances of the window edges from the path, negative
    when the wall beyond that edge cuts the path.
    """

    los: np.ndarray
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

    # The wall crossing as a weighted mean of y and bs_y, so neither loses its
    # digits to the other; t = d1 / (d1 + d2) by similar triangles.
    so = 0.0 - bs_x
    t = so / (x + so)
    y_cross = y * t + bs_y * (x / (x + so))
    d1 = np.hypot(so, y_cross - bs_y)
    d2 = np.hypot(x, y - y_cross)
    rd = np.sqrt(wavelength_m * d2 * t)
    # Perpendicular edge clearance = wall-plane offset scaled by the path
    # direction cosine against the wall normal.
    cos_norm = x / d2
    threshold = LOS_CLEARANCE_RATIO * rd
    lower = (y_cross + half_window) * cos_norm
    upper = (half_window - y_cross) * cos_norm
    ok = (np.abs(y_cross) < half_window) & (upper >= threshold) & (lower >= threshold)
    return Clearances(ok, y_cross, d1, d2, rd, lower, upper)


def p_los_grid(scene: SceneGeometry, frequency: float, grid: GridSpec) -> float:
    """LoS fraction over an n x n grid of receivers at room cell centres: a batch of one."""
    return p_los_grids([(scene, wavelength(frequency))], grid)[0]


def p_los_grids(points, grid: GridSpec) -> list[float]:
    """p_los_grid of each (scene, wavelength_m) pair, in order.

    A chunk of _CHUNK_COLUMNS // n points, or one when n is larger, is
    vectorised across its grid columns.  The smooth margin picks each
    column's best cell of the two next to its closed-form maximiser, and
    _NEWTON_STEPS float32 Newton steps predict the run's first and last
    cell; the smooth margin at those and their outer neighbours checks them.
    Its band, _NEAR_ZERO of the half window, covers the rounding of both
    forms, and the predicate takes the rest: a lit column whose check fails is
    bisected from its best cell, a column whose best margin lies in the band
    is counted cell by cell, and every count equals the predicate's.  The
    chunks of one call share one scratch dict, made for this call alone: the
    margin and the check's rows write in place, and the rest is plain numpy.
    """
    if not all(0 < wavelength_m < math.inf for _, wavelength_m in points):
        raise ValueError("wavelength must be positive and finite")
    size, scratch = max(1, _CHUNK_COLUMNS // grid.n), {}
    return [f for i in range(0, len(points), size) for f in _grid_chunk(points[i:i + size], grid.n, scratch)]


def _grid_chunk(points, n: int, scratch: dict) -> list[float]:
    import numpy as np

    # Per-point values as (P, 1) columns against the (P, n) grid; np.take reads
    # per-column values flat, grid column c being point c // n's.  Only the margin
    # and the check's rows write in place, into scratch, in the order of the
    # expression each comment gives, so every value rounds as that expression does.
    bs_x, bs_y, h, lam, room, tan = np.array([
        (*bs_position(sc), sc.window_width / 2.0, wavelength_m, sc.room_side, math.tan(sc.bs_angle))
        for sc, wavelength_m in points
    ]).T.copy()[:, :, None]
    step, standoff, half_room = room / n, 0.0 - bs_x, room / 2.0
    # Cell centres.  margin and at form row j's y as (j + 0.5) * step - half_room, the
    # bits of xs - half_room, so the margin shares the predicate's wall crossing bit for bit.
    xs = (np.arange(n) + 0.5) * step
    x_so = xs + standoff
    ratio = standoff / x_so
    shift = bs_y * (xs / x_so)  # the crossing is y * ratio + shift, as _clearances forms it

    # A view of the leading elements of the flat buffer kept under name, made
    # anew only when a request outgrows it.  A fresh array per operation has
    # pages the heap would trim and fault in again; arrays live at the same
    # time need different names.
    def ws(name, shape, dtype=float):
        size = math.prod(shape)
        if name not in scratch or scratch[name].size < size:
            scratch[name] = np.empty(size, dtype)
        return scratch[name][:size].reshape(shape)

    def at(p, x, j):  # the predicate's verdict for points p at depth x and row index j
        bx, by, hw, wl, st, half = (np.take(a, p) for a in (bs_x, bs_y, h, lam, step, half_room))
        return _clearances(bx, by, hw, x, (j + 0.5) * st - half, wl).los

    def row_of(s, u, x, half, st):  # the float row where a path of slope s through wall point u reaches depth x
        return (u + s * x + half) / st - 0.5

    def margin(j, by, hw, st, half, x_so, ratio, shift, k):  # the smooth margin where it decides the verdict, else 0
        y = np.add(j, 0.5, out=ws("m_y", j.shape))
        y = np.subtract(np.multiply(y, st, out=y), half, out=y)  # (j + 0.5) * st - half
        u = np.multiply(y, ratio, out=ws("m_u", j.shape))
        u = np.abs(np.add(u, shift, out=u), out=u)  # |y * ratio + shift|
        rise = np.subtract(y, by, out=y)
        q = np.square(np.divide(rise, x_so, out=rise), out=rise)
        q += 1.0
        g = np.sqrt(q, out=ws("margin", j.shape))
        clear = np.sqrt(np.multiply(g, q, out=q), out=q)  # sqrt(sqrt(q) * q)
        clear *= k  # K (1 + s^2)^(3/4)
        g = np.subtract(hw, u, out=g)
        g -= clear
        np.copyto(g, 0.0, where=~(np.abs(g, out=u) > hw * _NEAR_ZERO))  # |g| > _NEAR_ZERO h; NaN is undecided
        return g

    # Path slope s maximising the margin: the window-centre slope tan(theta)
    # unless the Fresnel term's slope there exceeds the unit slope of |u|,
    # in which case s = +-s_max solves 3k/(2 standoff) s (1+s^2)^(-1/4) = 1.
    # An overflow there, or a K that underflows to 0, gives s_max = inf, the no-clamp limit.
    # K takes ratio, as lam * standoff overflows near the float limit, and stays finite.
    k = np.sqrt(lam * xs * ratio) * LOS_CLEARANCE_RATIO
    with np.errstate(over="ignore", divide="ignore"):
        c2 = np.square(2.0 * standoff / (k * 3.0))
        s_max = np.sqrt(c2 * (np.sqrt(c2 * c2 + 4.0) + c2) / 2.0)
    s = np.clip(tan, -s_max, s_max)
    row = np.floor(row_of(s, standoff * (s - tan), xs, half_room, step))
    # The rows either side of the maximiser; the better one is the column's best cell.
    pair = ws("rows", (2, len(points), n), np.intp)
    pair[0], pair[1] = np.clip(row, 0, n - 1), np.clip(row + 1.0, 0, n - 1)
    seed = margin(pair, bs_y, h, step, half_room, x_so, ratio, shift, k)
    best = np.where(seed[1] > seed[0], pair[1], pair[0]).ravel()
    seed = np.maximum(seed[0], seed[1]).ravel()

    # Predict the column's two boundaries: Newton steps on the margin
    # g(v) = v - K (1 + s^2)^(3/4) in the gap v = h - sigma u that wall crossing u
    # leaves to the window edge, s = tan(theta) + u / standoff, for sigma = -1
    # (first cell) and +1 (last cell), from v = 0.  g < 0 outside the run and is
    # concave, so the iterates approach the root from outside.  The check judges the
    # result, so plain float32 serves: it rounds v to a share of the gap, not of h.
    # Overflow is silenced, and fmin/fmax map a non-finite result into range.
    cols = np.flatnonzero(seed > 0)
    p = cols // n
    x_so, ratio, shift, k, best, x = (np.take(a, cols) for a in (x_so, ratio, shift, k, best, xs))
    # Per column; floats in a one-point chunk, which numpy applies faster.
    hw, by, so, tn, half, st = (
        np.take(a, 0 if len(points) == 1 else p) for a in (h, bs_y, standoff, tan, half_room, step)
    )
    sigma, v = np.array([[-1.0], [1.0]], np.float32), np.float32(0.0)
    with np.errstate(all="ignore"):
        hw32, so32, tn32, k32 = (np.float32(a) for a in (hw, so, tn, k))
        for _ in range(_NEWTON_STEPS):
            s = tn32 + sigma * (hw32 - v) / so32
            q = 1.0 + s * s
            r = np.sqrt(np.sqrt(q))  # q^(1/4), cheaper than a power
            v = v - (v - k32 * q / r) / (1.0 + sigma * 1.5 * k32 * s / (so32 * r))
        u = sigma * (hw - v)
        pos = row_of(tn + u / so, u, x, half, st)
    first = np.fmin(np.fmax(np.ceil(pos[0]), 0), best).astype(np.intp)
    last = np.fmax(np.fmin(np.floor(pos[1]), n - 1), best).astype(np.intp)

    # Check each prediction by the smooth margin: first and last are LoS,
    # and their outer neighbours are not or lie outside the room.
    j = ws("rows", (4, cols.size), np.intp)  # the seed's pair is no longer read
    np.subtract(first, 1, out=j[0])
    j[1], j[2] = first, last
    np.add(last, 1, out=j[3])
    g = margin(np.clip(j, 0, n - 1, out=j), by, hw, st, half, x_so, ratio, shift, k)
    ok = ((first == 0) | (g[0] < 0)) & ((last == n - 1) | (g[3] < 0)) & (g[1] > 0) & (g[2] > 0)
    checked = np.bincount(p, np.where(ok, last - first + 1, 0), len(points))
    miss = ~ok

    # A failed column is bisected with the predicate, false, then true up to best,
    # then false: row 0 seeks the first lit cell in [0, best], row 1 the first dark
    # cell in [best + 1, n].  Every probe lies in the room, also in a finished row.
    p, x = p[miss], x[miss]
    lo, hi = np.stack([np.zeros_like(p), best[miss] + 1]), np.stack([best[miss], np.full_like(p, n)])
    while (lo < hi).any():
        mid = (lo + hi - [[0], [1]]) // 2  # row 1 rounds down from hi - 1, a cell in the room
        found = at(p, x, mid) != [[False], [True]]
        lo, hi = np.where(found, lo, mid + 1), np.where(found, mid, hi)
    count = checked + np.bincount(p, lo[1] - lo[0], len(points))

    # A column whose best margin lies in the band is counted cell by cell, 2^20 cells a pass.
    dense, block = np.flatnonzero(seed == 0), max(1, 2**20 // n)
    for cols in (dense[i:i + block] for i in range(0, dense.size, block)):
        hit = at(cols[:, None] // n, np.take(xs, cols)[:, None], np.arange(n))
        count = count + np.bincount(cols // n, np.count_nonzero(hit, axis=1), len(points))
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
