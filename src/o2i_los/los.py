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
and a column's LoS cells form one run.  p_los_grids decides cells by it
outside a rounding band about zero, and takes the predicate only for the
columns it cannot settle.
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

# The smooth margin decides a grid cell only outside a band about zero:
# _NEAR_ZERO of the size of its terms, plus _CANCELLATION_ULP of the clearance
# term times the factor by which the predicate's path lengths lose digits to
# cancellation (their rounding measured under 1.5 ulp times that factor).
_NEAR_ZERO = 1e-9
_CANCELLATION_ULP = 2.0**-46

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
    try:
        area = scene.room_side**2
    except OverflowError:  # L^2 overflows, the share does not: divide each length by L
        return min(phi * (d2 / scene.room_side) * ((d2 + 2.0 * d1) / scene.room_side), 1.0)
    return min(phi * d2 * (d2 + 2.0 * d1) / area, 1.0)


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
    return Clearances(ok, y_cross, d1, d2, rd, lower, upper)


def p_los_grid(scene: SceneGeometry, frequency: float, grid: GridSpec) -> float:
    """LoS fraction over an n x n grid of receivers at room cell centres: a batch of one."""
    return p_los_grids([(scene, wavelength(frequency))], grid)[0]


def p_los_grids(points, grid: GridSpec) -> list[float]:
    """p_los_grid of each (scene, wavelength_m) pair, in order.

    A chunk of _CHUNK_COLUMNS // n points, or one when n is larger, is
    vectorised across its grid columns.  The smooth margin picks each
    column's best cell of the two next to its closed-form maximiser, and
    _NEWTON_STEPS Newton steps predict the run's first and last cell; the
    smooth margin at those and their outer neighbours checks them.  Its band
    covers the rounding of both forms, and the predicate takes the rest: a
    lit column whose check fails is bisected from its best cell, and a
    column whose best margin lies in the band is counted cell by cell.  The
    counts equal the predicate's on every cell.  The chunks of one call share
    one scratch dict, made for this call alone: the margin, the Newton loop
    and the check's rows write in place into its buffers, and the rest,
    bool masks and per-column results included, is plain numpy.
    """
    if not all(0 < wavelength_m < math.inf for _, wavelength_m in points):
        raise ValueError("wavelength must be positive and finite")
    size, scratch = max(1, _CHUNK_COLUMNS // grid.n), {}
    return [f for i in range(0, len(points), size) for f in _grid_chunk(points[i:i + size], grid.n, scratch)]


def _grid_chunk(points, n: int, scratch: dict) -> list[float]:
    import numpy as np

    # Per-point values as (P, 1) columns against the (P, n) grid; np.take reads
    # both flat, where grid column c is point c // n's.  Only the margin, the
    # Newton loop and the check's rows write in place, into the buffers of
    # scratch, in the order of the expression each comment gives, so every value
    # is rounded as that expression rounds it; the rest is plain numpy.
    bs_x, bs_y, h, lam, room, tan = np.array([
        (*bs_position(sc), sc.window_width / 2.0, wavelength_m, sc.room_side, math.tan(sc.bs_angle))
        for sc, wavelength_m in points
    ]).T.copy()[:, :, None]
    step, standoff, half_room = room / n, 0.0 - bs_x, room / 2.0
    offset = np.arange(len(points))[:, None] * n  # flat index of each point's row 0
    xs = (np.arange(n) + 0.5) * step  # cell centres
    ys = xs - half_room
    x_so = xs + standoff
    ratio = standoff / x_so
    # The margin's band per unit of its clearance term, with the cancellation factor.
    band_rate = (1.0 / xs + 1.0 / standoff) * (half_room + np.abs(bs_y)) * _CANCELLATION_ULP + _NEAR_ZERO

    # A view of the leading elements of the flat buffer kept under name, made anew
    # only when a request outgrows it.  A fresh array per operation has pages the
    # heap would trim and fault in again; arrays live at the same time need
    # different names.
    def ws(name, shape, dtype=float):
        size = math.prod(shape)
        if name not in scratch or scratch[name].size < size:
            scratch[name] = np.empty(size, dtype)
        return scratch[name][:size].reshape(shape)

    def at(p, x, j):  # the predicate's verdict for points p at depth x and row index j
        bx, by, hw, wl, base = (np.take(a, p) for a in (bs_x, bs_y, h, lam, offset))
        return _clearances(bx, by, hw, x, np.take(ys, base + j), wl).los

    def row_of(s, x_so, by, half, st):  # the float row where a path of slope s crosses depth x
        return (s * x_so + by + half) / st - 0.5

    def margin(j, by, hw, base, x_so, ratio, band_rate, k):  # the smooth margin where it decides the verdict, else 0
        index = np.add(base, j, out=ws("m_index", j.shape, np.intp))
        rise = np.take(ys, index, out=ws("m_rise", j.shape), mode="clip")
        rise -= by
        u = np.multiply(rise, ratio, out=ws("m_u", j.shape))  # rise * (standoff / (x + standoff))
        u = np.abs(np.add(u, by, out=u), out=u)  # |crossing|, rounded as _clearances rounds it
        q = np.square(np.divide(rise, x_so, out=rise), out=rise)
        q += 1.0
        g = np.sqrt(q, out=ws("margin", j.shape))
        clear = np.sqrt(np.multiply(g, q, out=q), out=q)  # sqrt(sqrt(q) * q)
        clear *= k  # K (1 + s^2)^(3/4)
        g = np.subtract(hw, u, out=g)
        g -= clear
        band = np.multiply(clear, band_rate, out=clear)
        band += np.multiply(np.add(u, hw, out=u), _NEAR_ZERO, out=u)  # _NEAR_ZERO * (u + hw)
        np.copyto(g, 0.0, where=~(np.abs(g, out=u) > band))  # a NaN margin is undecided
        return g

    # Path slope s maximising the margin: the window-centre slope tan(theta)
    # unless the Fresnel term's slope there exceeds the unit slope of |u|,
    # in which case s = +-s_max solves 3k/(2 standoff) s (1+s^2)^(-1/4) = 1.
    # An overflow there gives s_max = inf, the no-clamp limit, so it is silenced.
    k = np.sqrt(lam * standoff * xs / x_so) * LOS_CLEARANCE_RATIO
    with np.errstate(over="ignore"):
        c2 = np.square(2.0 * standoff / (k * 3.0))
        s_max = np.sqrt(c2 * (np.sqrt(c2 * c2 + 4.0) + c2) / 2.0)
    row = np.floor(row_of(np.clip(tan, -s_max, s_max), x_so, bs_y, half_room, step))
    # The rows either side of the maximiser; the better one is the column's best cell.
    pair = ws("rows", (2, len(points), n), np.intp)
    pair[0], pair[1] = np.clip(row, 0, n - 1), np.clip(row + 1.0, 0, n - 1)
    seed = margin(pair, bs_y, h, offset, x_so, ratio, band_rate, k)
    best = np.where(seed[1] > seed[0], pair[1], pair[0]).ravel()
    seed = np.maximum(seed[0], seed[1]).ravel()

    # Predict the column's two boundaries: Newton steps on the margin
    # g(u) = h - sigma u - K (1 + s^2)^(3/4), s = (u - bs_y) / standoff, for sigma = -1
    # (first cell) and +1 (last cell), from u = sigma h.  g < 0 outside the run and is
    # concave, so the iterates approach the root from outside.  The check judges the
    # result, so overflow is silenced, and fmin/fmax map a non-finite one into range.
    cols = np.flatnonzero(seed > 0)
    p = cols // n
    x_so, ratio, band_rate, k, best = (np.take(a, cols) for a in (x_so, ratio, band_rate, k, best))
    # Per column; floats in a one-point chunk, which numpy applies faster.
    hw, by, so, half, st, base = (
        np.take(a, 0 if len(points) == 1 else p) for a in (h, bs_y, standoff, half_room, step, offset)
    )
    sigma = np.array([[-1.0], [1.0]])
    u, s, q, r, step_u = (ws(name, (2, cols.size)) for name in ("n_u", "n_s", "n_q", "n_r", "n_step"))
    u = np.multiply(sigma, hw, out=u)
    k_3_2 = 1.5 * k
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            s = np.divide(np.subtract(u, by, out=s), so, out=s)  # (u - by) / so
            q = np.add(np.multiply(s, s, out=q), 1.0, out=q)  # 1 + s^2
            r = np.sqrt(np.sqrt(q, out=r), out=r)  # q^(1/4), cheaper than a power
            # u + (hw - sigma u - k q / r) / (sigma + 1.5 k s / (so r))
            step_u = np.subtract(hw, np.multiply(sigma, u, out=step_u), out=step_u)
            step_u -= np.divide(np.multiply(k, q, out=q), r, out=q)
            s = np.divide(np.multiply(k_3_2, s, out=s), np.multiply(so, r, out=r), out=s)
            s += sigma
            step_u /= s
            u += step_u
        pos = row_of((u - by) / so, x_so, by, half, st)
    first = np.fmin(np.fmax(np.ceil(pos[0]), 0), best).astype(np.intp)
    last = np.fmax(np.fmin(np.floor(pos[1]), n - 1), best).astype(np.intp)

    # Check each prediction by the smooth margin: first and last are LoS,
    # and their outer neighbours are not or lie outside the room.
    j = ws("rows", (4, cols.size), np.intp)  # the seed's pair is no longer read
    np.subtract(first, 1, out=j[0])
    j[1], j[2] = first, last
    np.add(last, 1, out=j[3])
    g = margin(np.clip(j, 0, n - 1, out=j), by, hw, base, x_so, ratio, band_rate, k)
    ok = ((first == 0) | (g[0] < 0)) & ((last == n - 1) | (g[3] < 0)) & (g[1] > 0) & (g[2] > 0)
    checked = np.bincount(p, np.where(ok, last - first + 1, 0), len(points))
    miss = ~ok

    # A column that fails the check is bisected with the predicate, which
    # is false, then true up to best, then false again.
    p, x = p[miss], np.take(xs, cols[miss])
    first, first_end = np.zeros_like(p), best[miss]
    last, last_end = best[miss], np.full_like(p, n - 1)
    while (first < first_end).any() or (last < last_end).any():
        mid_first = (first + first_end) // 2
        mid_last = (last + last_end + 1) // 2
        hit = at(p, x, np.stack([mid_first, mid_last]))
        first_end = np.where(hit[0], mid_first, first_end)
        first = np.where(hit[0], first, mid_first + 1)
        last = np.where(hit[1], mid_last, last)
        last_end = np.where(hit[1], last_end, mid_last - 1)
    count = checked + np.bincount(p, last - first + 1, len(points))

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
