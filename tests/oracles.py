"""Independent reference implementations used to check the package numerics.

Everything here deliberately avoids the package's own evaluation routes:
Fresnel integrals come from adaptive quadrature of the defining integrals
(or scipy.special where quadrature cannot reach, or mpmath at 60 digits in the
far shadow), the regularized incomplete gamma from mpmath at 30 digits, visibility areas
from polygon clipping, the ring LoS fraction and the grid LoS count
from brute-force evaluation of the per-point predicate, and the Monte Carlo
coverage count from numpy's plain gamma sampler.  gamma_q_cf_guarded and the
*_direct closed forms are the exceptions: the package's earlier continued
fraction and its closed forms as they were before the power-of-two rescale,
kept to pin the bits of the current ones where both apply.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import fresnel

mpmath.mp.dps = 30


def fresnel_by_quadrature(v: float) -> tuple[float, float]:
    """C(v), S(v) by adaptive quadrature of the defining integrals."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        c, _ = quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, v,
                    epsabs=1e-12, epsrel=1e-12, limit=800)
        s, _ = quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, v,
                    epsabs=1e-12, epsrel=1e-12, limit=800)
    return c, s


def fresnel_grid_by_quadrature(vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C, S on an increasing grid of nonnegative v, accumulated segment-wise."""
    cs = np.empty_like(vs)
    ss = np.empty_like(vs)
    c_acc = s_acc = 0.0
    prev = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for i, v in enumerate(vs):
            dc, _ = quad(lambda t: math.cos(0.5 * math.pi * t * t), prev, v,
                         epsabs=1e-13, epsrel=1e-13, limit=200)
            ds, _ = quad(lambda t: math.sin(0.5 * math.pi * t * t), prev, v,
                         epsabs=1e-13, epsrel=1e-13, limit=200)
            c_acc += dc
            s_acc += ds
            cs[i] = c_acc
            ss[i] = s_acc
            prev = v
    return cs, ss


def ked_loss_by_quadrature(clearance_v: float) -> float:
    """Knife-edge loss in dB for the clearance-positive parameter."""
    c, s = fresnel_by_quadrature(-clearance_v)
    magnitude = math.hypot(1.0 - c - s, c - s) / 2.0
    return -20.0 * math.log10(magnitude)


def ked_loss_by_scipy(clearance_v: float) -> float:
    """Knife-edge loss in dB for the clearance-positive parameter, scipy's C and S."""
    s, c = fresnel(-clearance_v)
    magnitude = math.hypot(1.0 - c - s, c - s) / 2.0
    return -20.0 * math.log10(magnitude)


def ked_loss_by_mpmath(clearance_v: float) -> float:
    """Knife-edge loss in dB for the clearance-positive parameter, from mpmath's C and S.

    At max(60, log10|v| + 40) digits, 1 - C - S stays accurate where C and
    S differ from 1/2 by less than double precision resolves; at a fixed 60
    digits mpmath returns C = S = 1/2 from |v| ~ 1e62.
    """
    digits = 60 if clearance_v == 0 else max(60, int(math.log10(abs(clearance_v))) + 40)
    with mpmath.workdps(digits):
        w = mpmath.mpf(-clearance_v)
        c, s = mpmath.fresnelc(w), mpmath.fresnels(w)
        return float(-20 * mpmath.log10(mpmath.hypot(1 - c - s, c - s) / 2))


def itu_j_db(nu: float) -> float:
    """ITU-R P.526 approximation J(nu) of the knife-edge loss, nu > -0.78."""
    return 6.9 + 20.0 * math.log10(math.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)


def reg_lower_gamma_mp(m: float, x: float) -> float:
    """Regularized lower incomplete gamma via mpmath."""
    if x == 0.0:
        return 0.0
    return float(mpmath.gammainc(m, 0, x, regularized=True))


def reg_upper_gamma_mp(m: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    return float(mpmath.gammainc(m, x, mpmath.inf, regularized=True))


def gamma_q_cf_guarded(m: float, x: float) -> float:
    """Continued fraction for Q(m, x) / (x^m e^-x / Gamma(m)), x >= m + 1.

    The modified Lentz loop with its zero guards on c and d (Thompson and
    Barnett, J. Comput. Phys. 64, 1986), as the package evaluated it before
    the guards, which cannot fire there, were dropped.
    """
    tiny = 1e-300
    b = x + 1.0 - m
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 800):
        an = -i * (i - m)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    else:
        raise ValueError(
            f"incomplete gamma continued fraction did not converge at m={m!r}, x={x!r}"
        )
    return h


# The closed forms in meters, each formula as the package evaluated it before it took
# inputs outside (2^-300, 2^300) in units of a power of two.

def fresnel_radius_direct(d1: float, d2: float, wavelength: float) -> float:
    """First Fresnel zone radius sqrt(lambda d1 d2 / (d1 + d2))."""
    return math.sqrt(wavelength * (d1 * d2) / (d1 + d2))


def diffraction_parameter_direct(delta: float, d1: float, d2: float, wavelength: float) -> float:
    """Knife-edge parameter delta sqrt(2 / lambda (1 / d1 + 1 / d2))."""
    return delta * math.sqrt(2.0 / wavelength * (1.0 / d1 + 1.0 / d2))


def p_los_closed_direct(room: float, window: float, standoff: float, theta: float,
                        wavelength: float) -> float:
    """The wedge share phi d2 (d2 + 2 d1) / L^2, clamped to [0, 1]."""
    cos_t = math.cos(theta)
    d1 = standoff / cos_t
    if abs(theta) < math.atan(0.5):
        d2 = room / cos_t
    else:
        d2 = room / (2.0 * abs(math.sin(theta)))
    rd = fresnel_radius_direct(d1, d2, wavelength)
    phi = (window * cos_t * cos_t - 2.0 * 0.6 * rd * cos_t) / (2.0 * standoff)
    if phi <= 0.0:
        return 0.0
    return min(phi * d2 * (d2 + 2.0 * d1) / (room * room), 1.0)


def critical_frequency_direct(room: float, window: float, standoff: float) -> float:
    """c over the critical wavelength w^2 (1 / d + 1 / L), w = window / 1.2."""
    w = window / (2.0 * 0.6)
    return 299792458.0 / (w * w * (1.0 / standoff + 1.0 / room))


def p_los_at_distance_direct(d_a: float, d_n: float, window: float, wavelength: float) -> float:
    """The ring's LoS share (d_a + d_n) aperture / (d_a d_n), clamped to [0, 1]."""
    aperture = window - 2.0 * 0.6 * fresnel_radius_direct(d_a, d_n, wavelength)
    if aperture <= 0.0:
        return 0.0
    return min((d_a + d_n) * aperture / (d_a * d_n), 1.0)


def mc_reference(p_los: float, m_los: float, snr_los: float, m_nlos: float,
                 snr_nlos: float, threshold: float, trials: int, seed: int) -> float:
    """Monte Carlo coverage estimate drawn in chunks of 2^16 trials from default_rng(seed).

    Each chunk draws its LoS count from Binomial(n, p_los), then that many
    Gamma(m_los, 1/m_los) gains and the rest as Gamma(m_nlos, 1/m_nlos) gains
    with rng.gamma, and counts each group's gain * snr above the threshold.
    """
    rng = np.random.default_rng(seed)
    covered = 0
    for start in range(0, trials, 1 << 16):
        n = min(1 << 16, trials - start)
        n_los = int(rng.binomial(n, p_los))
        gain_los = rng.gamma(m_los, 1.0 / m_los, n_los)
        gain_nlos = rng.gamma(m_nlos, 1.0 / m_nlos, n - n_los)
        covered += int(np.count_nonzero(gain_los * snr_los > threshold))
        covered += int(np.count_nonzero(gain_nlos * snr_nlos > threshold))
    return covered / trials


def _clip_halfplane(polygon, a, b, c):
    """Keep the part of the polygon with a*x + b*y + c >= 0 (Sutherland-Hodgman)."""
    out = []
    n = len(polygon)
    for i in range(n):
        px, py = polygon[i]
        qx, qy = polygon[(i + 1) % n]
        p_in = a * px + b * py + c >= 0.0
        q_in = a * qx + b * qy + c >= 0.0
        if p_in:
            out.append((px, py))
        if p_in != q_in:
            t = (a * px + b * py + c) / ((a * px + b * py + c) - (a * qx + b * qy + c))
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _shoelace(polygon) -> float:
    area = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def visible_area_fraction(room_side: float, window_width: float,
                          bs_x: float, bs_y: float) -> float:
    """Fraction of the room geometrically visible through the open window.

    Clips the room square against the wedge spanned by the rays from the
    base station through the two window edges.
    """
    half_room = room_side / 2.0
    half_window = window_width / 2.0
    room = [(0.0, -half_room), (room_side, -half_room),
            (room_side, half_room), (0.0, half_room)]
    # Inside the wedge: right of the ray to the upper edge, left of the ray
    # to the lower edge.  cross((e - bs), (p - bs)) with the matching sign.
    for ey, sign in ((half_window, -1.0), (-half_window, 1.0)):
        ex = 0.0
        dx, dy = ex - bs_x, ey - bs_y
        # sign * ((dx)(py - bs_y) - (dy)(px - bs_x)) >= 0
        a = sign * (-dy)
        b = sign * dx
        c = sign * (dy * bs_x - dx * bs_y)
        room = _clip_halfplane(room, a, b, c)
        if not room:
            return 0.0
    return _shoelace(room) / room_side**2


def edge_clearance(bs_x: float, bs_y: float, ms_x: float, ms_y: float,
                   edge_y: float) -> float:
    """Signed clearance of the window edge (0, edge_y) from the bs-ms line.

    The magnitude is the cross-product perpendicular distance from the edge
    to the line.  It is negative when the line crosses the wall plane x = 0
    beyond the edge, away from the window centre, where the wall blocks it.
    """
    dx, dy = ms_x - bs_x, ms_y - bs_y
    perp = abs(dx * (edge_y - bs_y) - dy * (0.0 - bs_x)) / math.hypot(dx, dy)
    y_cross = bs_y + dy * (0.0 - bs_x) / dx
    blocked = math.copysign(1.0, edge_y) * (y_cross - edge_y) > 0.0
    return -perp if blocked else perp


def segment_los_fraction(d_a: float, d_n: float, window_width: float,
                         frequency: float, width: float, samples: int = 200001) -> float:
    """LoS fraction over receivers on a segment at depth d_n, zero aspect angle.

    Brute-force evaluation of the per-point clearance predicate from the raw
    formulas: crossing inside the open window and both edge clearances at
    least 0.6 of the local first Fresnel radius.
    """
    lam = 299792458.0 / frequency
    ys = -width / 2.0 + (np.arange(samples) + 0.5) * (width / samples)
    bx = -d_a
    y_cross = ys * d_a / (d_a + d_n)
    half_window = window_width / 2.0
    d1 = np.hypot(-bx, y_cross)
    d2 = np.hypot(d_n, ys - y_cross)
    rd = np.sqrt(lam * d1 * d2 / (d1 + d2))
    cos_norm = (d_n - bx) / np.hypot(d_n - bx, ys)
    clear_up = (half_window - y_cross) * cos_norm
    clear_lo = (y_cross + half_window) * cos_norm
    ok = (np.abs(y_cross) < half_window) & (clear_up >= 0.6 * rd) & (clear_lo >= 0.6 * rd)
    return float(np.count_nonzero(ok)) / samples


def dense_los_count(room_side: float, window_width: float, bs_distance: float,
                    bs_angle: float, frequency: float, n: int, block: int = 128) -> int:
    """LoS receiver count over the n x n cell-centre grid, every cell evaluated.

    The per-point clearance predicate in the same floating-point form as the
    package's grid oracle, applied to each cell in row blocks, so an exact
    count comparison tests the oracle's per-column search and nothing else.
    """
    lam = 299792458.0 / frequency
    step = room_side / n
    xs = (np.arange(n) + 0.5) * step
    ys = -room_side / 2.0 + (np.arange(n) + 0.5) * step
    bx = -bs_distance
    by = -bs_distance * math.tan(bs_angle)
    half_window = window_width / 2.0
    count = 0
    for i in range(0, n, block):
        x = xs[i:i + block, None]
        y = ys[None, :]
        so = 0.0 - bx
        t = so / (x + so)
        y_cross = y * t + by * (x / (x + so))
        d2 = np.hypot(x, y - y_cross)
        rd = np.sqrt(lam * d2 * t)
        cos_norm = x / d2
        clear_upper = (half_window - y_cross) * cos_norm
        clear_lower = (y_cross + half_window) * cos_norm
        threshold = 0.6 * rd
        ok = (np.abs(y_cross) < half_window) & (clear_upper >= threshold) & (clear_lower >= threshold)
        count += int(np.count_nonzero(ok))
    return count
