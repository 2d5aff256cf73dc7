"""Knife-edge diffraction loss, Fresnel integrals, and free-space path loss.

The Fresnel integrals C(v) and S(v) are evaluated with a Maclaurin series
for small arguments and, for large ones, a modified-Lentz continued fraction
that yields 0.5 - C and 0.5 - S, from which the deep-shadow loss is formed.
"""

from __future__ import annotations

import math
from itertools import islice

SPEED_OF_LIGHT = 299792458.0  # m/s

# Series/continued-fraction switch point.
_SERIES_CUTOFF = 1.5
_EPS = 1e-15
_MAX_ITER = 400
# The continued fraction's numerators -n(n + 1), n = 1, 3, ..., as floats: a * d and a / cc
# see an int or a float alike as complex(a, 0.0).
_PARTIAL_NUMERATORS = tuple(float(-n * (n + 1)) for n in range(1, 2 * _MAX_ITER, 2))


def wavelength(frequency: float) -> float:
    """Free-space wavelength in meters for a carrier frequency in Hz."""
    if not 0 < frequency < math.inf:
        raise ValueError("frequency must be positive and finite")
    lam = SPEED_OF_LIGHT / frequency
    if not math.isfinite(lam):
        raise ValueError(f"wavelength is not finite at frequency {frequency!r} Hz")
    return lam


def _fresnel_series(x: float) -> tuple[float, float]:
    # Maclaurin series of the defining integrals; at most 14 terms below
    # the cutoff.  The test is <= so that x = 0 and subnormal x, whose
    # terms are all zero, stop at the first term.
    t = 0.5 * math.pi * x * x
    mt2 = -t * t
    num_c = x
    num_s = x * t
    c = num_c
    s = num_s / 3.0
    for k in range(1, _MAX_ITER):
        num_c *= mt2 / ((2 * k - 1) * (2 * k))
        num_s *= mt2 / ((2 * k) * (2 * k + 1))
        dc = num_c / (4 * k + 1)
        ds = num_s / (4 * k + 3)
        c += dc
        s += ds
        if abs(dc) + abs(ds) <= _EPS * (abs(c) + abs(s)):
            break
    else:
        raise ValueError(f"Fresnel series did not converge at v={x!r}")
    return c, s


def _fresnel_continued_fraction(x: float) -> complex:
    # Modified Lentz evaluation of the continued fraction for the complex
    # error function of (1-j)*sqrt(pi)/2*x, which carries both integrals;
    # at most 47 iterations above the cutoff.  Returns (0.5 - C) + j(0.5 - S).
    pix2 = math.pi * x * x
    if math.isinf(pix2):
        # Beyond |x| ~ 7.6e153: the leading term j exp(j pix2 / 2) / (pi x), whose
        # magnitude is exact there and whose phase 0.5 - C and 0.5 - S cannot resolve.
        return complex(0.0, (1.0 / math.pi) / x)
    b = complex(1.0, -pix2)
    cc = complex(1e300, 0.0)
    d = 1.0 / b
    h = d
    for a in islice(_PARTIAL_NUMERATORS, _MAX_ITER):
        b += 4.0
        d = 1.0 / (a * d + b)
        cc = b + a / cc
        delta = cc * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < _EPS:
            break
    else:
        raise ValueError(f"Fresnel continued fraction did not converge at v={x!r}")
    h *= complex(x, -x)
    phase = complex(math.cos(0.5 * pix2), math.sin(0.5 * pix2))
    return complex(0.5, 0.5) * phase * h


def fresnel_integrals(v: float) -> tuple[float, float]:
    """Fresnel cosine and sine integrals C(v), S(v).

    Odd in v.  The continued fraction converges faster as |v| grows, so it
    serves every argument above the series cutoff.
    """
    if not math.isfinite(v):
        raise ValueError("invalid diffraction parameter")
    a = abs(v)
    if a <= _SERIES_CUTOFF:
        c, s = _fresnel_series(a)
    else:
        g = _fresnel_continued_fraction(a)
        c, s = 0.5 - g.real, 0.5 - g.imag
    if v < 0.0:
        return -c, -s
    return c, s


def diffraction_parameter(delta: float, d1: float, d2: float, wavelength: float) -> float:
    """Dimensionless knife-edge parameter for edge clearance delta.

    delta is the signed clearance of the edge from the direct path,
    positive when the edge does not obstruct it.
    """
    if not (d1 > 0 and d2 > 0 and wavelength > 0):
        raise ValueError("invalid geometry")
    if not (2.0**-300 < d1 < 2.0**300 and 2.0**-300 < d2 < 2.0**300 and 2.0**-300 < wavelength < 2.0**300):
        a = (math.frexp(d1)[1] + math.frexp(d2)[1]) // 2  # the units of fresnel_radius; delta's are r_d's, 2^s
        s = (a + math.frexp(wavelength)[1]) // 2
        d1, d2, delta = math.ldexp(d1, -a), math.ldexp(d2, -a), math.ldexp(delta, -s)
        wavelength = math.ldexp(wavelength, a - 2 * s)
    return delta * math.sqrt(2.0 / wavelength * (1.0 / d1 + 1.0 / d2))


def ked_excess_loss_db(v: float) -> float:
    """Knife-edge diffraction loss in dB relative to free space.

    Takes the clearance-positive parameter of diffraction_parameter; the
    classical knife-edge field ratio grows lossier as the edge moves into
    the path, so it is evaluated at the negated argument.  6.02 dB at
    grazing incidence, 0 dB at full clearance.
    """
    if _SERIES_CUTOFF < -v < math.inf:  # fresnel_integrals rejects a non-finite v
        # In the shadow 1 - C - S cancels; |F| = |(0.5 - C) + j(0.5 - S)| / sqrt(2).
        magnitude = abs(_fresnel_continued_fraction(-v)) / math.sqrt(2.0)
    else:
        c, s = fresnel_integrals(-v)
        magnitude = math.hypot(1.0 - c - s, c - s) / 2.0
    return -20.0 * math.log10(magnitude)


def free_space_path_loss_db(d: float, wavelength: float) -> float:
    """Free-space path loss 20*log10(4*pi*d/lambda) in dB."""
    if not (d > 0 and wavelength > 0):
        raise ValueError("d and wavelength must be positive")
    return 20.0 * math.log10(4.0 * math.pi * d / wavelength)


def fresnel_radius(d1: float, d2: float, wavelength: float) -> float:
    """First Fresnel zone radius at the plane splitting the path into d1, d2."""
    # Float-range rule: inputs in (2^-300, 2^300) (any product of three is normal) take the direct formula.
    if 2.0**-300 < d1 < 2.0**300 and 2.0**-300 < d2 < 2.0**300 and 2.0**-300 < wavelength < 2.0**300:
        return math.sqrt(wavelength * (d1 * d2) / (d1 + d2))
    if not (0 < d1 < math.inf and 0 < d2 < math.inf and 0 < wavelength < math.inf):
        raise ValueError("d1, d2 and wavelength must be positive and finite")
    a = (math.frexp(d1)[1] + math.frexp(d2)[1]) // 2  # others in exact units: d1, d2 of 2^a, sqrt(d1 d2)'s binade,
    s = (a + math.frexp(wavelength)[1]) // 2  # the wavelength of 2^(2s - a), near its own, so r_d is of 2^s
    d1, d2, wavelength = math.ldexp(d1, -a), math.ldexp(d2, -a), math.ldexp(wavelength, a - 2 * s)
    return math.ldexp(math.sqrt(wavelength * (d1 * d2) / (d1 + d2)), s)


def total_path_loss_db(d1: float, d2: float, delta: float, wavelength: float) -> float:
    """Free-space loss over d1 + d2 plus the knife-edge excess loss."""
    v = diffraction_parameter(delta, d1, d2, wavelength)
    return free_space_path_loss_db(d1 + d2, wavelength) + ked_excess_loss_db(v)
