"""Mean SNR, distance-conditioned LoS probability, and Nakagami-m coverage.

The channel power gain is Gamma(m, 1/m) distributed (unit mean): m = 1 is
Rayleigh, large m approaches Ricean.  Coverage mixes the LoS and NLoS
complementary CDFs with the LoS probability of the receiver ring.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .diffraction import fresnel_radius, wavelength
from .los import LOS_CLEARANCE_RATIO

_MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class FadingModel:
    """Nakagami shapes and path-loss exponents for the two link states."""

    m_los: float = 10.0
    m_nlos: float = 1.0
    n_los: float = 1.2
    n_nlos: float = 2.9

    def __post_init__(self):
        if not (0.5 <= self.m_los < math.inf and 0.5 <= self.m_nlos < math.inf):
            raise ValueError("Nakagami shape must be finite and at least 0.5")
        for n in (self.n_los, self.n_nlos):
            if not 0.5 < n < 6.0:
                raise ValueError("path-loss exponent must lie in (0.5, 6)")


@dataclass(frozen=True)
class LinkBudget:
    frequency: float  # Hz
    tx_power_dbm: float = 30.0
    noise_floor_dbm: float = -100.0
    snr_threshold_db: float = -5.0

    def __post_init__(self):
        if not 0 < self.frequency < math.inf:
            raise ValueError("frequency must be positive and finite")
        if not -math.inf < self.noise_floor_dbm < self.tx_power_dbm < math.inf:
            raise ValueError("noise floor must be below transmit power, both finite")
        if not -math.inf < self.snr_threshold_db < math.inf:
            raise ValueError("SNR threshold must be finite")


@dataclass(frozen=True)
class CoverageResult:
    p_cov: float
    p_los: float


def mean_snr(d: float, exponent: float, budget: LinkBudget) -> float:
    """Mean received SNR (linear) at distance d with the given loss exponent."""
    if not d > 0:
        raise ValueError("distance must be positive")
    lam = wavelength(budget.frequency)
    gain = lam**2 / (16.0 * math.pi**2 * d**exponent)
    return gain * 10.0 ** ((budget.tx_power_dbm - budget.noise_floor_dbm) / 10.0)


def p_los_at_distance(d_a: float, d_n: float, window_width: float, frequency: float) -> float:
    """LoS fraction of receivers on a segment at depth d_n, zero aspect angle.

    The segment is d_n wide.  The LoS span on it is the window aperture left
    after the edge clearance, projected from standoff d_a out to depth d_n.
    """
    if not (d_a > 0 and d_n > 0 and window_width > 0):
        raise ValueError("d_a, d_n and window_width must be positive")
    rd = fresnel_radius(d_a, d_n, wavelength(frequency))
    aperture = window_width - 2.0 * LOS_CLEARANCE_RATIO * rd
    if aperture <= 0.0:
        return 0.0
    return min((d_a + d_n) * aperture / (d_a * d_n), 1.0)


def _gamma_p_series(m: float, x: float) -> float:
    ap = m
    term = 1.0 / m
    total = term
    for _ in range(800):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    else:
        raise ValueError(f"incomplete gamma series did not converge at m={m!r}, x={x!r}")
    return total


def _gamma_q_continued_fraction(m: float, x: float) -> float:
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


def _reg_gamma(m: float, x: float) -> tuple[float, float]:
    """Regularized incomplete gammas (P(m, x), Q(m, x)), P + Q = 1.

    Power series for P when x < m + 1, continued fraction for Q beyond;
    the other one is 1 minus it.
    """
    if not m > 0 or x < 0:
        raise ValueError("require m > 0 and x >= 0")
    if x == 0.0:
        return 0.0, 1.0
    series = x < m + 1.0
    total = _gamma_p_series(m, x) if series else _gamma_q_continued_fraction(m, x)
    exponent = -x + m * math.log(x) - math.lgamma(m)
    part = total * math.exp(exponent) if exponent > -745.0 else 0.0
    return (part, 1.0 - part) if series else (1.0 - part, part)


def reg_lower_gamma(m: float, x: float) -> float:
    """Regularized lower incomplete gamma P(m, x)."""
    return _reg_gamma(m, x)[0]


def reg_upper_gamma(m: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(m, x) = 1 - P(m, x)."""
    return _reg_gamma(m, x)[1]


def nakagami_ccdf(m: float, mean_snr: float, threshold: float) -> float:
    """P(instantaneous SNR > threshold) under Nakagami-m fading, linear units."""
    if m < 0.5:
        raise ValueError("Nakagami shape must be at least 0.5")
    if not mean_snr > 0:
        raise ValueError("mean SNR must be positive")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return reg_upper_gamma(m, m * threshold / mean_snr)


def coverage_probability(
    d_a: float,
    d_n: float,
    window_width: float,
    fading: FadingModel,
    budget: LinkBudget,
) -> CoverageResult:
    """Coverage probability for receivers at depth d_n behind the window.

    Mixes the LoS and NLoS fading CCDFs at the ring distance d_a + d_n with
    the LoS probability of that ring.
    """
    p_los = p_los_at_distance(d_a, d_n, window_width, budget.frequency)
    d = d_a + d_n
    snr_los = mean_snr(d, fading.n_los, budget)
    snr_nlos = mean_snr(d, fading.n_nlos, budget)
    threshold = 10.0 ** (budget.snr_threshold_db / 10.0)
    p_cov = nakagami_ccdf(fading.m_los, snr_los, threshold) * p_los + nakagami_ccdf(
        fading.m_nlos, snr_nlos, threshold
    ) * (1.0 - p_los)
    return CoverageResult(p_cov=p_cov, p_los=p_los)


def coverage_mc_oracle(
    d_a: float,
    d_n: float,
    window_width: float,
    fading: FadingModel,
    budget: LinkBudget,
    trials: int,
    seed: int,
) -> float:
    """Monte Carlo coverage estimate: LoS count, Gamma(m, 1/m) gains, threshold.

    Each chunk of trials draws its LoS count K ~ Binomial(n, p_los), then K
    LoS gains and n - K NLoS gains, and counts each group's SNRs above the
    threshold: given K the gains of a state are i.i.d., so the covered count
    has the distribution of per-trial state draws.  Chunks have a fixed size
    and their generators (PCG64) are spawned from SeedSequence(seed), so the
    estimate depends only on the seed and trial count, not on how chunks are
    scheduled.
    """
    import numpy as np

    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError("seed must be a non-negative integer")
    if not (isinstance(trials, numbers.Integral) and trials >= 10_000):
        raise ValueError("trials must be an integer of at least 10000")
    p_los = p_los_at_distance(d_a, d_n, window_width, budget.frequency)
    d = d_a + d_n
    snr_los = mean_snr(d, fading.n_los, budget)
    snr_nlos = mean_snr(d, fading.n_nlos, budget)
    threshold = 10.0 ** (budget.snr_threshold_db / 10.0)

    n_chunks = (trials + _MC_CHUNK - 1) // _MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    covered = 0
    for i, child in enumerate(children):
        n = min(_MC_CHUNK, trials - i * _MC_CHUNK)
        rng = np.random.default_rng(child)
        n_los = int(rng.binomial(n, p_los))
        gain_los = rng.gamma(fading.m_los, 1.0 / fading.m_los, n_los)
        gain_nlos = rng.gamma(fading.m_nlos, 1.0 / fading.m_nlos, n - n_los)
        covered += int(np.count_nonzero(gain_los * snr_los > threshold))
        covered += int(np.count_nonzero(gain_nlos * snr_nlos > threshold))
    return covered / trials
