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
    noise_dbm: float = -100.0
    snr_threshold_db: float = -5.0

    def __post_init__(self):
        wavelength(self.frequency)  # the frequency's own check
        if not -math.inf < self.noise_dbm < self.tx_power_dbm < math.inf:
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
    return gain * 10.0 ** ((budget.tx_power_dbm - budget.noise_dbm) / 10.0)


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
    if not (2.0**-300 < d_a < 2.0**300 and 2.0**-300 < d_n < 2.0**300):  # the rule of diffraction.fresnel_radius
        a = (math.frexp(d_a)[1] + math.frexp(d_n)[1]) // 2  # lengths in units of 2^a, the binade of sqrt(d_a d_n)
        d_a, d_n, aperture = math.ldexp(d_a, -a), math.ldexp(d_n, -a), math.ldexp(aperture, -a)
    return min((d_a + d_n) * aperture / (d_a * d_n), 1.0)


def _gamma_p_series(m: float, x: float) -> float:
    ap = m
    term = 1.0 / m
    total = term
    for _ in range(800):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * 1e-17:  # both positive
            break
    else:
        raise ValueError(f"incomplete gamma series did not converge at m={m!r}, x={x!r}")
    return total


def _gamma_q_continued_fraction(m: float, x: float) -> float:
    b = x + 1.0 - m
    c = math.inf
    d = 1.0 / b
    h = d
    for i in range(1, 800):
        an = -i * (i - m)
        b += 2.0
        # No zero guards: for x >= m + 1, c and 1 / d stay at least i + 1 + x - m at step i,
        # since an >= 0 for i <= m, and an / c and an * d are at least -(i - m) for i > m.
        d = 1.0 / (an * d + b)
        c = b + an / c
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

    Power series for P when x < m + 1 or x <= m (m + 1.0 rounds to m past 2^53),
    continued fraction for Q beyond; the other one is 1 minus it.
    """
    if not m > 0 or x < 0:
        raise ValueError("require m > 0 and x >= 0")
    if x == 0.0:
        return 0.0, 1.0
    series, exponent = x <= m or x < m + 1.0, -x + m * math.log(x) - math.lgamma(m)
    # Where exp(exponent) underflows the part is 0, and the sum need not converge there.
    kernel = _gamma_p_series if series else _gamma_q_continued_fraction
    part = kernel(m, x) * math.exp(exponent) if exponent > -745.0 else 0.0
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
    has the distribution of per-trial state draws.  Chunks of a fixed size,
    which bound memory, draw in order from one generator, default_rng(seed),
    so the estimate depends only on the seed and trial count.
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

    rng = np.random.default_rng(seed)
    size = min(_MC_CHUNK, trials)
    gain, above = np.empty(size), np.empty(size, bool)  # reused by every chunk: fresh arrays raised peak RSS
    covered = 0
    for start in range(0, trials, _MC_CHUNK):
        n = min(_MC_CHUNK, trials - start)
        n_los = int(rng.binomial(n, p_los))
        for m, snr, k in ((fading.m_los, snr_los, n_los), (fading.m_nlos, snr_nlos, n - n_los)):
            # rng.gamma(m, 1.0 / m, k) * snr bit for bit: numpy's gamma sampler returns
            # its exponential ziggurat draw at shape 1, which this draws in bulk.
            g = gain[:k]
            if m == 1.0:
                rng.standard_exponential(out=g)
            else:
                rng.standard_gamma(m, out=g)
                g *= 1.0 / m
            g *= snr
            covered += int(np.count_nonzero(np.greater(g, threshold, out=above[:k])))
    return covered / trials
