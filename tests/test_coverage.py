import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from o2i_los.coverage import (
    CoverageResult,
    FadingModel,
    LinkBudget,
    coverage_mc_oracle,
    coverage_probability,
    mean_snr,
    nakagami_ccdf,
    p_los_at_distance,
    reg_lower_gamma,
    reg_upper_gamma,
)
from o2i_los.diffraction import SPEED_OF_LIGHT

from oracles import reg_lower_gamma_mp, reg_upper_gamma_mp, segment_los_fraction

F_28 = 28e9


def budget(frequency=F_28, threshold=5.0):
    return LinkBudget(frequency=frequency, snr_threshold_db=threshold)


def snr_db(value):
    return 10.0 * math.log10(value)


class TestConfigTypes:
    def test_defaults(self):
        fading = FadingModel()
        assert (fading.m_los, fading.m_nlos) == (10.0, 1.0)
        assert (fading.n_los, fading.n_nlos) == (1.2, 2.9)
        link = LinkBudget(frequency=F_28)
        assert (link.tx_power_dbm, link.noise_floor_dbm) == (30.0, -100.0)
        assert link.snr_threshold_db == -5.0

    def test_invalid_shape(self):
        for kwargs in [dict(m_nlos=0.2), dict(m_los=math.nan), dict(m_nlos=math.inf)]:
            with pytest.raises(ValueError):
                FadingModel(**kwargs)

    def test_invalid_exponent(self):
        for kwargs in [dict(n_nlos=7.0), dict(n_los=math.nan)]:
            with pytest.raises(ValueError):
                FadingModel(**kwargs)

    def test_noise_above_tx_rejected(self):
        with pytest.raises(ValueError):
            LinkBudget(frequency=F_28, tx_power_dbm=-10.0, noise_floor_dbm=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(frequency=math.inf), dict(frequency=math.nan), dict(tx_power_dbm=math.inf),
        dict(tx_power_dbm=math.nan), dict(noise_floor_dbm=-math.inf),
        dict(noise_floor_dbm=math.nan), dict(snr_threshold_db=math.nan),
        dict(snr_threshold_db=math.inf), dict(snr_threshold_db=-math.inf),
    ])
    def test_nonfinite_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkBudget(**{"frequency": F_28, **kwargs})


class TestMeanSnr:
    def test_unit_gain_geometry(self):
        # lambda = 4*pi and d = 1 make the geometry factor exactly one
        b = LinkBudget(frequency=SPEED_OF_LIGHT / (4 * math.pi))
        assert snr_db(mean_snr(1.0, 2.0, b)) == pytest.approx(130.0, abs=1e-9)

    def test_los_exponent_at_25m(self):
        got = snr_db(mean_snr(25.0, 1.2, budget()))
        lam = SPEED_OF_LIGHT / F_28
        reference = 130.0 - (20 * math.log10(4 * math.pi / lam) + 12 * math.log10(25.0))
        assert got == pytest.approx(reference, abs=1e-9)
        assert got == pytest.approx(51.84, abs=0.01)

    def test_inverse_square_doubling(self):
        b = budget()
        drop = snr_db(mean_snr(10.0, 2.0, b)) - snr_db(mean_snr(20.0, 2.0, b))
        assert drop == pytest.approx(6.0206, abs=1e-3)

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            mean_snr(0.0, 2.0, budget())


class TestPLosAtDistance:
    def test_aperture_consumed(self):
        # window barely above the clearance requirement, then below it
        lam = SPEED_OF_LIGHT / F_28
        rd = math.sqrt(lam * 5 * 20 / 25)
        assert p_los_at_distance(5, 20, 1.2 * rd + 1e-9, F_28) > 0.0
        assert p_los_at_distance(5, 20, 1.2 * rd, F_28) == 0.0

    @pytest.mark.parametrize(
        "d_a,d_n,l_w,frequency",
        [(5, 20, 2, F_28), (2, 30, 1, 60e9), (40, 10, 3, 6e9), (5, 20, 2, 1e9)],
    )
    def test_matches_segment_oracle(self, d_a, d_n, l_w, frequency):
        got = p_los_at_distance(d_a, d_n, l_w, frequency)
        ref = segment_los_fraction(d_a, d_n, l_w, frequency, width=d_n)
        assert got == pytest.approx(ref, abs=0.02)

    def test_optical_limit_equal_distances(self):
        # at vanishing wavelength the span is twice the window, so the
        # fraction over a segment of width d_n = d_a is 2*L_w/d_a
        got = p_los_at_distance(10.0, 10.0, 2.0, 1e16)
        assert got == pytest.approx(0.4, abs=1e-4)

    def test_clamped(self):
        assert p_los_at_distance(2.0, 20.0, 5.0, F_28) == 1.0


class TestRegularizedGamma:
    def test_against_mpmath_grid(self):
        for m in [0.5, 1.0, 2.5, 10.0, 20.0]:
            for x in [0.0, 0.05, 0.5, 1.0, 3.0, 9.9, 30.0, 100.0]:
                assert reg_lower_gamma(m, x) == pytest.approx(
                    reg_lower_gamma_mp(m, x), abs=1e-12
                )
                assert reg_upper_gamma(m, x) == pytest.approx(
                    reg_upper_gamma_mp(m, x), abs=1e-12
                )

    def test_non_convergence_raises(self):
        # the series needs more than its 800 terms here; scipy gives 0.4996
        with pytest.raises(ValueError, match="did not converge"):
            reg_upper_gamma(1e5, 1e5)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(1.0, -1.0)

    @given(st.floats(0.5, 1e3), st.floats(0.0, 2e3))
    def test_complement_is_exact(self, m, x):
        # one of P and Q is computed, and the other is exactly 1 minus it
        if x < m + 1.0:
            assert reg_upper_gamma(m, x) == 1.0 - reg_lower_gamma(m, x)
        else:
            assert reg_lower_gamma(m, x) == 1.0 - reg_upper_gamma(m, x)

    @given(st.floats(0.5, 20.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_monotone_in_x(self, m, x1, x2):
        lo, hi = sorted((x1, x2))
        assert reg_lower_gamma(m, lo) <= reg_lower_gamma(m, hi) + 1e-14


class TestNakagamiCcdf:
    def test_rayleigh_special_case(self):
        for ratio in [1e-6, 0.03, 0.7, 1.0, 4.0, 30.0]:
            assert nakagami_ccdf(1.0, 1.0, ratio) == pytest.approx(
                math.exp(-ratio), abs=1e-12
            )

    def test_zero_threshold(self):
        assert nakagami_ccdf(10.0, 2.0, 0.0) == 1.0

    def test_m10_at_mean(self):
        # regularized upper gamma Q(10, 10)
        assert nakagami_ccdf(10.0, 3.0, 3.0) == pytest.approx(0.45792971, abs=1e-8)

    def test_monotonicity_grids(self):
        thresholds = np.linspace(0.0, 5.0, 41)
        values = [nakagami_ccdf(10.0, 1.0, float(t)) for t in thresholds]
        assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))
        means = np.linspace(0.1, 10.0, 41)
        values = [nakagami_ccdf(10.0, float(g), 1.0) for g in means]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            nakagami_ccdf(0.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            nakagami_ccdf(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            nakagami_ccdf(1.0, 1.0, -0.5)


class TestCoverageProbability:
    def test_sure_coverage(self):
        # clamp the LoS probability to one and put the threshold far below the mean
        result = coverage_probability(2.0, 20.0, 5.0, FadingModel(), budget(threshold=-30.0))
        assert result.p_los == 1.0
        assert result.p_cov == pytest.approx(1.0, abs=1e-6)

    def test_sure_outage(self):
        # negligible window and a threshold far above the NLoS mean
        result = coverage_probability(
            5.0, 20.0, 1e-6, FadingModel(), budget(threshold=60.0)
        )
        assert result.p_los == 0.0
        assert result.p_cov == pytest.approx(0.0, abs=1e-6)

    def test_mixture_identity(self):
        fading = FadingModel()
        b = budget()
        result = coverage_probability(5.0, 20.0, 2.0, fading, b)
        threshold = 10.0 ** (b.snr_threshold_db / 10.0)
        ccdf_los = nakagami_ccdf(fading.m_los, mean_snr(25.0, fading.n_los, b), threshold)
        ccdf_nlos = nakagami_ccdf(fading.m_nlos, mean_snr(25.0, fading.n_nlos, b), threshold)
        expected = ccdf_los * result.p_los + ccdf_nlos * (1.0 - result.p_los)
        assert result.p_cov == pytest.approx(expected, rel=1e-12)
        assert isinstance(result, CoverageResult)

    def test_window_and_distance_trends(self):
        fading = FadingModel()
        b = budget(threshold=5.0)
        das = np.arange(2.0, 101.0, 7.0)
        for l_w_lo, l_w_hi in [(1.0, 2.0), (2.0, 3.0)]:
            for d_a in das:
                assert (
                    coverage_probability(d_a, 20.0, l_w_hi, fading, b).p_cov
                    >= coverage_probability(d_a, 20.0, l_w_lo, fading, b).p_cov
                )
        curve = [coverage_probability(float(d), 20.0, 2.0, fading, b).p_cov for d in das]
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(curve, curve[1:]))

    @given(st.floats(20.0, 40.0), st.floats(20.0, 40.0))
    @settings(max_examples=25)
    def test_monotone_in_tx_power(self, p1, p2):
        lo, hi = sorted((p1, p2))
        fading = FadingModel()
        low = coverage_probability(
            30.0, 20.0, 2.0, fading, LinkBudget(F_28, tx_power_dbm=lo, snr_threshold_db=5.0)
        ).p_cov
        high = coverage_probability(
            30.0, 20.0, 2.0, fading, LinkBudget(F_28, tx_power_dbm=hi, snr_threshold_db=5.0)
        ).p_cov
        assert high >= low - 1e-12

    @given(st.floats(2.0, 80.0), st.floats(0.5, 5.0), st.floats(-20.0, 20.0))
    @settings(max_examples=50)
    def test_in_unit_interval(self, d_a, l_w, threshold_db):
        result = coverage_probability(d_a, 20.0, l_w, FadingModel(), budget(threshold=threshold_db))
        assert 0.0 <= result.p_cov <= 1.0


class TestCoverageMcOracle:
    def test_reproducible(self):
        args = (5.0, 20.0, 2.0, FadingModel(), budget(), 50_000, 99)
        assert coverage_mc_oracle(*args) == coverage_mc_oracle(*args)

    def test_chunk_boundaries(self):
        # one chunk, exactly two chunks, and a ragged tail
        for trials in [10_000, 1 << 17, (1 << 16) + 1]:
            value = coverage_mc_oracle(5.0, 20.0, 2.0, FadingModel(), budget(), trials, 7)
            assert 0.0 <= value <= 1.0

    def test_state_blind_when_fading_identical(self):
        # m = 1 on both branches with equal exponents: the LoS draw is irrelevant
        fading = FadingModel(m_los=1.0, m_nlos=1.0, n_los=2.0, n_nlos=2.0)
        b = budget(threshold=0.0)
        got = coverage_mc_oracle(5.0, 20.0, 2.0, fading, b, 200_000, 3)
        mean = mean_snr(25.0, 2.0, b)
        assert got == pytest.approx(math.exp(-1.0 / mean), abs=0.005)

    def test_matches_analytic_within_3_sigma(self):
        fading = FadingModel()
        b = budget(threshold=5.0)
        trials = 100_000
        for d_a, l_w in [(2.0, 1.0), (20.0, 2.0), (50.0, 5.0), (80.0, 2.0)]:
            analytic = coverage_probability(d_a, 20.0, l_w, fading, b).p_cov
            estimate = coverage_mc_oracle(d_a, 20.0, l_w, fading, b, trials, 12345)
            sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / trials)
            assert abs(estimate - analytic) <= max(3 * sigma, 1e-4)

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            coverage_mc_oracle(5.0, 20.0, 2.0, FadingModel(), budget(), 100, 0)

    @pytest.mark.parametrize("trials, seed", [(1e5, 0), ("100000", 0), (100_000, None),
                                              (100_000, 1.5), (100_000, -1)])
    def test_trials_and_seed_must_be_integers(self, trials, seed):
        with pytest.raises(ValueError):
            coverage_mc_oracle(5.0, 20.0, 2.0, FadingModel(), budget(), trials, seed)

    @pytest.mark.parametrize("d_a, window, frequency, p_los", [
        (2.0, 3.0, F_28, 1.0),  # wide window at a short standoff
        (5.0, 1.0, 1e9, 0.0),   # window below the critical aperture
    ])
    def test_single_state_matches_mpmath_ccdf(self, d_a, window, frequency, p_los):
        # Every trial is in one state, so the other state's gamma draws are empty.
        assert p_los_at_distance(d_a, 20.0, window, frequency) == p_los
        fading = FadingModel()
        m, exponent = (fading.m_los, fading.n_los) if p_los else (fading.m_nlos, fading.n_nlos)
        mean = mean_snr(d_a + 20.0, exponent, budget(frequency))
        b = budget(frequency, threshold=snr_db(mean) - 0.5)
        expected = reg_upper_gamma_mp(m, m * 10.0 ** (b.snr_threshold_db / 10.0) / mean)
        trials = 100_000
        estimate = coverage_mc_oracle(d_a, 20.0, window, fading, b, trials, 2024)
        assert abs(estimate - expected) <= 4 * math.sqrt(expected * (1 - expected) / trials)

    def test_gamma_gain_unit_mean(self):
        rng = np.random.default_rng(0)
        for m in (1.0, 10.0):
            draws = rng.gamma(m, 1.0 / m, 200_000)
            assert draws.mean() == pytest.approx(1.0, abs=3.0 / math.sqrt(m * 200_000))
