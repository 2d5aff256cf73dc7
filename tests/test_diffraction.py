import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from o2i_los import diffraction
from o2i_los.diffraction import (
    SPEED_OF_LIGHT,
    diffraction_parameter,
    free_space_path_loss_db,
    fresnel_integrals,
    fresnel_radius,
    ked_excess_loss_db,
    total_path_loss_db,
    wavelength,
)

from scipy.special import fresnel

from oracles import (
    diffraction_parameter_direct,
    fresnel_by_quadrature,
    fresnel_grid_by_quadrature,
    fresnel_radius_direct,
    itu_j_db,
    ked_loss_by_mpmath,
    ked_loss_by_quadrature,
    ked_loss_by_scipy,
)

# log10 of d1, d2 and the wavelength in the plain float range
plain_paths = st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0), st.floats(-4.0, 1.0))

LAMBDA_28GHZ = SPEED_OF_LIGHT / 28e9


class TestFresnelIntegrals:
    def test_zero(self):
        assert fresnel_integrals(0.0) == (0.0, 0.0)

    def test_zero_and_subnormal_stop_at_first_term(self, monkeypatch):
        monkeypatch.setattr(diffraction, "_MAX_ITER", 2)
        assert fresnel_integrals(0.0) == (0.0, 0.0)
        assert fresnel_integrals(1e-310) == (1e-310, 0.0)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(diffraction, "_MAX_ITER", 5)
        with pytest.raises(ValueError, match="continued fraction did not converge"):
            fresnel_integrals(2.0)
        with pytest.raises(ValueError, match="series did not converge"):
            fresnel_integrals(1.0)

    @pytest.mark.parametrize("v", [50.1, 100.0, 1e3, 1e4, -50.1, -100.0, -1e3, -1e4])
    def test_large_argument_matches_scipy(self, v):
        s_ref, c_ref = fresnel(v)
        c, s = fresnel_integrals(v)
        assert c == pytest.approx(c_ref, abs=1e-12)
        assert s == pytest.approx(s_ref, abs=1e-12)

    def test_unit_argument(self):
        c, s = fresnel_integrals(1.0)
        assert c == pytest.approx(0.779893, abs=1e-6)
        assert s == pytest.approx(0.438259, abs=1e-6)

    def test_matches_quadrature_both_branches(self):
        # hits the series branch, the continued fraction, and the seam
        for v in [0.05, 0.5, 1.0, 1.4999, 1.5, 1.5001, 2.3, 5.0, 9.7]:
            c_ref, s_ref = fresnel_by_quadrature(v)
            c, s = fresnel_integrals(v)
            assert c == pytest.approx(c_ref, abs=1e-9)
            assert s == pytest.approx(s_ref, abs=1e-9)

    def test_matches_quadrature_on_grid(self):
        vs = np.arange(0.13, 10.0, 0.13)
        c_ref, s_ref = fresnel_grid_by_quadrature(vs)
        for v, cr, sr in zip(vs, c_ref, s_ref):
            c, s = fresnel_integrals(float(v))
            assert abs(c - cr) < 1e-6
            assert abs(s - sr) < 1e-6

    @given(st.floats(-49.0, 49.0))
    def test_odd_symmetry_exact(self, v):
        c, s = fresnel_integrals(v)
        mc, ms = fresnel_integrals(-v)
        assert mc == -c and ms == -s

    def test_bounded(self):
        for v in np.arange(-12.0, 12.0, 0.37):
            c, s = fresnel_integrals(float(v))
            assert abs(c) <= 0.9 and abs(s) <= 0.9

    def test_nonfinite_rejected(self):
        for v in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="invalid diffraction parameter"):
                fresnel_integrals(v)
            with pytest.raises(ValueError, match="invalid diffraction parameter"):
                ked_excess_loss_db(v)

    def test_pi_x_squared_overflow_gives_the_limit(self):
        # pi v^2 overflows above |v| ~ 7.6e153; the integrals' limit is +-1/2
        assert fresnel_integrals(1e160) == (0.5, 0.5)
        assert fresnel_integrals(-1e160) == (-0.5, -0.5)
        assert abs(ked_excess_loss_db(1e160)) <= 1e-12


class TestDiffractionParameter:
    def test_zero_clearance(self):
        assert diffraction_parameter(0.0, 8.0, 20.0, 0.1) == 0.0

    def test_one_fresnel_radius_gives_sqrt2(self):
        for d1, d2, lam in [(8.0, 20.0, LAMBDA_28GHZ), (5.0, 20.0, 0.3), (1.0, 1.0, 0.01)]:
            rd = fresnel_radius(d1, d2, lam)
            assert diffraction_parameter(rd, d1, d2, lam) == pytest.approx(
                math.sqrt(2), rel=1e-12
            )

    def test_los_threshold_parameter(self):
        rd = fresnel_radius(8.0, 20.0, LAMBDA_28GHZ)
        v = diffraction_parameter(0.6 * rd, 8.0, 20.0, LAMBDA_28GHZ)
        assert v == pytest.approx(0.84853, abs=1e-5)

    @given(plain_paths, st.floats(-3.0, 3.0))
    def test_plain_range_keeps_direct_bits(self, logs, delta_over_rd):
        # inside (2^-300, 2^300) the route is the direct formula, with no rescale
        d1, d2, lam = (10.0**x for x in logs)
        delta = delta_over_rd * fresnel_radius(d1, d2, lam)
        assert diffraction_parameter(delta, d1, d2, lam) == diffraction_parameter_direct(delta, d1, d2, lam)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError, match="invalid geometry"):
            diffraction_parameter(1.0, -8.0, 20.0, 0.1)


class TestKedExcessLoss:
    def test_grazing_incidence(self):
        assert ked_excess_loss_db(0.0) == pytest.approx(6.0206, abs=1e-3)

    def test_full_clearance(self):
        # within the clearance ripple of 0 dB, 20*log10(1 + 1/(pi*v)) at most
        got = ked_excess_loss_db(60.0)
        assert got == pytest.approx(ked_loss_by_scipy(60.0), abs=1e-9)
        assert abs(got) <= 20 * math.log10(1 + 1 / (math.pi * 60.0))

    def test_deep_shadow_one_radius(self):
        # clearance of minus one Fresnel radius, i.e. obstruction argument sqrt(2)
        got = ked_excess_loss_db(-math.sqrt(2))
        assert got == pytest.approx(16.3247, abs=1e-3)
        assert got == pytest.approx(ked_loss_by_quadrature(-math.sqrt(2)), abs=1e-9)

    def test_matches_quadrature(self):
        for v in [-3.0, -1.0, -0.3, 0.2, 0.849, 2.0, 4.0]:
            assert ked_excess_loss_db(v) == pytest.approx(
                ked_loss_by_quadrature(v), abs=1e-9
            )

    @pytest.mark.parametrize("v", [50.1, 100.0, 1e3, 1e4])
    def test_deep_shadow_finite_and_matches_references(self, v):
        got = ked_excess_loss_db(-v)
        assert math.isfinite(got)
        assert got == pytest.approx(ked_loss_by_scipy(-v), abs=1e-9)
        assert got == pytest.approx(itu_j_db(v), abs=0.1)

    @pytest.mark.parametrize("v", [1e6, 1e10, 1e14, 1e16, 1e154, 1e200])
    def test_far_shadow_matches_mpmath(self, v):
        # 1 - C - S cancels here; the loss must come from 0.5 - C and 0.5 - S.
        # From |v| ~ 7.6e153 pi v^2 overflows and the leading term serves.
        assert ked_excess_loss_db(-v) == pytest.approx(ked_loss_by_mpmath(-v), rel=1e-12)

    @pytest.mark.parametrize("v", [1e300, 1.7976931348623157e308])
    def test_far_shadow_leading_term(self, v):
        # 20 log10(pi sqrt(2) |v|): beyond the reach of mpmath's Fresnel integrals,
        # and finite up to the largest float
        with mpmath.workdps(30):
            leading = float(20 * mpmath.log10(mpmath.pi * mpmath.sqrt(2) * mpmath.mpf(v)))
        assert ked_excess_loss_db(-v) == pytest.approx(leading, rel=1e-12)

    def test_monotone_into_shadow(self):
        vs = np.arange(0.0, 10.0, 0.05)
        losses = [ked_excess_loss_db(float(-v)) for v in vs]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_clearance_ripple_within_band(self):
        # one full Fresnel zone of clearance keeps the field within 1.5 dB
        for ratio in np.arange(1.0, 3.0, 0.01):
            assert abs(ked_excess_loss_db(ratio * math.sqrt(2))) <= 1.5


class TestFreeSpacePathLoss:
    def test_unit_log_argument(self):
        lam = 0.125
        assert free_space_path_loss_db(lam / (4 * math.pi), lam) == pytest.approx(0.0, abs=1e-12)

    def test_one_meter_28ghz(self):
        assert free_space_path_loss_db(1.0, LAMBDA_28GHZ) == pytest.approx(61.39, abs=0.01)

    def test_ten_meters_1ghz(self):
        assert free_space_path_loss_db(10.0, SPEED_OF_LIGHT / 1e9) == pytest.approx(
            52.45, abs=0.01
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0, 0.1)


class TestFresnelRadius:
    def test_nonfinite_radius_rejected(self):
        # d1 * d2 overflows in the direct formula, but r_d is finite: each radius is its
        # 2^-128 twin's times 2^64; only a non-finite or non-positive input is rejected
        for d1, d2, lam in [(3.1e307, 20.0, 0.01), (1e200, 1e200, 1.0), (5.0, 20.0, 1e308)]:
            twin = fresnel_radius(math.ldexp(d1, -128), math.ldexp(d2, -128), math.ldexp(lam, -128))
            assert fresnel_radius(d1, d2, lam) == math.ldexp(twin, 128) < math.inf
        for d1, d2, lam in [(math.inf, 20.0, 0.01), (5.0, math.inf, 1.0), (5.0, 20.0, math.inf),
                            (math.nan, 20.0, 0.01), (5.0, 20.0, -1e-310), (0.0, 1e301, 1.0)]:
            with pytest.raises(ValueError, match="d1, d2 and wavelength must be positive and finite"):
                fresnel_radius(d1, d2, lam)

    @given(plain_paths)
    def test_plain_range_keeps_direct_bits(self, logs):
        d1, d2, lam = (10.0**x for x in logs)
        assert fresnel_radius(d1, d2, lam) == fresnel_radius_direct(d1, d2, lam)

    def test_symmetric_midpoint_form(self):
        lam = 0.05
        assert fresnel_radius(7.0, 7.0, lam) == pytest.approx(math.sqrt(lam * 7.0 / 2.0))

    def test_reference_values(self):
        assert fresnel_radius(8.0, 20.0, LAMBDA_28GHZ) == pytest.approx(0.2474, abs=1e-4)
        assert fresnel_radius(5.0, 20.0, LAMBDA_28GHZ) == pytest.approx(0.2070, abs=1e-4)

    @given(st.floats(0.1, 100), st.floats(0.1, 100), st.floats(1e-4, 1.0))
    def test_symmetry_and_wavelength_scaling(self, d1, d2, lam):
        assert fresnel_radius(d1, d2, lam) == fresnel_radius(d2, d1, lam)
        assert fresnel_radius(d1, d2, 2 * lam) == pytest.approx(
            math.sqrt(2) * fresnel_radius(d1, d2, lam), rel=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fresnel_radius(0.0, 1.0, 0.1)


class TestTotalPathLoss:
    def test_full_clearance_is_fspl(self):
        got = total_path_loss_db(8.0, 20.0, 1000.0, LAMBDA_28GHZ)
        assert got == pytest.approx(90.33, abs=0.01)
        # free space up to the knife-edge ripple at this clearance
        v = diffraction_parameter(1000.0, 8.0, 20.0, LAMBDA_28GHZ)
        fspl = free_space_path_loss_db(28.0, LAMBDA_28GHZ)
        assert got == pytest.approx(fspl + ked_loss_by_scipy(v), abs=1e-9)
        assert abs(got - fspl) <= 20 * math.log10(1 + 1 / (math.pi * v))

    def test_grazing_adds_six_db(self):
        lam = SPEED_OF_LIGHT / 1e9
        got = total_path_loss_db(8.0, 20.0, 0.0, lam)
        assert got == pytest.approx(free_space_path_loss_db(28.0, lam) + 6.0206, abs=1e-3)

    def test_los_threshold_close_to_free_space(self):
        rd = fresnel_radius(8.0, 20.0, LAMBDA_28GHZ)
        got = total_path_loss_db(8.0, 20.0, 0.6 * rd, LAMBDA_28GHZ)
        assert abs(got - free_space_path_loss_db(28.0, LAMBDA_28GHZ)) <= 1.5


def test_wavelength():
    assert wavelength(28e9) == pytest.approx(0.010707, abs=1e-6)
    for frequency in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            wavelength(frequency)
    # c / f overflows to inf below about 1.7e-300 Hz
    with pytest.raises(ValueError, match="wavelength is not finite"):
        wavelength(1e-300)
