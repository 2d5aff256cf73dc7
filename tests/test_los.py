import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from o2i_los import CORNER_RAY_ANGLE, los
from o2i_los.diffraction import SPEED_OF_LIGHT, fresnel_radius, wavelength
from o2i_los.geometry import SceneGeometry, bs_position
from o2i_los.los import (
    LOS_CLEARANCE_RATIO,
    GridSpec,
    clearances,
    critical_frequency,
    evaluate,
    p_los_closed,
    p_los_grid,
    p_los_grids,
    p_los_optical,
)
from o2i_los.sweep import parse_config, run_sweep

from oracles import critical_frequency_direct, dense_los_count, p_los_closed_direct, visible_area_fraction

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# log10 of the room, of the window's share of it and of the standoff, in the plain float range
plain_scenes = st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 0.0), st.floats(-3.0, 4.0))
F_28 = 28e9
LAM_28 = wavelength(F_28)


def scene(room=20.0, window=2.0, dist=5.0, angle=0.0):
    return SceneGeometry(room_side=room, window_width=window,
                         bs_distance=dist, bs_angle=angle)


def boundary_frequency(sc, n, column, row_share, margin=0.0):
    """Frequency at which one cell of the n x n grid has the given margin, zero by default.

    The cell lies in the given column, at row_share of the span of rows whose
    wall crossing falls inside the window; the margin is the predicate's, in
    its own floating-point form.  None when the column has no such row.
    """
    room, h = sc.room_side, sc.window_width / 2.0
    step, (bs_x, bs_y) = room / n, bs_position(sc)
    x = (column + 0.5) * step
    so = 0.0 - bs_x
    t = so / (x + so)
    rows = [(bs_y + (edge - bs_y) / t + room / 2.0) / step - 0.5 for edge in (-h, h)]
    lo, hi = max(0, math.ceil(rows[0])), min(n - 1, math.floor(rows[1]))
    if lo > hi:
        return None
    y = -room / 2.0 + (lo + min(int(row_share * (hi - lo + 1)), hi - lo) + 0.5) * step
    u = y * t + bs_y * (x / (x + so))
    d2 = math.hypot(x, y - u)
    r_d = (h - abs(u) - margin) * (x / d2) / LOS_CLEARANCE_RATIO
    lam = r_d * r_d / (d2 * t)
    return SPEED_OF_LIGHT / lam if abs(u) < h and 0.0 < lam < math.inf else None


def closed_form_reference(theta, d_a, l_r, l_w, frequency):
    """The two-branch wedge formula written out directly."""
    lam = SPEED_OF_LIGHT / frequency
    d1 = d_a / math.cos(theta)
    if abs(theta) < math.atan(0.5):
        d2 = l_r / math.cos(theta)
        second = (2 * l_r * d_a + l_r**2) / math.cos(theta) ** 2
    else:
        d2 = l_r / (2 * abs(math.sin(theta)))
        second = (2 * d_a / math.cos(theta) + d2) * d2
    rd = fresnel_radius(d1, d2, lam)
    first = (l_w * math.cos(theta) ** 2 - 1.2 * rd * math.cos(theta)) / (2 * l_r**2 * d_a)
    return min(max(first * second, 0.0), 1.0)


class TestPLosClosed:
    def test_reference_scene_28ghz(self):
        assert p_los_closed(scene(), F_28) == pytest.approx(0.2627, abs=1e-4)

    def test_zero_at_or_below_critical(self):
        fc = critical_frequency(scene())
        assert p_los_closed(scene(), fc) == 0.0
        assert p_los_closed(scene(), 0.5 * fc) == 0.0

    @pytest.mark.parametrize("deg", [0, 5, 15, 25, 26.565, 28, 45, 60, 75, -40])
    def test_matches_two_branch_form(self, deg):
        theta = math.radians(deg)
        got = p_los_closed(scene(angle=theta), F_28)
        assert got == pytest.approx(closed_form_reference(theta, 5, 20, 2, F_28), rel=1e-12)

    def test_vanishing_wavelength_limit(self):
        # The Fresnel term drops out, and at zero aspect angle the wedge is the optical bound.
        got = p_los_closed(scene(), SPEED_OF_LIGHT / 1e-12)
        assert got == pytest.approx(p_los_optical(scene()), abs=1e-6)

    def test_continuous_at_corner_ray(self):
        # d2 switches from the back wall to a side wall at the corner ray.
        for sign in (1.0, -1.0):
            below = p_los_closed(scene(angle=sign * (CORNER_RAY_ANGLE - 1e-13)), F_28)
            above = p_los_closed(scene(angle=sign * (CORNER_RAY_ANGLE + 1e-13)), F_28)
            assert below > 0.0
            assert below == pytest.approx(above, rel=1e-12)

    @pytest.mark.parametrize("deg", [0, 20, 45])
    def test_finite_where_room_area_overflows(self, deg):
        # L^2 overflows above about 1.34e154 m, while the wedge's share of the room stays finite
        angle = math.radians(deg)
        far = p_los_closed(scene(room=1e160, angle=angle), F_28)
        assert far > 0.0
        assert far == pytest.approx(p_los_closed(scene(room=1e150, angle=angle), F_28), rel=1e-12)

    @given(plain_scenes, st.floats(-1.55, 1.55), st.floats(6.0, 12.0))
    def test_plain_range_keeps_direct_bits(self, logs, theta, log_f):
        # inside (2^-300, 2^300) the route is the direct formula, with no rescale
        room, window, dist = 10.0 ** logs[0], 10.0 ** (logs[0] + logs[1]), 10.0 ** logs[2]
        sc, f = scene(room, min(window, room), dist, theta), 10.0**log_f
        assert p_los_closed(sc, f) == p_los_closed_direct(sc.room_side, sc.window_width, dist, theta, wavelength(f))

    def test_side_wall_branch_against_grid(self):
        got = p_los_closed(scene(angle=math.radians(45)), F_28)
        ref = p_los_grid(scene(angle=math.radians(45)), F_28, GridSpec(600))
        assert abs(got - ref) <= 0.03

    @given(st.floats(1e9, 100e9), st.floats(1e9, 100e9))
    def test_monotone_in_frequency_at_normal_incidence(self, f1, f2):
        lo, hi = sorted((f1, f2))
        assert p_los_closed(scene(), lo) <= p_los_closed(scene(), hi) + 1e-15

    @given(st.floats(-1.5, 1.5), st.floats(1e9, 100e9))
    def test_mirror_symmetry_and_range(self, theta, frequency):
        p = p_los_closed(scene(angle=theta), frequency)
        assert 0.0 <= p <= 1.0
        assert p == p_los_closed(scene(angle=-theta), frequency)


class TestPLosOptical:
    def test_reference_scene(self):
        assert p_los_optical(scene()) == pytest.approx(0.3, abs=1e-12)

    def test_no_window_no_los(self):
        assert p_los_optical(scene(window=1e-9)) == pytest.approx(0.0, abs=1e-9)

    def test_far_bs_dominated_by_room_term(self):
        assert p_los_optical(scene(dist=1e9)) == pytest.approx(0.1, abs=1e-8)

    def test_window_doubling_doubles(self):
        assert p_los_optical(scene(window=2.0)) == pytest.approx(
            2 * p_los_optical(scene(window=1.0)), rel=1e-12
        )

    def test_clamped_to_one(self):
        assert p_los_optical(scene(room=2.0, window=2.0, dist=0.3)) == 1.0


class TestCriticalFrequency:
    def test_reference_value(self):
        fc = critical_frequency(scene())
        assert fc == pytest.approx(431.7e6, rel=1e-3)
        assert fc == pytest.approx(
            1.44 * SPEED_OF_LIGHT * 5.0 * 20.0 / (2.0**2 * 25.0), rel=1e-12
        )
        assert critical_frequency(scene(angle=1.2)) == fc  # the aspect angle is not read

    def test_inverse_square_window_scaling(self):
        assert critical_frequency(scene(window=1.0)) == pytest.approx(
            4 * critical_frequency(scene(window=2.0)), rel=1e-12
        )

    def test_far_bs_limit(self):
        assert critical_frequency(scene(dist=1e12)) == pytest.approx(2.159e9, rel=1e-3)

    @pytest.mark.parametrize("room, window, dist", [
        (1.2e160, 1.2e160, 1e100),  # the window's square overflows
        (1.2e150, 1.2e150, 1e-10),  # the square is finite, the wavelength is not
        (20.0, 2.0, 1e-310),  # 1 / d overflows
    ])
    def test_overflowing_wavelength_keeps_its_frequency(self, room, window, dist):
        # The critical wavelength passes the float limit, c over it does not.
        w = Fraction(window) / Fraction(2.0 * LOS_CLEARANCE_RATIO)
        exact = Fraction(SPEED_OF_LIGHT) / (w * w * (1 / Fraction(dist) + 1 / Fraction(room)))
        fc = critical_frequency(scene(room=room, window=window, dist=dist))
        assert fc == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    @given(plain_scenes)
    def test_plain_range_keeps_direct_bits(self, logs):
        sc = scene(10.0 ** logs[0], 10.0 ** (logs[0] + logs[1]), 10.0 ** logs[2])
        assert critical_frequency(sc) == critical_frequency_direct(sc.room_side, sc.window_width, sc.bs_distance)

    @pytest.mark.parametrize("window, dist, exact", [
        (1e-161, 1e-30, 4.3170113952e+300),  # w^2 is subnormal in the direct formula
        (1e-170, 1e-310, 4.3170113952e+38),  # w^2 is 0 and 1 / d is inf: nan in the direct formula
    ])
    def test_tiny_window_matches_its_twin(self, window, dist, exact):
        # the 2^600 twin has normal lengths, and its frequency is 2^-600 times this one's
        fc = critical_frequency(scene(window=window, dist=dist))
        twin = critical_frequency(scene(math.ldexp(20.0, 600), math.ldexp(window, 600), math.ldexp(dist, 600)))
        assert fc == pytest.approx(math.ldexp(twin, 600), rel=1e-15, abs=0.0)
        assert fc == pytest.approx(exact, rel=1e-10)

    def test_boundary_behaviour(self):
        fc = critical_frequency(scene())
        assert p_los_closed(scene(), 0.99 * fc) == 0.0
        assert p_los_closed(scene(), 1.01 * fc) > 0.0

    def test_invalid_inputs(self):
        # The scene is critical_frequency's one input and its one check.
        for window, dist, room in [
            (0.0, 5.0, 20.0),
            (2.0, math.inf, 20.0),
            (math.inf, 5.0, math.inf),
            (2.0, 5.0, math.nan),
            (30.0, 5.0, 20.0),  # window wider than the room
        ]:
            with pytest.raises(ValueError):
                critical_frequency(scene(room=room, window=window, dist=dist))


class TestIsLos:
    """The verdict of clearances for one receiver."""

    def test_center_of_back_wall(self):
        assert clearances(scene(), 20.0, 0.0, LAM_28).los

    def test_hidden_behind_wall(self):
        # crossing at y = 7.5 is well outside the window
        assert not clearances(scene(), 1.0, 9.0, LAM_28).los

    def test_threshold_sharpness(self):
        # place receivers at depth 15 whose upper-edge clearance is a chosen
        # multiple of the local Fresnel radius, from the raw clearance equation
        lam = SPEED_OF_LIGHT / F_28
        depth = 15.0

        def clearance_ratio(y):
            y_cross = y * 5.0 / (5.0 + depth)
            d1 = math.hypot(5.0, y_cross)
            d2 = math.hypot(depth, y - y_cross)
            rd = math.sqrt(lam * d1 * d2 / (d1 + d2))
            cos_norm = (depth + 5.0) / math.hypot(depth + 5.0, y)
            return (1.0 - y_cross) * cos_norm / rd

        y59 = brentq(lambda y: clearance_ratio(y) - 0.59, 0.0, 3.999)
        y61 = brentq(lambda y: clearance_ratio(y) - 0.61, 0.0, 3.999)
        assert not clearances(scene(), depth, y59, LAM_28).los
        assert clearances(scene(), depth, y61, LAM_28).los


class TestPLosGrid:
    def test_vanishing_window(self):
        assert p_los_grid(scene(window=1e-9), F_28, GridSpec(100)) == 0.0

    def test_whole_wall_window_optical_limit(self):
        got = p_los_grid(scene(window=20.0), 1e15, GridSpec(400))
        assert got == visible_area_fraction(20.0, 20.0, -5.0, 0.0) == 1.0

    @pytest.mark.parametrize("window,deg", [(10.0, 0.0), (2.0, 0.0), (10.0, 20.0), (10.0, 40.0)])
    def test_matches_polygon_oracle_at_high_frequency(self, window, deg):
        sc = scene(window=window, angle=math.radians(deg))
        bs_x, bs_y = bs_position(sc)
        got = p_los_grid(sc, 1e15, GridSpec(800))
        assert got == pytest.approx(visible_area_fraction(20.0, window, bs_x, bs_y), abs=0.01)

    def test_agrees_with_scalar_predicate(self):
        sc = scene(window=2.1, dist=5.3, angle=0.37)
        n = 50
        grid_value = p_los_grid(sc, F_28, GridSpec(n))
        step = sc.room_side / n
        count = 0
        for i in range(n):
            for j in range(n):
                x, y = (i + 0.5) * step, -sc.room_side / 2 + (j + 0.5) * step
                count += bool(clearances(sc, x, y, LAM_28).los)
        assert grid_value == count / n**2

    def test_deterministic(self):
        sc = scene(angle=0.3)
        first = p_los_grid(sc, F_28, GridSpec(300))
        assert all(p_los_grid(sc, F_28, GridSpec(300)) == first for _ in range(3))
        assert first == dense_los_count(20.0, 2.0, 5.0, 0.3, F_28, 300) / 300**2

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(10, 700),
        deg=st.floats(-89.0, 89.0),
        log_f=st.floats(8.0, 11.0),
        room=st.floats(1.0, 100.0),
        window_share=st.floats(0.01, 1.0),
        dist=st.floats(0.5, 100.0),
        below_critical=st.one_of(st.none(), st.floats(0.2, 1.0)),
        newton_steps=st.sampled_from([0, 1, 3]),
    )
    def test_count_equals_dense_reference(
        self, n, deg, log_f, room, window_share, dist, below_critical, newton_steps
    ):
        # Fewer Newton steps send more columns to the bisection.
        window = room * window_share
        frequency = 10.0**log_f
        sc = scene(room=room, window=window, dist=dist, angle=math.radians(deg))
        if below_critical is not None:
            frequency = below_critical * critical_frequency(sc)
        count = dense_los_count(room, window, dist, math.radians(deg), frequency, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(los, "_NEWTON_STEPS", newton_steps)
            assert p_los_grid(sc, frequency, GridSpec(n)) == count / n**2

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(10, 200),
        deg=st.floats(-89.99, 89.99),
        log_f=st.floats(6.0, 16.0),
        log_room=st.floats(-3.0, 5.0),
        log_window_share=st.floats(-6.0, 0.0),
        log_dist=st.floats(-3.0, 6.0),
        retune=st.one_of(
            st.none(),
            st.floats(0.2, 1.0),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        ),
    )
    def test_count_equals_dense_reference_wide_ranges(
        self, n, deg, log_f, log_room, log_window_share, log_dist, retune
    ):
        # Millimetre to 100 km rooms, standoffs of 1 mm to 1000 km and grazing
        # aspects, where the predicate and the smooth margin round the furthest apart.
        # retune moves the frequency below the critical one, or onto the
        # boundary of one cell, at shares of the columns and window rows.
        room, dist, theta = 10.0**log_room, 10.0**log_dist, math.radians(deg)
        window = room * 10.0**log_window_share
        sc = scene(room=room, window=window, dist=dist, angle=theta)
        frequency = 10.0**log_f
        if isinstance(retune, float):
            frequency = retune * critical_frequency(sc)
        elif retune is not None:
            column = min(int(retune[0] * n), n - 1)
            frequency = boundary_frequency(sc, n, column, retune[1]) or frequency
        count = dense_los_count(room, window, dist, theta, frequency, n)
        assert p_los_grid(sc, frequency, GridSpec(n)) == count / n**2

    def test_count_exact_at_tuned_boundary_cells(self):
        # One cell's margin is zero, then a few ulp either side: the smooth
        # margin must leave such cells to the predicate.  Half the scenes span
        # the wide ranges; half are 1-100 mm rooms seen from 10-1000 km, tuned
        # next to the wall, where y - y_cross is small against y and the
        # predicate's d2 rounds the most.
        rng = np.random.default_rng(15)
        scales = [1.0 + sign * d for d in (0.0, 1e-16, 2e-16, 1e-15) for sign in (1, -1)]
        # (log10 of room, window share and standoff: low, high), share of columns
        wide = ((-3.0, -6.0, -3.0), (5.0, 0.0, 6.0), 1.0)
        deep = ((-3.0, -2.0, 4.0), (-1.0, 0.0, 6.0), 0.02)
        for low, high, column_share in [wide] * 30 + [deep] * 30:
            frequency = None
            while frequency is None:
                room, share, dist = 10.0 ** rng.uniform(low, high)
                sc = scene(room=room, window=room * share, dist=dist,
                           angle=math.radians(rng.uniform(-89.99, 89.99)))
                n = int(rng.integers(10, 201))
                column = int(rng.uniform(0.0, column_share) * n)
                frequency = boundary_frequency(sc, n, column, rng.uniform())
            for f in frequency * np.array(scales):
                count = dense_los_count(room, sc.window_width, dist, sc.bs_angle, f, n)
                assert p_los_grid(sc, f, GridSpec(n)) == count / n**2

    def test_grid_does_not_drift_with_standoff(self):
        # The wall crossing is a weighted mean of y and the base station's y, so it
        # keeps y's digits at any standoff and the grid holds its far-field value.
        for room, window, deg, frequency in ((20.0, 2.0, 10.0, F_28), (0.01, 0.0025, 30.0, 1e15)):
            def grid_at(dist):
                return p_los_grid(scene(room, window, dist, math.radians(deg)), frequency, GridSpec(200))

            near = grid_at(1e6)
            assert near > 0.0
            assert [grid_at(10.0**k) for k in range(7, 301)] == [near] * 294, room

    @pytest.mark.parametrize("dist", [1e39, 1e45])
    def test_lit_grid_beyond_float32_range(self, dist):
        # The standoff overflows float32 in the Newton predictor; the check still
        # settles each column, and nothing warns.
        for window in (19.0, 19.5, 20.0):
            for theta in (0.0, 0.3):
                got = p_los_grid(scene(window=window, dist=dist, angle=theta), F_28, GridSpec(50))
                assert got == dense_los_count(20.0, window, dist, theta, F_28, 50) / 50**2 > 0.0

    def test_underflowing_clearance_scale_needs_no_clamp(self):
        # A 1e-300 m standoff before a 1e100 m room: K underflows to 0, so the seed
        # slope is not clamped, and no divide-by-zero warning escapes.
        points = [(scene(1e100, 2.0, 1e-300, math.radians(deg)), LAM_28) for deg in (-20.0, 0.0)]
        expected = [dense_los_count(1e100, 2.0, 1e-300, sc.bs_angle, F_28, 40) / 40**2 for sc, _ in points]
        assert p_los_grids(points, GridSpec(40)) == expected == [1.0, 1.0]

    def test_near_zero_column_counted_densely(self, monkeypatch):
        # Tune the frequency so that column 50 of 101 just reaches the
        # clearance threshold at y = 0, where its margin peaks at normal
        # incidence: its largest margin is zero up to rounding.
        n, column = 101, 50
        depth = (column + 0.5) * 20.0 / n
        lam = (1.0 / LOS_CLEARANCE_RATIO) ** 2 * (depth + 5.0) / (5.0 * depth)
        frequency = SPEED_OF_LIGHT / lam
        dense_columns = []
        predicate = los._clearances

        def spy(bs_x, bs_y, half_window, x, y, wavelength_m):
            if np.shape(x)[1:] == (1,):  # the dense path's column of depths
                dense_columns.extend(np.ravel(x))
            return predicate(bs_x, bs_y, half_window, x, y, wavelength_m)

        monkeypatch.setattr(los, "_clearances", spy)
        got = p_los_grid(scene(), frequency, GridSpec(n))
        assert dense_columns == [depth]
        assert got == dense_los_count(20.0, 2.0, 5.0, 0.0, frequency, n) / n**2

    def test_margin_just_outside_band_needs_no_predicate(self, monkeypatch):
        # Column 30's best cell, row 50 of 100, has margin 1.5e-9 h: outside the
        # band of 1e-9 h, so the smooth margin settles the whole grid.
        sc, n = scene(), 100
        frequency = boundary_frequency(sc, n, 30, 0.5, margin=1.5e-9 * sc.window_width / 2.0)
        calls = self.spy_on_clearances(monkeypatch)
        got = p_los_grid(sc, frequency, GridSpec(n))
        assert calls == []
        assert got == dense_los_count(20.0, 2.0, 5.0, 0.0, frequency, n) / n**2 == 0.0114

    @staticmethod
    def spy_on_clearances(monkeypatch):
        """Record the receiver-depth count of each call of the grid's predicate."""
        calls = []
        predicate = los._clearances

        def spy(bs_x, bs_y, half_window, x, y, wavelength_m):
            calls.append(np.size(x))
            return predicate(bs_x, bs_y, half_window, x, y, wavelength_m)

        monkeypatch.setattr(los, "_clearances", spy)
        return calls

    def test_wrong_prediction_falls_back_to_bisection(self, monkeypatch):
        # With no Newton steps the prediction is the optical window edge,
        # which the Fresnel clearance moves inward: most columns fail the
        # check, and the bisection must still count them exactly.
        calls = self.spy_on_clearances(monkeypatch)
        monkeypatch.setattr(los, "_NEWTON_STEPS", 0)
        n, frequency = 300, 2e9
        got = p_los_grid(scene(angle=0.3), frequency, GridSpec(n))
        assert got == dense_los_count(20.0, 2.0, 5.0, 0.3, frequency, n) / n**2
        # The smooth margin seeds and checks every column without the
        # predicate, so each call is a bisection step over the same failed
        # columns, most of the grid.
        assert calls and set(calls) == {calls[0]} and calls[0] > n / 2

    def test_no_predicate_calls_per_grid(self, monkeypatch):
        calls = self.spy_on_clearances(monkeypatch)
        got = p_los_grid(scene(angle=0.3), F_28, GridSpec(500))
        assert got == dense_los_count(20.0, 2.0, 5.0, 0.3, F_28, 500) / 500**2
        assert calls == []

    @pytest.mark.parametrize("config, rows", [
        pytest.param(config, rows, id=config) for config, rows in
        (("plos_vs_frequency", 100), ("plos_vs_theta_1ghz", 161), ("plos_vs_theta_28ghz", 161))
    ])
    def test_figure_sweep_no_predicate_calls(self, monkeypatch, config, rows):
        # Counts alone cannot show a column that fell back to the predicate,
        # as when two workspace arrays in use at once share a buffer.
        calls = self.spy_on_clearances(monkeypatch)
        spec = parse_config((CONFIGS / f"{config}.cfg").read_text())
        record = run_sweep(spec)
        assert (len(record.rows), spec.oracle_n) == (rows, 500)
        assert calls == []

    def test_concurrent_calls_match_serial(self):
        # Each call owns its workspace, so calls in two threads, which numpy
        # lets run at once, see none of each other's arrays.
        grid = GridSpec(100)  # 61 points a chunk
        batches = [
            [(scene(angle=math.radians(deg)), wavelength(frequency)) for deg in np.linspace(-70, 70, size)]
            for frequency, size in ((1e9, 150), (F_28, 130))
        ]
        serial = [p_los_grids(batch, grid) for batch in batches]
        start = threading.Barrier(2, timeout=60)

        def repeat(batch):
            start.wait()
            return [p_los_grids(batch, grid) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                runs = list(pool.map(repeat, batches, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert runs == [[expected] * 20 for expected in serial]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(10, 400),
        chunk=st.sampled_from([1, 10, 100, 1000, 6144, 100_000]),
        scenes=st.lists(
            st.tuples(
                st.floats(-89.0, 89.0), st.floats(8.0, 11.0), st.floats(1.0, 100.0),
                st.floats(0.01, 1.0), st.floats(0.5, 100.0),
                st.one_of(st.none(), st.floats(0.2, 1.0)),
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_batch_equals_per_point_grids(self, n, chunk, scenes):
        points, per_point, expected = [], [], []
        for deg, log_f, room, window_share, dist, below_critical in scenes:
            window, theta = room * window_share, math.radians(deg)
            sc = scene(room=room, window=window, dist=dist, angle=theta)
            frequency = 10.0**log_f
            if below_critical is not None:
                frequency = below_critical * critical_frequency(sc)
            points.append((sc, wavelength(frequency)))
            per_point.append(p_los_grid(sc, frequency, GridSpec(n)))
            expected.append(dense_los_count(room, window, dist, theta, frequency, n) / n**2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(los, "_CHUNK_COLUMNS", chunk)
            assert p_los_grids(points, GridSpec(n)) == per_point == expected

    def test_batch_with_near_zero_column(self, monkeypatch):
        # A point whose column 50 of 101 is counted densely, between two that are not.
        n, depth = 101, 50.5 * 20.0 / 101
        lam = (1.0 / LOS_CLEARANCE_RATIO) ** 2 * (depth + 5.0) / (5.0 * depth)
        frequencies = [F_28, SPEED_OF_LIGHT / lam, F_28]
        scenes = [scene(angle=0.3), scene(), scene(window=5.0)]
        expected = [p_los_grid(sc, f, GridSpec(n)) for sc, f in zip(scenes, frequencies)]
        points = [(sc, wavelength(f)) for sc, f in zip(scenes, frequencies)]
        calls = self.spy_on_clearances(monkeypatch)
        assert p_los_grids(points, GridSpec(n)) == expected
        assert calls == [1]  # the dense column is the only one the predicate sees
        assert expected[1] == dense_los_count(20.0, 2.0, 5.0, 0.0, frequencies[1], n) / n**2

    def test_mixed_room_batch_needs_no_predicate(self, monkeypatch):
        # Each column's depth is gathered from its own point's room: a batch of
        # scenes that each settle without the predicate settles so together.
        n, rooms = 100, (5.0, 10.0, 15.0, 20.0, 30.0, 40.0)
        points = [(scene(room=room, angle=math.radians(deg)), LAM_28)
                  for room, deg in zip(rooms, np.linspace(-30.0, 30.0, len(rooms)))]
        calls = self.spy_on_clearances(monkeypatch)
        alone = [p_los_grids([point], GridSpec(n))[0] for point in points]
        assert calls == []
        assert p_los_grids(points, GridSpec(n)) == alone
        assert calls == []

    def test_mirror_symmetry(self):
        # To one cell: cell centres are not exact mirror images in floating point.
        n = 400
        up = p_los_grid(scene(angle=0.4), F_28, GridSpec(n))
        down = p_los_grid(scene(angle=-0.4), F_28, GridSpec(n))
        assert abs(round(up * n * n) - round(down * n * n)) <= 1

    def test_bad_wavelength_rejected(self):
        for wavelength_m in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="wavelength must be positive and finite"):
                p_los_grids([(scene(), LAM_28), (scene(), wavelength_m)], GridSpec(10))

    def test_grid_too_coarse_rejected(self):
        for n in (5, 10.5, 10.0):
            with pytest.raises(ValueError, match="at least 10"):
                GridSpec(n)
        assert GridSpec(np.int64(10)).n == 10

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-1.2, 1.2), st.floats(1e9, 60e9))
    def test_closed_form_tracks_grid(self, theta, frequency):
        sc = scene(angle=theta)
        closed = p_los_closed(sc, frequency)
        grid_value = p_los_grid(sc, frequency, GridSpec(250))
        assert abs(closed - grid_value) <= 0.04  # coarse grid, loose band


class TestEvaluate:
    def test_fills_all_routes(self):
        result = evaluate(scene(), F_28, GridSpec(200))
        assert result.p_closed == pytest.approx(0.2627, abs=1e-4)
        assert result.p_optical == pytest.approx(0.3, abs=1e-12)
        assert result.p_grid == pytest.approx(result.p_closed, abs=0.03)
        assert result.below_critical is False

    def test_below_critical_flag(self):
        result = evaluate(scene(), 400e6)
        assert result.below_critical is True
        assert result.p_closed == 0.0
        assert result.p_grid is None

    def test_clamped_flag_close_in(self):
        result = evaluate(scene(room=2.0, window=2.0, dist=0.2), 100e9)
        assert result.p_closed == 1.0
