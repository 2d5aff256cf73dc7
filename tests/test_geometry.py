import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from o2i_los.diffraction import wavelength
from o2i_los.geometry import SceneGeometry, bs_position
from o2i_los.los import clearances, critical_frequency, p_los_closed

from oracles import edge_clearance

LAM = wavelength(28e9)


def scene(room=20.0, window=2.0, dist=5.0, angle=0.0):
    return SceneGeometry(room_side=room, window_width=window,
                         bs_distance=dist, bs_angle=angle)


ANGLE = "bs_angle must lie strictly inside (-90, 90) degrees"
# (SceneGeometry fields, the ValueError message); the ids keep each case's name kwargs<i>
INVALID_FIELDS = [
    (dict(room=-1.0), "room_side must be positive and finite"),
    (dict(window=0.0), "window_width must be positive and finite"),
    (dict(dist=0.0), "bs_distance must be positive and finite"),
    (dict(angle=math.pi / 2), ANGLE),
    (dict(angle=-2.0), ANGLE),
    (dict(room=math.inf), "room_side must be positive and finite"),
    (dict(room=math.nan), "room_side must be positive and finite"),
    (dict(window=math.nan), "window_width must be positive and finite"),
    (dict(dist=math.inf), "bs_distance must be positive and finite"),
    (dict(dist=math.nan), "bs_distance must be positive and finite"),
    (dict(angle=math.nan), ANGLE),
    # base station at y = -inf
    (dict(dist=1e308, angle=math.radians(89)), "base-station position must be finite"),
    # no numpy overflow warning either
    (dict(dist=np.float64(1e308), angle=1.5), "base-station position must be finite"),
    # ints past the float range are held as infinities
    (dict(room=10**400), "room_side must be positive and finite"),
    (dict(window=10**400), "window_width must be positive and finite"),
    (dict(dist=10**400), "bs_distance must be positive and finite"),
    (dict(angle=-10**400), ANGLE),
    # the first bad field in declaration order is named
    (dict(room=-1.0, window=0.0), "room_side must be positive and finite"),
    (dict(window=math.nan, dist=-1.0), "window_width must be positive and finite"),
]


class TestSceneGeometry:
    def test_window_larger_than_room_rejected(self):
        with pytest.raises(ValueError, match="window exceeds room"):
            scene(room=20.0, window=25.0)

    @pytest.mark.parametrize("kwargs, message", INVALID_FIELDS,
                             ids=[f"kwargs{i}" for i in range(len(INVALID_FIELDS))])
    def test_invalid_fields_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            scene(**kwargs)
        assert str(raised.value) == message

    def test_non_numeric_field_rejected(self):
        with pytest.raises(TypeError):
            scene(room="20")

    @pytest.mark.parametrize("kind, room", [
        (np.float64, 20), (np.float64, 10**200), (np.float32, 20), (int, 20), (int, 10**200),
    ], ids=["float64", "float64-1e200-room", "float32", "int", "int-1e200-room"])
    def test_numeric_types_give_float_results(self, kind, room):
        # fields are held as floats, so numpy scalars and ints compute as floats do
        sc, reference = (scene(k(room), k(2), k(5), k(0)) for k in (kind, float))
        assert all(type(value) is float for value in vars(sc).values())
        for frequency in (1e8, 28e9):
            assert repr(p_los_closed(sc, frequency)) == repr(p_los_closed(reference, frequency))
        assert repr(critical_frequency(sc)) == repr(critical_frequency(reference))


class TestBsPosition:
    def test_normal_incidence(self):
        assert bs_position(scene()) == (-5.0, 0.0)

    def test_45_degrees(self):
        x, y = bs_position(scene(angle=math.radians(45)))
        assert x == pytest.approx(-5.0)
        assert y == pytest.approx(-5.0)
        assert math.hypot(x, y) == pytest.approx(5 * math.sqrt(2))

    def test_negative_angle_sign(self):
        _, y = bs_position(scene(angle=math.radians(-30)))
        assert y == pytest.approx(2.8868, abs=1e-4)


class TestIntrusionDistance:
    """Signed edge clearances from los.clearances: the window edges' distances from the path."""

    def test_clear_edge_above_straight_path(self):
        got = clearances(scene(), 20.0, 0.0, LAM)
        assert got.upper == pytest.approx(1.0)
        assert got.lower == pytest.approx(1.0)

    def test_edge_on_path(self):
        # line through (-5,0) and (20,-5) passes the lower edge (0,-1)
        assert clearances(scene(), 20.0, -5.0, LAM).lower == pytest.approx(0.0, abs=1e-12)

    def test_collinear_construction(self):
        # line through (-5,0) and (5,2) passes x=0 at y=1, the upper edge
        assert clearances(scene(), 5.0, 2.0, LAM).upper == pytest.approx(0.0, abs=1e-12)

    def test_blocking_edge_is_negative(self):
        # path crosses the wall at y=2, above the upper edge at y=1
        got = clearances(scene(), 5.0, 4.0, LAM)
        assert got.upper < 0
        # while the lower edge at y=-1 stays clear
        assert got.lower > 0

    @given(
        room=st.floats(1.0, 100.0), window_share=st.floats(0.01, 1.0),
        dist=st.floats(0.1, 100.0), deg=st.floats(-89.0, 89.0),
        x_share=st.floats(1e-3, 1.0), y_share=st.floats(-0.5, 0.5),
    )
    def test_matches_cross_product_reference(self, room, window_share, dist, deg, x_share, y_share):
        sc = scene(room=room, window=room * window_share, dist=dist, angle=math.radians(deg))
        bs_x, bs_y = bs_position(sc)
        x, y = room * x_share, room * y_share
        got = clearances(sc, x, y, LAM)
        half = sc.window_width / 2.0
        assert got.lower == pytest.approx(edge_clearance(bs_x, bs_y, x, y, -half), abs=1e-9 * room)
        assert got.upper == pytest.approx(edge_clearance(bs_x, bs_y, x, y, half), abs=1e-9 * room)


class TestPathDecomposition:
    """The path split at the wall plane by los.clearances: crossing, d1 and d2."""

    def test_straight_path(self):
        got = clearances(scene(), 20.0, 0.0, LAM)
        assert got.crossing_y == 0.0
        assert got.d1 == pytest.approx(5.0)
        assert got.d2 == pytest.approx(20.0)

    def test_diagonal_similar_triangles(self):
        # base station at (-5, -5)
        got = clearances(scene(angle=math.radians(45)), 10.0, 10.0, LAM)
        assert got.crossing_y == pytest.approx(0.0, abs=1e-12)
        assert got.d1 == pytest.approx(5 * math.sqrt(2))
        assert got.d2 == pytest.approx(10 * math.sqrt(2))

    def test_interpolated_crossing(self):
        got = clearances(scene(), 15.0, 10.0, LAM)
        assert got.crossing_y == pytest.approx(2.5)
        assert got.d1 == pytest.approx(5.5902, abs=1e-4)
        assert got.d2 == pytest.approx(16.7705, abs=1e-4)

    @given(
        st.floats(-1.5, 1.5), st.floats(0.01, 80), st.floats(0.01, 40), st.floats(-20, 20),
    )
    def test_collinear_split(self, angle, dist, mx, my):
        sc = scene(room=40.0, dist=dist, angle=angle)
        bs_x, bs_y = bs_position(sc)
        got = clearances(sc, mx, my, LAM)
        assert got.d1 + got.d2 == pytest.approx(math.hypot(mx - bs_x, my - bs_y), rel=1e-12)


def test_window_edges():
    got = clearances(scene(window=3.0), 20.0, 0.0, LAM)
    assert got.lower == got.upper == 1.5
