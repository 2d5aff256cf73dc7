"""Laws that relate two runs of one route, so they need no second implementation.

Scaling every length and the wavelength by 2^k is exact in binary floating
point, so every LoS share, loss and grid count keeps its bits, and the
critical frequency scales by exactly 2^-k.  The closed forms take inputs
outside (2^-300, 2^300) in units of a power of two, so for them the law holds
at every k where the inputs are normal floats.  p_los_closed and
critical_frequency square a length as x * x, which is correctly rounded;
float pow is not, and the two scenes where it broke the law are kept.  Mirroring
the aspect angle is exact for the closed forms and holds to one cell for the
grid, whose cell centres are not exact mirror images.  A wider window or a
higher frequency never loses LoS: every floating-point operation on the
predicate's path is monotone in the half window and in 1/wavelength.  The
scenes span the ranges of TestPLosGrid.test_count_equals_dense_reference.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from o2i_los.coverage import p_los_at_distance
from o2i_los.diffraction import fresnel_radius, total_path_loss_db, wavelength
from o2i_los.geometry import SceneGeometry
from o2i_los.los import GridSpec, critical_frequency, p_los_closed, p_los_grids, p_los_optical

# Degrees, log10 of the frequency, room, window share of the room, standoff, and
# an optional share of the critical frequency that replaces the drawn one.
scenes = st.tuples(
    st.floats(-89.0, 89.0), st.floats(8.0, 11.0), st.floats(1.0, 100.0), st.floats(0.01, 1.0),
    st.floats(0.5, 100.0), st.one_of(st.none(), st.floats(0.2, 1.0)),
)
sizes = st.integers(10, 100)


def build(deg, log_f, room, share, dist, below_critical, scale=0):
    """The scene and frequency of one draw, each length times 2^scale and the frequency over it."""
    sc = SceneGeometry(room, room * share, dist, math.radians(deg))
    frequency = below_critical * critical_frequency(sc) if below_critical else 10.0**log_f
    lengths = (math.ldexp(x, scale) for x in (room, room * share, dist))
    return SceneGeometry(*lengths, sc.bs_angle), math.ldexp(frequency, -scale)


def grid_counts(points, n):
    return [round(p * n * n) for p in p_los_grids([(sc, wavelength(f)) for sc, f in points], GridSpec(n))]


@settings(max_examples=60, deadline=None)
@given(draw=scenes, n=sizes, k=st.integers(-40, 60), d_n=st.floats(1.0, 100.0),
       delta_over_rd=st.floats(-3.0, 3.0))
def test_scale_law(draw, n, k, d_n, delta_over_rd):
    (sc, f), (big, big_f) = build(*draw), build(*draw, scale=k)
    assert p_los_optical(big) == p_los_optical(sc)
    assert p_los_closed(big, big_f) == p_los_closed(sc, f)
    assert critical_frequency(big) == math.ldexp(critical_frequency(sc), -k)
    big_d_n = math.ldexp(d_n, k)
    assert (p_los_at_distance(big.bs_distance, big_d_n, big.window_width, big_f)
            == p_los_at_distance(sc.bs_distance, d_n, sc.window_width, f))
    lam = wavelength(f)
    assert wavelength(big_f) == math.ldexp(lam, k)
    delta = delta_over_rd * fresnel_radius(sc.bs_distance, d_n, lam)
    assert (total_path_loss_db(big.bs_distance, big_d_n, math.ldexp(delta, k), math.ldexp(lam, k))
            == total_path_loss_db(sc.bs_distance, d_n, delta, lam))
    assert grid_counts([(big, big_f)], n) == grid_counts([(sc, f)], n)


def paper_scene(k):
    """The paper's scene (20 m room, 2 m window, 5 m standoff, 0.3 rad, 28 GHz), lengths times 2^k."""
    return SceneGeometry(math.ldexp(20.0, k), math.ldexp(2.0, k), math.ldexp(5.0, k), 0.3), math.ldexp(28e9, -k)


def closed_forms(k):
    """The closed forms of the paper scene scaled by 2^k, each in units that make it scale-free."""
    sc, f = paper_scene(k)
    lam = wavelength(f)
    return (p_los_closed(sc, f), p_los_at_distance(sc.bs_distance, sc.room_side, sc.window_width, f),
            math.ldexp(critical_frequency(sc), k), math.ldexp(fresnel_radius(sc.bs_distance, sc.room_side, lam), -k),
            # beyond k = 1015, 4 pi (d1 + d2) overflows in free_space_path_loss_db
            total_path_loss_db(sc.bs_distance, sc.room_side, math.ldexp(0.3, k), lam) if k <= 1015 else None)


def test_scale_law_over_the_normal_range():
    # every k where the paper scene's lengths and frequency are normal floats
    def normal(x, k):  # x 2^k lies in [2^(e - 1 + k), 2^(e + k)) for e = frexp(x)[1]
        return -1021 <= math.frexp(x)[1] + k <= 1024

    k_range = [k for k in range(-1100, 1100) if normal(2.0, k) and normal(20.0, k) and normal(28e9, -k)]
    assert (k_range[0], k_range[-1]) == (-989, 1019)
    reference = closed_forms(0)
    for k in k_range:
        got = closed_forms(k)
        assert got[:4] == reference[:4] and got[4] in (reference[4], None), k


@pytest.mark.parametrize("k", [-700, -400, -359, -342, 342, 500])
def test_scale_law_where_the_direct_formulas_drifted(k):
    # the direct Fresnel radius lost bits from k = -342 on, and from 2^-700 d_a * d_n underflowed to 0
    assert closed_forms(k)[:2] == (0.2601067620318471, 0.4379155860138795)


def test_scale_law_where_the_fresnel_radius_overflowed():
    # d1 * d2 overflowed, and the direct Fresnel radius raised "not finite"
    sc = SceneGeometry(4e307, 2.0, 5.0)
    twin = SceneGeometry(math.ldexp(4e307, -64), math.ldexp(2.0, -64), math.ldexp(5.0, -64))
    assert p_los_closed(sc, 28e9) == p_los_closed(twin, math.ldexp(28e9, 64)) == 0.17223500599675917


def test_scale_law_where_the_room_area_underflows():
    # room * room underflows to 0 in the direct share: ZeroDivisionError before the rescale
    lengths = (1e-170, 1e-171, 1e-170)
    sc, twin = SceneGeometry(*lengths), SceneGeometry(*(math.ldexp(x, 600) for x in lengths))
    assert p_los_closed(sc, 28e9) == p_los_closed(twin, math.ldexp(28e9, -600)) == 0.0


def test_scale_law_closed_form_where_pow_failed():
    draw = (-70.70577526588929, 8.836716541460508, 98.75460272120232, 0.783334727230859, 94.94567655472376, None)
    (sc, f), (big, big_f) = build(*draw), build(*draw, scale=51)
    assert p_los_closed(big, big_f) == p_los_closed(sc, f)  # float pow read ...118 against ...115


def test_scale_law_critical_frequency_where_pow_failed():
    draw = (0.0, 8.0, 44.91609137339843, 0.9224484517827466, 1.0, None)
    (sc, _), (big, _) = build(*draw), build(*draw, scale=1)
    assert critical_frequency(big) == math.ldexp(critical_frequency(sc), -1)  # float pow read ...148 against ...145


@settings(max_examples=60, deadline=None)
@given(draw=scenes, n=sizes)
def test_mirror_law(draw, n):
    deg, *rest = draw
    (up, f), (down, _) = build(deg, *rest), build(-deg, *rest)
    assert p_los_closed(down, f) == p_los_closed(up, f)
    assert p_los_optical(down) == p_los_optical(up)
    count_up, count_down = grid_counts([(up, f), (down, f)], n)
    assert abs(count_up - count_down) <= 1


@settings(max_examples=60, deadline=None)
@given(draw=scenes, n=sizes, other_share=st.floats(0.01, 1.0))
def test_wider_window_loses_no_los(draw, n, other_share):
    deg, log_f, room, share, dist, _ = draw
    narrow, wide = (build(deg, log_f, room, s, dist, None)[0] for s in sorted((share, other_share)))
    f = 10.0**log_f
    assert p_los_closed(narrow, f) <= p_los_closed(wide, f)
    count_narrow, count_wide = grid_counts([(narrow, f), (wide, f)], n)
    assert count_narrow <= count_wide


@settings(max_examples=60, deadline=None)
@given(draw=scenes, n=sizes, other_log_f=st.floats(8.0, 11.0))
def test_higher_frequency_loses_no_los(draw, n, other_log_f):
    sc, _ = build(*draw)
    low, high = (10.0**g for g in sorted((draw[1], other_log_f)))
    assert p_los_closed(sc, low) <= p_los_closed(sc, high)
    count_low, count_high = grid_counts([(sc, low), (sc, high)], n)
    assert count_low <= count_high
