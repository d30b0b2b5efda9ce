"""Retraction onto the spine: images, scales, traces, seam continuity."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from fig8plan import retraction
from fig8plan.errors import CollisionError, DomainError
from fig8plan.geometry import (
    SNAP_EPS,
    chart,
    config_dist,
    configuration,
    path_from_legs,
    path_min_separation,
)
from fig8plan.planner import plan, validate_plan
from fig8plan.retraction import region_corner, retract, retract_flat
from fig8plan.spine import (
    CHAIN_CIRCLES,
    ChainPoint,
    chain_point,
    chain_to_config,
    chart_on_spine,
    vertex_point,
)
from fig8plan.verify import chain_oracle

from spine_reference import spine_image

coords = st.floats(min_value=0.001, max_value=0.999, allow_nan=False)


def _leg_end(r):
    """The configuration a retraction leg stops at."""
    leg = r.leg
    return configuration(leg.circle1, leg.a1, leg.circle2, leg.b1)


def _leg_end_on_spine(r):
    leg = r.leg
    return chart_on_spine(leg.circle1 == leg.circle2, leg.a1, leg.b1)


def test_region_corner():
    assert region_corner("AA", 0.1, 0.3) == (0, 1)
    assert region_corner("AA", 0.3, 0.1) == (1, 0)
    assert region_corner("BB", 0.7, 0.9) == (0, 1)
    assert region_corner("AB", 0.2, 0.3) == (0, 0)
    assert region_corner("AB", 0.7, 0.2) == (1, 0)
    assert region_corner("BA", 0.6, 0.8) == (1, 1)


def test_retract_flat_frozen_same_circle():
    a, b, scale = retract_flat("AA", 0.1, 0.3)
    assert (a, b) == (0.0625, 0.5625)
    assert scale == pytest.approx(0.625)


def test_retract_flat_frozen_mixed():
    a, b, scale = retract_flat("AB", 0.2, 0.3)
    assert a == pytest.approx(1.0 / 3.0)
    assert b == 0.5
    assert scale == pytest.approx(5.0 / 3.0)


def test_retract_far_corner_pulls_inward():
    # Beyond the sub-diagonal the scale drops below 1: the image sits between
    # the input and the reference corner.
    a, b, scale = retract_flat("AA", 0.7, 0.9)
    assert scale == pytest.approx(0.625)
    assert a == pytest.approx(0.4375)
    assert b == pytest.approx(0.9375)


def test_spine_points_are_fixed():
    for square, a, b in (
        ("AB", 0.3, 0.5),
        ("AB", 0.5, 0.8),
        ("AA", 0.2, 0.7),
        ("BB", 0.9, 0.4),
    ):
        assert retract_flat(square, a, b) == (a, b, 1.0)


def test_seeded_spine_configurations_retract_to_themselves():
    from random import Random

    from fig8plan.verify import random_chain_point

    rng = Random(17)
    spine = [chain_to_config(random_chain_point(rng, vertex_prob=0.2)) for _ in range(500)]
    # the goal of the same-circle demo plan: its image used to move by one ulp
    spine.append(configuration("A", 0.8, "A", 0.3))
    for c in spine:
        r = retract(c)
        assert r.scale == 1.0
        assert _leg_end(r) == c
        assert r.leg.sweep == 0.0
        assert config_dist(chain_to_config(r.point), c) <= 1e-15


def test_center_state_rule():
    # A robot parked at the center stays; the free robot goes to its pole.
    r = retract(configuration("A", 0.0, "B", 0.3))
    assert r.point == vertex_point("HB")
    assert chart(chain_to_config(r.point)) == ("AB", 0.0, 0.5)
    assert _leg_end(r) == configuration("A", 0.0, "B", 0.5)
    r = retract(configuration("A", 0.3, "A", 0.0))
    assert r.point == vertex_point("VA")
    assert chart(chain_to_config(r.point)) == ("AB", 0.5, 0.0)
    assert _leg_end(r) == configuration("A", 0.5, "A", 0.0)


def test_near_vertex_leg_ends_on_the_vertex():
    # Both images lie within EPS of VA and snap onto it; the legs used to end
    # on the unsnapped images, 2 EPS apart, so the plan broke at a junction.
    start = configuration("A", 0.2668, "A", 1e-10)
    goal = configuration("A", 0.5000000000001, "A", 0.999999999)
    for c in (start, goal):
        r = retract(c)
        assert r.point == vertex_point("VA")
        leg = r.leg
        assert leg.circle1 + leg.circle2 == chart(c)[0]
        assert configuration(leg.circle1, leg.a1, leg.circle2, leg.b1) == chain_to_config(r.point)
    validate_plan(plan(start, goal))


def test_points_next_to_removed_corners_retract_with_finite_scale():
    # Next to a removed corner or the diagonal the scale is large (or, by
    # the diagonal, about 1/2) but finite, and the image is on the spine.
    # SNAP_EPS = 1e-12 is as close to the center as a coordinate may be.
    for c in (
        configuration("A", 1e-12, "B", 1e-12),
        configuration("A", 1e-12, "A", 1.0 - 2e-12),
        configuration("A", 0.3, "A", 0.3 + 1e-13),
    ):
        r = retract(c)
        assert math.isfinite(r.scale) and r.scale > 0.5
        assert _leg_end_on_spine(r)
    # The largest scale a configuration reaches is 1 / (2 SNAP_EPS) = 5e11.
    assert retract(configuration("A", 1e-12, "B", 1e-12)).scale == pytest.approx(5e11)
    assert 1e11 < retract(configuration("A", 1e-12, "A", 1.0 - 2e-12)).scale < 5e11


def _knife_edge_coords():
    """The center, poles and quarter points, offset by up to 1e-6 either way
    and moved one ulp either way, plus k/37."""
    values = {k / 37 for k in range(37)}
    for base in (0.0, 0.25, 0.5, 0.75, 1.0):
        for offset in (0.0, 1e-12, 2e-12, 1e-9, 2e-9, 1e-6):
            for v in (base - offset, base + offset):
                values |= {math.nextafter(v, -1.0), v, math.nextafter(v, 2.0)}
    return sorted(v for v in values if 0.0 <= v < 1.0)


def test_retract_point_matches_reidentified_image():
    # The ray's branch names the spine line and its angle is snapped once.
    # Reference: rebuild the unrounded image as a configuration, which snaps
    # center values, chart it, which may switch squares, and find its line
    # again with EPS tests (spine_image).  The two must agree at every knife
    # edge.
    coords = _knife_edge_coords()
    n = 0
    for c1, c2 in itertools.product("AB", repeat=2):
        for x, y in itertools.product(coords, repeat=2):
            try:
                c = configuration(c1, x, c2, y)
            except (DomainError, CollisionError):
                continue
            square, a0, b0 = chart(c)
            a, b, _ = retract_flat(square, a0, b0)
            image = configuration(square[0], a, square[1], b)
            assert retract(c).point == spine_image(*chart(image)), c
            n += 1
    assert n > 100_000


def test_retraction_fixes_every_spine_point():
    # The retraction fixes the spine exactly: every spine point, charted as a
    # configuration, retracts to itself, also at angles a hair off a vertex,
    # where chain_point's EPS snap and the configuration's SNAP_EPS snap meet.
    from random import Random

    thetas = set()
    for base in (0.0, 0.25, 0.5, 0.75, 1.0):
        for offset in (0.0, 1e-13, 1e-12, 2e-12, 5e-10, 1e-9, 2e-9, 1e-6, 1e-3):
            for v in (base - offset, base + offset):
                down = up = v
                thetas.add(v)
                for _ in range(2):  # and 1 or 2 ulps either way
                    down, up = math.nextafter(down, -1.0), math.nextafter(up, 2.0)
                    thetas |= {down, up}
    thetas = sorted(t for t in thetas if 0.0 <= t < 1.0)
    rng = Random(20261019)
    thetas += [rng.random() for _ in range(20_000)]
    n = 0
    for circle in CHAIN_CIRCLES:
        for theta in thetas:
            p = chain_point(circle, theta)
            assert retract(chain_to_config(p)).point == p, (circle, theta)
            n += 1
    assert n > 120_000


# Coordinates at and around the center, the poles and the quarter points.
edge_coords = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.sampled_from((0.0, 5e-324, 1e-13, 1e-12, 2e-12, 0.25, 0.5, 0.75, 1.0 - 2e-12, 1.0 - 1e-16)),
    st.builds(lambda base, k: base + k * 1e-12, st.sampled_from((0.0, 0.5, 1.0)), st.integers(-3, 3)),
)


@given(st.sampled_from(("AA", "BB", "AB", "BA")), edge_coords, edge_coords)
def test_retract_flat_is_finite_for_every_admissible_flat(square, a, b):
    try:
        c = configuration(square[0], a, square[1], b)
    except (DomainError, CollisionError):
        return
    image_a, image_b, scale = retract_flat(*chart(c))
    assert all(math.isfinite(v) for v in (image_a, image_b, scale))
    assert 0.0 <= image_a <= 1.0 and 0.0 <= image_b <= 1.0
    assert 0.5 <= scale <= 1.0 / (2.0 * SNAP_EPS)


@given(st.sampled_from(("AA", "BB")), coords, coords)
def test_same_circle_image_on_spine(square, a, b):
    if abs(a - b) < 1e-6 or abs(a - b) > 1.0 - 1e-6:
        return
    r = retract(configuration(square[0], a, square[1], b))
    assert _leg_end_on_spine(r)
    assert 0.5 < r.scale
    again = retract(chain_to_config(r.point))
    assert again.scale == 1.0
    assert again.point == r.point


@given(st.sampled_from(("AB", "BA")), coords, coords)
def test_mixed_image_on_spine(square, a, b):
    r = retract(configuration(square[0], a, square[1], b))
    assert _leg_end_on_spine(r)
    assert r.scale >= 1.0
    again = retract(chain_to_config(r.point))
    assert again.scale == 1.0
    assert again.point == r.point


@given(st.sampled_from(("AA", "BB", "AB", "BA")), coords, coords)
def test_trace_runs_input_to_image_collision_free(square, a, b):
    if square in ("AA", "BB") and (abs(a - b) < 1e-6 or abs(a - b) > 1.0 - 1e-6):
        return
    c = configuration(square[0], a, square[1], b)
    r = retract(c)
    trace = path_from_legs([r.leg])
    assert config_dist(configuration(*trace.chart_at(0.0)), c) < 1e-9
    assert config_dist(configuration(*trace.chart_at(1.0)), chain_to_config(r.point)) < 1e-9
    assert path_min_separation(trace) > 0.0


def test_trace_is_constant_on_spine():
    c = chain_to_config(ChainPoint("H1", 0.3))
    r = retract(c)
    assert r.scale == 1.0
    assert r.leg.sweep < 1e-12


def test_gluing_continuity_center_seam():
    # Robot 1 crosses the center from circle A to circle B; the images must
    # stay close even though the charts jump between squares.
    delta = 1e-6
    r2 = ("B", 0.75)
    x = retract(configuration("A", delta, *r2)).point
    y = retract(configuration("B", delta, *r2)).point
    gap = config_dist(configuration("A", delta, *r2), configuration("B", delta, *r2))
    assert chain_oracle([(x, y)])[0] <= 50.0 * gap


def test_gluing_continuity_same_circle_seam():
    # Robot 2 crosses the center while robot 1 stays on circle A: the chart
    # square flips between AA and AB.
    delta = 1e-6
    x = retract(configuration("A", 0.3, "A", 1.0 - delta)).point
    y = retract(configuration("A", 0.3, "B", delta)).point
    gap = 2.0 * delta
    assert chain_oracle([(x, y)])[0] <= 50.0 * gap


def test_gluing_continuity_across_diagonal_band():
    # Nearby points on either side of a sub-diagonal retract to nearby images.
    delta = 1e-6
    x = retract(configuration("A", 0.2, "A", 0.7 - delta)).point
    y = retract(configuration("A", 0.2, "A", 0.7 + delta)).point
    assert chain_oracle([(x, y)])[0] <= 50.0 * (2.0 * delta)


def test_spine_config_matches_point():
    r = retract(configuration("A", 0.1, "A", 0.3))
    assert _leg_end(r) == chain_to_config(r.point)


def test_retract_never_hands_retract_flat_a_glued_same_circle_edge(monkeypatch):
    # chart() puts a robot at the center in a mixed square, so retract never
    # evaluates a same-circle chart at 0 or 1, where the formula leaves the
    # square: retract_flat("AA", 1e-12, 1.0) lies outside it, at scale 5e11.
    # Every center/other-robot combination, on one circle and across, and the
    # points of the edge_coords grid.
    calls = []
    original = retraction.retract_flat

    def spy(square, a, b):
        calls.append((square, a, b))
        return original(square, a, b)

    monkeypatch.setattr(retraction, "retract_flat", spy)
    grid = {0.0, 5e-324, 1e-13, 1e-12, 2e-12, 0.25, 0.5, 0.75, 1.0 - 2e-12, 1.0 - 1e-16}
    grid |= {base + k * 1e-12 for base in (0.0, 0.5, 1.0) for k in range(-3, 4)}
    grid |= {k / 37 for k in range(37)}
    grid = sorted(v for v in grid if 0.0 <= v < 1.0)
    n = 0
    for c1, c2 in itertools.product("AB", repeat=2):
        for x, y in itertools.product(grid, repeat=2):
            try:
                c = configuration(c1, x, c2, y)
            except (DomainError, CollisionError):
                continue
            retract(c)
            n += 1
    assert n > 5000
    centers = [c for c in calls if 0.0 in c[1:]]
    assert {square for square, _, _ in centers} == {"AB", "BA"}
    glued = [c for c in calls if c[0] in ("AA", "BB") and {0.0, 1.0} & set(c[1:])]
    assert not glued, glued[:5]
