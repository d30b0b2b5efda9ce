"""Track coordinates, square charts, and piecewise-linear trajectories."""

import math

import pytest
from hypothesis import given, strategies as st

from fig8plan.errors import CollisionError, ContractError, DomainError
from fig8plan.geometry import (
    EPS,
    ChartLeg,
    CirclePoint,
    Configuration,
    PathSegment,
    PhysPath,
    certify_path,
    chart,
    circle_point,
    config_dist,
    configuration,
    constant_path,
    dist_gamma,
    parse_position,
    path_from_legs,
    path_min_separation,
    path_sup_distance,
)
from fig8plan.planner import InstructionDomain, plan, validate_plan
from fig8plan.spine import CHAIN_VERTICES, VERTEX_CONFIG
from fig8plan.verify import _probe_path_pairs, kink_min_separation

from certify_alone import certify_alone

circles = st.sampled_from(("A", "B"))
arcs = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
points = st.builds(circle_point, circles, arcs)


def test_circle_point_canonicalizes_center():
    assert circle_point("B", 0.0) == CirclePoint("A", 0.0)
    assert circle_point("B", 1.0 - 1e-13) == CirclePoint("A", 0.0)


def test_circle_point_rejects_out_of_range():
    with pytest.raises(DomainError):
        CirclePoint("A", 1.0)
    with pytest.raises(DomainError):
        CirclePoint("A", -0.25)
    with pytest.raises(DomainError):
        CirclePoint("C", 0.5)
    # within SNAP_EPS of the center: circle_point reads these as the center
    for s in (1e-310, 1e-13, 1.0 - 1e-13):
        with pytest.raises(DomainError):
            CirclePoint("A", s)


def test_dist_gamma_frozen_values():
    # Same circle: plain circle metric.
    assert dist_gamma(CirclePoint("A", 0.1), CirclePoint("A", 0.9)) == pytest.approx(0.2)
    # Different circles: both robots route through the center.
    assert dist_gamma(CirclePoint("A", 0.1), CirclePoint("B", 0.2)) == pytest.approx(0.3)
    assert dist_gamma(CirclePoint("A", 0.7), CirclePoint("B", 0.6)) == pytest.approx(0.7)
    # The two poles are the farthest pair on the track.
    assert dist_gamma(CirclePoint("A", 0.5), CirclePoint("B", 0.5)) == pytest.approx(1.0)
    assert dist_gamma(CirclePoint("A", 0.0), CirclePoint("B", 0.3)) == pytest.approx(0.3)


@given(points, points)
def test_dist_gamma_symmetric(p, q):
    assert dist_gamma(p, q) == pytest.approx(dist_gamma(q, p))


@given(points, points)
def test_dist_gamma_bounds(p, q):
    d = dist_gamma(p, q)
    assert 0.0 <= d <= 1.0
    if p == q:
        assert d == 0.0


@given(points, points, points)
def test_dist_gamma_triangle(p, q, r):
    assert dist_gamma(p, r) <= dist_gamma(p, q) + dist_gamma(q, r) + 1e-12


def test_configuration_rejects_collision_and_noncanonical():
    with pytest.raises(CollisionError):
        configuration("A", 0.25, "A", 0.25)
    with pytest.raises(CollisionError):
        configuration("A", 0.0, "B", 0.0)
    with pytest.raises(DomainError):
        Configuration(CirclePoint("B", 0.0), CirclePoint("B", 0.25))


def test_config_to_flat_center_goes_to_mixed_square():
    # Center robot takes the letter opposite the other robot's circle.
    assert chart(configuration("B", 0.0, "B", 0.4)) == ("AB", 0.0, 0.4)
    assert chart(configuration("A", 0.3, "A", 0.0)) == ("AB", 0.3, 0.0)
    assert chart(configuration("A", 0.0, "A", 0.4)) == ("BA", 0.0, 0.4)
    # a raw 1 or a value within SNAP_EPS of the center reads 0
    assert chart(configuration("A", 0.3, "A", 1.0)) == ("AB", 0.3, 0.0)
    assert chart(configuration("B", 1e-13, "A", 0.25)) == ("BA", 0.0, 0.25)


@given(circles, arcs, circles, arcs)
def test_flat_roundtrip(c1, s1, c2, s2):
    try:
        c = configuration(c1, s1, c2, s2)
    except CollisionError:
        return
    square, a, b = chart(c)
    assert configuration(square[0], a, square[1], b) == c


@given(points, points, points)
def test_config_dist_is_max_metric(p1, p2, q1):
    # Built from two point metrics, so it inherits symmetry.
    try:
        x = Configuration(p1, p2)
        y = Configuration(p2, q1)
    except (CollisionError, DomainError):
        return
    assert config_dist(x, y) == pytest.approx(config_dist(y, x))
    assert config_dist(x, y) <= 1.0


def test_parse_position():
    assert parse_position("A:0.25") == CirclePoint("A", 0.25)
    assert parse_position("B:0") == CirclePoint("A", 0.0)
    assert parse_position("B:0.5") == CirclePoint("B", 0.5)
    for bad in ("A:1", "A:1.0", "a:0.2", "A-0.2", "A:", ":0.3", "A:0..2", "A:nan", "C:0.1", "A:-0.1"):
        with pytest.raises(DomainError):
            parse_position(bad)


# -- trajectories -----------------------------------------------------------


def test_segment_rejects_interior_critical_crossing():
    with pytest.raises(ContractError, match="split required"):
        certify_alone(PhysPath((PathSegment(0.0, 1.0, "A", 0.2, 0.8, "B", 0.3, 0.3),)))
    # Touching the pole at an endpoint is fine.
    certify_alone(PhysPath((PathSegment(0.0, 1.0, "A", 0.2, 0.5, "B", 0.3, 0.3),)))


def test_segment_rejects_diagonal_crossing():
    # The form is sound and both ends are right; the exact separation finds
    # the robots passing.
    path = PhysPath((PathSegment(0.0, 1.0, "A", 0.2, 0.4, "A", 0.45, 0.25),))
    with pytest.raises(ContractError, match=r"^path separation dropped to 0\.0$"):
        certify_path(path, configuration("A", 0.2, "A", 0.45), configuration("A", 0.4, "A", 0.25))


def _readme_and_vertex_plans():
    yield plan(configuration("A", 0.3, "B", 0.7), configuration("B", 0.25, "A", 0.6))
    for u in CHAIN_VERTICES:
        for v in CHAIN_VERTICES:
            yield plan(VERTEX_CONFIG[u], VERTEX_CONFIG[v])


def test_certify_path_is_validate_plans_certificate():
    # validate_plan returns certify_path's (endpoint error, separation) bit
    # for bit, on the README plan and the 36 vertex pairs
    for p in _readme_and_vertex_plans():
        got = certify_path(p.path, p.start, p.goal)
        assert [x.hex() for x in got] == [x.hex() for x in validate_plan(p)]


def test_certify_path_refuses_a_missed_goal():
    # the last waypoint EPS / 2 or 2 EPS short of the goal: form and
    # separation pass, and the end check refuses the miss past EPS
    p = plan(configuration("A", 0.3, "B", 0.7), configuration("B", 0.25, "A", 0.6))
    *rest, last = p.path.segments
    near = PhysPath((*rest, last._replace(b1=last.b1 - 0.5 * EPS)))
    assert certify_path(near, p.start, p.goal)[0] == pytest.approx(0.5 * EPS)
    short = PhysPath((*rest, last._replace(b1=last.b1 - 2 * EPS)))
    with pytest.raises(ContractError, match=r"^endpoint err 2\.000e-09: the path runs "):
        certify_path(short, p.start, p.goal)
    assert certify_path(short, p.start, configuration(*short.chart_at(1.0)))[0] == 0.0


def test_path_from_legs_splits_at_pole():
    path = path_from_legs([ChartLeg("A", 0.2, 0.8, "B", 0.25, 0.25)])
    assert len(path.segments) == 2
    assert path.segments[0].a1 == 0.5
    assert path.segments[0].t1 == pytest.approx(0.5)
    mid = configuration(*path.chart_at(0.25))
    assert mid.p1.circle == "A" and mid.p1.s == pytest.approx(0.35)
    assert configuration(*path.chart_at(0.0)) == configuration("A", 0.2, "B", 0.25)
    assert configuration(*path.chart_at(1.0)) == configuration("A", 0.8, "B", 0.25)


def test_path_from_legs_splits_at_center():
    # Passing through the center means two chart legs meeting at 1 ~ 0.
    path = path_from_legs(
        [
            ChartLeg("A", 0.8, 1.0, "B", 0.25, 0.25),
            ChartLeg("B", 0.0, 0.2, "B", 0.25, 0.25),
        ]
    )
    assert configuration(*path.chart_at(0.0)) == configuration("A", 0.8, "B", 0.25)
    assert configuration(*path.chart_at(1.0)) == configuration("B", 0.2, "B", 0.25)
    junction = configuration(*path.chart_at(0.5))
    assert junction.p1 == CirclePoint("A", 0.0)


def test_path_from_legs_keeps_leg_endpoints_exact():
    # A value 1e-13 short of the pole used to be pulled onto it.
    path = path_from_legs([ChartLeg("A", 0.2, 0.3, "B", 1e-9, 0.4999999999999)])
    assert configuration(*path.chart_at(1.0)) == configuration("A", 0.3, "B", 0.4999999999999)
    # At a cut the crossing coordinate takes the critical value exactly.
    path = path_from_legs([ChartLeg("A", 0.3, 0.7, "B", 0.1, 0.2)])
    assert [(seg.a0, seg.a1) for seg in path.segments] == [(0.3, 0.5), (0.5, 0.7)]
    assert configuration(*path.chart_at(1.0)) == configuration("A", 0.7, "B", 0.2)


def test_path_from_legs_drops_sub_resolution_pieces():
    # A last leg of 1e-13 after a sweep of 0.3 used to become a segment from
    # t = 0.99999999999967 to 1, which rounds to a repeated t = 1 in JSON.
    path = path_from_legs(
        [
            ChartLeg("A", 0.1, 0.4, "B", 0.3, 0.3),
            ChartLeg("A", 0.4, 0.4 + 1e-13, "B", 0.3, 0.3),
        ]
    )
    assert [(seg.t0, seg.t1) for seg in path.segments] == [(0.0, 1.0)]
    end = configuration(*path.chart_at(1.0))
    assert config_dist(end, configuration("A", 0.4 + 1e-13, "B", 0.3)) <= 1e-13


def test_min_separation_frozen_values():
    path = path_from_legs([ChartLeg("A", 0.2, 0.8, "B", 0.25, 0.25)])
    # Robot 1 sweeps through its pole while robot 2 parks a quarter turn into B.
    assert path_min_separation(path) == pytest.approx(0.45)
    assert kink_min_separation(path) == pytest.approx(0.45)
    apart = constant_path(configuration("A", 0.1, "A", 0.6))
    assert path_min_separation(apart) == pytest.approx(0.5)


def test_min_separation_worst_case_interior():
    # Head-on approach that stops short: closest at the final waypoint.
    path = path_from_legs([ChartLeg("A", 0.2, 0.4, "A", 0.6, 0.45)])
    assert path_min_separation(path) == pytest.approx(0.05)
    assert kink_min_separation(path) == pytest.approx(0.05)


def test_min_separation_sees_crossing_between_samples():
    # Robot 2 passes robot 1 at u ~ 7e-14, inside SNAP_EPS of the segment's
    # start, and the path's form is sound; no evenly spaced sample lands
    # before the crossing, but the kink oracle reads the distance where d = 0.
    path = PhysPath((PathSegment(0.0, 1.0, "A", 0.3, 0.3, "A", 0.3 - 1e-14, 0.45),))
    assert kink_min_separation(path) == 0.0
    assert path_min_separation(path) == 0.0
    with pytest.raises(ContractError, match="path separation dropped to 0.0"):
        certify_alone(path)


def test_waypoints_are_derived_from_the_segments():
    # A path stores only its segments; the configuration at each waypoint is
    # read off them.
    path = path_from_legs([ChartLeg("A", 0.2, 0.8, "B", 0.25, 0.25)])
    assert path == (path.segments,)
    assert configuration(*path.chart_at(0.0)) == configuration("A", 0.2, "B", 0.25)
    assert configuration(*path.chart_at(1.0)) == configuration("A", 0.8, "B", 0.25)
    assert [s.t0 for s in path.segments] + [1.0] == [0.0, path.segments[0].t1, 1.0]
    assert configuration(*path.chart_at(path.segments[0].t1)) == configuration("A", 0.5, "B", 0.25)


def test_constant_path_and_concat_identity():
    # A parked leg glued in front of a moving one costs no time.
    leg = ChartLeg("A", 0.2, 0.45, "B", 0.25, 0.3)
    path = path_from_legs([leg])
    start = configuration(*path.chart_at(0.0))
    still = constant_path(start)
    assert configuration(*still.chart_at(0.0)) == configuration(*still.chart_at(1.0)) == start
    glued = path_from_legs([ChartLeg("A", 0.2, 0.2, "B", 0.25, 0.25), leg])
    assert path_sup_distance(glued, path) < 1e-12
    for t in (0.0, 1.0):
        assert configuration(*glued.chart_at(t)) == configuration(*path.chart_at(t))


def test_concat_rejects_junction_mismatch():
    legs = [
        ChartLeg("A", 0.1, 0.2, "B", 0.25, 0.25),
        ChartLeg("A", 0.21, 0.3, "B", 0.25, 0.25),
    ]
    with pytest.raises(ContractError, match="disagree across a junction"):
        certify_alone(path_from_legs(legs))


def test_concat_joins_at_pole_waypoint():
    whole = path_from_legs(
        [
            ChartLeg("A", 0.25, 0.5, "B", 0.25, 0.25),
            ChartLeg("A", 0.5, 0.75, "B", 0.25, 0.25),
        ]
    )
    assert configuration(*whole.chart_at(0.0)) == configuration("A", 0.25, "B", 0.25)
    assert configuration(*whole.chart_at(1.0)) == configuration("A", 0.75, "B", 0.25)
    assert configuration(*whole.chart_at(0.5)).p1 == CirclePoint("A", 0.5)


def sampled_sup_distance(p: PhysPath, q: PhysPath, n: int = 256) -> float:
    """Reference for path_sup_distance: the largest distance at n sample times."""
    worst = 0.0
    step = 1.0 / (n - 1)
    for k in range(n):
        t = k * step
        d = config_dist(configuration(*p.chart_at(t)), configuration(*q.chart_at(t)))
        if d > worst:
            worst = d
    return worst


def test_sup_distance_frozen_value():
    fwd = path_from_legs([ChartLeg("A", 0.0, 0.5, "B", 0.25, 0.25)])
    bwd = path_from_legs([ChartLeg("A", 0.5, 0.0, "B", 0.25, 0.25)])
    # Half-sweeps in opposite directions are farthest apart at the ends.
    assert path_sup_distance(fwd, bwd) == pytest.approx(0.5)
    assert sampled_sup_distance(fwd, bwd, 257) == pytest.approx(0.5)


def test_sup_distance_sees_maximum_between_samples():
    # Robot 1 runs 0.1 -> 0.4 on one path and 0.9 -> 0.6 on the other: the
    # two are half a circle apart at t = 1/2 only, which no sample k/255 hits.
    p = path_from_legs([ChartLeg("A", 0.1, 0.4, "B", 0.25, 0.25)])
    q = path_from_legs([ChartLeg("A", 0.9, 0.6, "B", 0.25, 0.25)])
    assert path_sup_distance(p, q) == 0.5
    assert sampled_sup_distance(p, q) < 0.499


def test_sup_distance_sees_maximum_at_a_junction():
    # Robot 1 turns back at t = 3/7, where it is farthest from the parked
    # robot; no sample k/255 hits that junction.
    there_and_back = path_from_legs(
        [
            ChartLeg("A", 0.1, 0.4, "B", 0.25, 0.25),
            ChartLeg("A", 0.4, 0.0, "B", 0.25, 0.25),
        ]
    )
    parked = constant_path(configuration("A", 0.1, "B", 0.25))
    assert there_and_back.segments[0].t1 == pytest.approx(3.0 / 7.0)
    exact = path_sup_distance(there_and_back, parked)
    assert exact == pytest.approx(0.3, abs=1e-15)
    assert path_sup_distance(parked, there_and_back) == exact
    assert sampled_sup_distance(there_and_back, parked) < exact - 5e-4


def _continuity_path_pairs():
    for domain in (InstructionDomain.U1, InstructionDomain.U2):
        for seed in (0, 1):
            for _, p, q in _probe_path_pairs(domain, seed, 4):
                yield p, q
    # U3 has no nearby inputs; neighbouring vertex pairs give paths with
    # different junctions.
    u3 = [plan(VERTEX_CONFIG[u], VERTEX_CONFIG[v]).path for u in CHAIN_VERTICES for v in CHAIN_VERTICES]
    yield from zip(u3, u3[1:])


def test_sup_distance_matches_sampled_reference():
    count = 0
    for p, q in _continuity_path_pairs():
        exact = path_sup_distance(p, q)
        sampled = sampled_sup_distance(p, q)
        assert exact >= sampled - 1e-15
        assert abs(exact - sampled) <= 1e-12
        count += 1
    # 2 seeds x 3 deltas x 4 samples x (4 U1 or 2 U2 perturbations), 35 U3
    assert count == 96 + 48 + 35


def test_segment_times_are_left_to_right_partial_sums():
    # Ten legs of sweep 0.1: added left to right they total 0.9999999999999999,
    # while a compensated sum (builtin sum() from Python 3.12 on) gives 1.0.
    legs = [ChartLeg("A", 0.1, 0.2, "B", 0.25, 0.25), ChartLeg("A", 0.2, 0.1, "B", 0.25, 0.25)] * 5
    assert all(leg.sweep == 0.1 for leg in legs)
    partial = [0.0]
    for leg in legs:
        partial.append(partial[-1] + leg.sweep)
    total = partial[-1]
    assert total != math.fsum(leg.sweep for leg in legs)
    path = path_from_legs(legs)
    assert [seg.t1 for seg in path.segments] == [acc / total for acc in partial[1:-1]] + [1.0]


def test_waypoints_are_time_ordered():
    path = path_from_legs(
        [
            ChartLeg("A", 0.1, 0.5, "B", 0.25, 0.25),
            ChartLeg("A", 0.5, 0.9, "B", 0.25, 0.25),
        ]
    )
    times = [0.0] + [s.t1 for s in path.segments]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_config_at_stays_collision_free(t):
    path = path_from_legs(
        [
            ChartLeg("A", 0.8, 1.0, "B", 0.25, 0.4),
            ChartLeg("B", 0.0, 0.2, "B", 0.4, 0.45),
        ]
    )
    c = configuration(*path.chart_at(t))
    assert dist_gamma(*c) > 0.0


def test_config_at_is_exact_at_segment_ends():
    # Interpolating at t = 1 would round a0 + (a1 - a0) away from 1e-12;
    # below SNAP_EPS that reads as the center, here a collision.
    path = path_from_legs([ChartLeg("A", 0.5, 1e-12, "B", 0.5, 0.0)])
    assert configuration(*path.chart_at(0.0)) == configuration("A", 0.5, "B", 0.5)
    assert configuration(*path.chart_at(1.0)) == configuration("A", 1e-12, "A", 0.0)
    drift = path_from_legs([ChartLeg("A", 0.2, 1e-12, "B", 0.5, 0.0)])
    assert configuration(*drift.chart_at(1.0)).p1.s == 1e-12


def test_config_at_rejects_times_outside_the_unit_interval():
    path = path_from_legs([ChartLeg("A", 0.2, 0.8, "B", 0.25, 0.25)])
    for t in (-1e-12, 1.0 + 1e-12):
        with pytest.raises(DomainError, match="outside"):
            path.chart_at(t)


def test_physpath_requires_unit_interval():
    seg = PathSegment(0.0, 0.5, "A", 0.2, 0.3, "B", 0.25, 0.25)
    with pytest.raises(ContractError, match="times must run to 1"):
        certify_alone(PhysPath((seg,)))


def test_sweep_totals():
    path = path_from_legs([ChartLeg("A", 0.2, 0.8, "B", 0.25, 0.25)])
    assert sum(max(abs(s.a1 - s.a0), abs(s.b1 - s.b0)) for s in path.segments) == pytest.approx(0.6)
    still = constant_path(configuration("A", 0.1, "B", 0.2))
    assert math.isclose(sum(max(abs(s.a1 - s.a0), abs(s.b1 - s.b0)) for s in still.segments), 0.0)
