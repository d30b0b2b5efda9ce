"""Domain classification, the spine walk, and assembled plans."""

import itertools
import json
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from fig8plan.errors import ContractError
from fig8plan.geometry import (
    CIRCLES,
    EPS,
    SNAP_EPS,
    ChartLeg,
    Configuration,
    PathSegment,
    PhysPath,
    chart,
    chart_config_dist,
    config_dist,
    configuration,
    parse_position,
    path_min_separation,
    path_sup_distance,
    reads_as_center,
)
from fig8plan.planner import (
    InstructionDomain,
    classify_domain,
    plan,
    plan_steps,
    plan_to_json,
    validate_plan,
)
from fig8plan.retraction import retract
from fig8plan.spine import (
    CHAIN_CIRCLES,
    CHAIN_VERTICES,
    VERTEX_CANONICAL,
    VERTEX_CONFIG,
    ChainPoint,
    arc_dist,
    arc_leg,
    arc_legs,
    chain_point,
    chain_to_config,
    shortest_arc,
    theta_on,
    vertex_point,
)
from fig8plan.verify import _knife_edge_chain_point, random_config

from spine_reference import on_spine

U1, U2, U3 = InstructionDomain.U1, InstructionDomain.U2, InstructionDomain.U3


def test_classify_domain():
    assert classify_domain(ChainPoint("R", 0.2), ChainPoint("H1", 0.3)) is U1
    assert classify_domain(ChainPoint("R", 0.2), ChainPoint("R", 0.45)) is U1
    assert classify_domain(ChainPoint("R", 0.2), ChainPoint("R", 0.7)) is U2
    assert classify_domain(vertex_point("HA"), ChainPoint("R", 0.3)) is U2
    assert classify_domain(ChainPoint("Bc", 0.9), vertex_point("C2")) is U2
    assert classify_domain(vertex_point("HA"), vertex_point("C1")) is U3
    assert classify_domain(vertex_point("VB"), vertex_point("VB")) is U3


def test_instruction1_frozen_walk():
    domain, moves = plan_steps(ChainPoint("R", 0.2), ChainPoint("H1", 0.3))
    assert domain is U1
    assert moves == [
        [ChartLeg("A", 0.2, 0.5, "A", 0.7, 1.0)],  # positive along R to VA
        [ChartLeg("A", 0.5, 0.5, "B", 0.0, 0.5)],  # positive along V1 to C1
        [ChartLeg("A", 0.5, 0.3, "B", 0.5, 0.5)],  # shortest arc along H1 to the goal
    ]


def test_instruction1_same_circle_direct():
    domain, moves = plan_steps(ChainPoint("Bc", 0.1), ChainPoint("Bc", 0.35))
    assert domain is U1
    assert moves == [[ChartLeg("B", 0.1, 0.35, "B", 0.6, 0.85)]]


def test_instruction1_worst_case_seven_hops():
    domain, moves = plan_steps(ChainPoint("R", 0.7), ChainPoint("H2", 0.25))
    assert domain is U1
    assert len(moves) == 7
    length = sum(leg.sweep for m in moves for leg in m)
    assert length == pytest.approx(3.05)


def test_instruction2_antipodal_goes_positive():
    domain, moves = plan_steps(ChainPoint("R", 0.2), ChainPoint("R", 0.7))
    assert domain is U2
    assert len(moves) == 1
    assert all(leg.a1 > leg.a0 for leg in moves[0])  # R is charted by a = theta
    assert sum(leg.sweep for leg in moves[0]) == pytest.approx(0.5)


def test_instruction2_vertex_start_frozen_walk():
    domain, moves = plan_steps(vertex_point("HA"), ChainPoint("Bc", 0.3))
    assert domain is U2
    assert moves == [
        [ChartLeg("A", 0.0, 0.5, "A", 0.5, 1.0)],  # R
        [ChartLeg("A", 0.5, 0.5, "B", 0.0, 0.5)],  # V1
        [ChartLeg("A", 0.5, 1.0, "B", 0.5, 0.5)],  # H1
        [ChartLeg("B", 0.0, 0.3, "B", 0.5, 0.8)],  # Bc
    ]


def test_instruction2_interior_to_vertex_uses_shared_circle():
    # HA sits on both R and H2; from an H2 interior the arc is direct.
    domain, moves = plan_steps(ChainPoint("H2", 0.9), vertex_point("HA"))
    assert domain is U2
    assert moves == [[ChartLeg("B", 0.9, 1.0, "A", 0.5, 0.5)]]


def test_instruction3_successor_ring():
    domain, moves = plan_steps(vertex_point("C1"), vertex_point("C2"))
    assert domain is U3
    # each circle's designated half-turn
    ring = {c: [arc_leg(c, t, t + 0.5)] for c, t in VERTEX_CANONICAL.values()}
    assert moves == [ring[c] for c in ("H1", "Bc", "V2")]
    assert sum(leg.sweep for m in moves for leg in m) == pytest.approx(1.5)
    # The ring's long way round: five hops, never six.
    _, moves = plan_steps(vertex_point("C1"), vertex_point("VA"))
    assert moves == [ring[c] for c in ("H1", "Bc", "V2", "H2", "R")]
    assert plan_steps(vertex_point("VB"), vertex_point("VB")) == (U3, [])


def test_instruction3_all_pairs_bounded():
    for u in CHAIN_VERTICES:
        for v in CHAIN_VERTICES:
            domain, moves = plan_steps(vertex_point(u), vertex_point(v))
            assert domain is U3
            assert len(moves) <= 5
            assert sum(leg.sweep for m in moves for leg in m) <= 2.5 + 1e-12


def _successor_walk(u: str, v: str):
    """Oracle: positive half-turns along each vertex's canonical circle."""
    cur, goal = vertex_point(u), vertex_point(v)
    moves = []
    for _ in range(6):
        if cur == goal:
            return moves
        circle, theta = VERTEX_CANONICAL[cur.vertex]
        moves.append(arc_legs(circle, theta, theta + 0.5, 1))
        cur = chain_point(circle, theta + 0.5)
    raise AssertionError(f"successor walk from {u} never reached {v}")


def test_vertex_pairs_walk_the_successor_cycle():
    for u in CHAIN_VERTICES:
        for v in CHAIN_VERTICES:
            assert plan_steps(vertex_point(u), vertex_point(v)) == (U3, _successor_walk(u, v))


def _walk(start: ChainPoint, goal: ChainPoint, positive_ties: bool) -> list[list]:
    """Oracle: the spine walk as a hop loop.

    From the current point, ride the final arc when the goal lies on the
    current circle, else hop positively to the next vertex and repeat.  The
    positive_ties flag forces half-turn final arcs to run positively instead
    of leaving the choice to the shortest-arc tie break.
    """
    cur = start
    moves = []
    for _ in range(8):
        if cur == goal:
            return moves
        circle = cur.circle
        goal_theta = theta_on(circle, goal)
        if goal_theta is not None:
            if positive_ties and abs(arc_dist(cur.theta, goal_theta) - 0.5) <= EPS:
                direction = 1
            else:
                direction, _ = shortest_arc(cur.theta, goal_theta)
            legs = arc_legs(circle, cur.theta, goal_theta, direction)
            if legs:
                moves.append(legs)
            return moves
        target = 0.5 if cur.theta < 0.5 else 0.0
        legs = arc_legs(circle, cur.theta, target, 1)
        if legs:
            moves.append(legs)
        cur = chain_point(circle, target)
    raise AssertionError("spine walk exceeded its hop budget")


# Angles at and around the knife edges of the walk: the EPS snap of
# chain_point (strict) against the EPS half-turn tie (inclusive), both sides
# of every vertex, and two plain interior angles.
_KNIFE_EDGE_ANGLES = sorted(
    {
        x
        for base in (EPS, 0.5 - EPS, 0.5 + EPS, 1.0 - EPS, 0.5 - 2e-9, 0.5 + 2e-9, 2e-9,
                     1.0 - 2e-9, 0.25, 0.75)
        for x in (math.nextafter(base, 0.0), base, math.nextafter(base, 1.0))
    }
)
_KNIFE_EDGE_POINTS = [vertex_point(v) for v in CHAIN_VERTICES] + [
    ChainPoint(circle, theta) for circle in CHAIN_CIRCLES for theta in _KNIFE_EDGE_ANGLES
]


def _inexact_joins(moves) -> list:
    """The consecutive legs of a walk whose junction is not exact: the next
    leg's start measured against the previous leg's end."""
    legs = [leg for move in moves for leg in move]
    return [
        (prev, nxt)
        for prev, nxt in zip(legs, legs[1:])
        if chart_config_dist(
            nxt.circle1, nxt.a0, nxt.circle2, nxt.b0,
            configuration(prev.circle1, prev.a1, prev.circle2, prev.b1),
        ) != 0.0
    ]


def test_ring_walk_matches_the_hop_loop_on_knife_edge_pairs():
    assert len(_KNIFE_EDGE_POINTS) == 186
    for x in _KNIFE_EDGE_POINTS:
        for y in _KNIFE_EDGE_POINTS:
            domain, moves = plan_steps(x, y)
            assert domain is classify_domain(x, y)
            assert moves == _walk(x, y, positive_ties=domain is not U1), (x, y)
            assert len(moves) <= 7, (x, y)
            assert _inexact_joins(moves) == [], (x, y)


def test_ring_walk_matches_the_hop_loop_on_random_pairs():
    rng = Random(12)
    for _ in range(3000):
        x = chain_point(rng.choice(CHAIN_CIRCLES), rng.random())
        y = chain_point(rng.choice(CHAIN_CIRCLES), rng.random())
        domain, moves = plan_steps(x, y)
        assert moves == _walk(x, y, positive_ties=domain is not U1), (x, y)
        assert _inexact_joins(moves) == [], (x, y)


def test_ring_legs_stay_inside_one_half_chart():
    # A ring hop's leg never crosses the pole in its chart, so path_from_legs
    # never cuts it.
    ring_legs = {leg for u in CHAIN_VERTICES for v in CHAIN_VERTICES
                 for m in plan_steps(vertex_point(u), vertex_point(v))[1] for leg in m}
    assert len(ring_legs) == 6
    for leg in ring_legs:
        for lo, hi in ((leg.a0, leg.a1), (leg.b0, leg.b1)):
            assert 0.0 <= min(lo, hi) and max(lo, hi) <= 1.0
            assert max(lo, hi) <= 0.5 or min(lo, hi) >= 0.5, leg


def test_plan_end_to_end_u1():
    start = configuration("A", 0.1, "A", 0.3)
    goal = configuration("B", 0.2, "B", 0.6)
    p = plan(start, goal)
    assert p.domain is U1
    assert p.hop_count == 4
    assert config_dist(configuration(*p.path.chart_at(0.0)), start) <= 1e-9
    assert config_dist(configuration(*p.path.chart_at(1.0)), goal) <= 1e-9
    assert path_min_separation(p.path) > 0.0
    validate_plan(p)
    t0, t1 = p.spine_interval
    assert 0.0 < t0 < t1 < 1.0


def test_plan_identity_on_spine():
    c = chain_to_config(ChainPoint("H1", 0.3))
    p = plan(c, c)
    assert p.hop_count == 0
    assert len(p.path.segments) == 1
    assert config_dist(configuration(*p.path.chart_at(0.0)), c) == 0.0
    assert config_dist(configuration(*p.path.chart_at(1.0)), c) == 0.0
    validate_plan(p)


def test_plan_identity_off_spine_round_trips():
    # x -> r(x) -> x, the limit of plan(x, y) as y -> x in the same domain
    c = configuration("A", 0.1, "A", 0.3)
    p = plan(c, c)
    assert p.hop_count == 0
    assert configuration(*p.path.chart_at(0.0)) == c
    assert configuration(*p.path.chart_at(1.0)) == c
    assert p.spine_interval == (0.5, 0.5)
    assert configuration(*p.path.chart_at(0.5)) == chain_to_config(retract(c).point)
    validate_plan(p)


def _diagonal_ladder(x, nudge):
    """Exact sup distance between plan(x, x) and plan(x, nudge(delta)) for
    delta = 1e-3, 1e-6, 1e-9, each nearby plan in the diagonal's domain."""
    base = plan(x, x)
    rows = []
    for delta in (1e-3, 1e-6, 1e-9):
        nearby = plan(x, nudge(delta))
        assert nearby.domain is base.domain
        rows.append(path_sup_distance(base.path, nearby.path))
    return base.domain, rows


def test_plan_is_continuous_on_the_off_spine_diagonal():
    # The diagonal meets U1 (an interior image) and U3 (a vertex image); an
    # interior point is never antipodal to itself, so it does not meet U2.
    rng = Random(47)
    ladders = []
    while len(ladders) < 100:
        c1, c2 = rng.choice("AB"), rng.choice("AB")
        s1, s2 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        x = configuration(c1, s1, c2, s2)
        if not on_spine(*chart(x)):
            ladders.append(_diagonal_ladder(x, lambda d: configuration(c1, s1 + d, c2, s2)))
    for _ in range(20):
        # off-spine rays onto the vertices C1 (mixed-square diagonals) and HB
        s = rng.uniform(0.05, 0.4)
        for s2, sign in ((s, 1.0), (1.0 - s, -1.0)):
            ladders.append(
                _diagonal_ladder(
                    configuration("A", s, "B", s2),
                    lambda d: configuration("A", s + d, "B", s2 + sign * d),
                )
            )
        x = configuration("A", 0.0, "B", s)
        ladders.append(_diagonal_ladder(x, lambda d: configuration("A", 0.0, "B", s + d)))
    assert {domain for domain, _ in ladders} == {U1, U3}
    for domain, rows in ladders:
        assert rows[0] > rows[1] > rows[2], (domain, rows)
        assert rows[2] <= 1e-6, (domain, rows)


def test_plan_same_image_distinct_inputs():
    # Both inputs sit on one retraction ray, so the spine walk is empty.
    start = configuration("A", 0.2, "B", 0.3)
    goal = configuration("A", 0.25, "B", 0.375)
    p = plan(start, goal)
    assert p.hop_count == 0
    validate_plan(p)


def test_plan_vertex_to_vertex():
    p = plan(chain_to_config(vertex_point("C1")), chain_to_config(vertex_point("C2")))
    assert p.domain is U3
    assert p.hop_count == 3
    assert p.chain_length == pytest.approx(1.5)
    validate_plan(p)


def _waypoints(path: PhysPath) -> list:
    """(t, configuration) at t = 0 and at each segment's end time."""
    _, _, c1, a0, _, c2, b0, _ = path.segments[0]
    ends = [(t1, configuration(c1, a1, c2, b1)) for _, t1, c1, _, a1, c2, _, b1 in path.segments]
    return [(0.0, configuration(c1, a0, c2, b0)), *ends]


def test_plan_waypoints_share_the_vertex_configurations():
    # A waypoint on a spine vertex reads as that vertex's configuration.
    p = plan(configuration("A", 0.3, "B", 0.7), configuration("B", 0.25, "A", 0.6))
    at_vertices = [c for _, c in _waypoints(p.path) if c in VERTEX_CONFIG.values()]
    assert len(at_vertices) == 4
    assert configuration(*p.path.chart_at(0.0)) == _waypoints(p.path)[0][1]
    assert configuration("B", 1.0, "B", 0.5) == VERTEX_CONFIG["HB"]
    q = plan(VERTEX_CONFIG["C1"], VERTEX_CONFIG["C2"])
    assert [c for _, c in _waypoints(q.path)] == [VERTEX_CONFIG[v] for v in ("C1", "HB", "VB", "C2")]


def _with_path(path: PhysPath, spine_interval: tuple[float, float]):
    """A real plan whose trajectory is swapped for a hand-built one."""
    base = plan(configuration("A", 0.1, "A", 0.3), configuration("B", 0.2, "B", 0.6))
    start, goal = configuration(*path.chart_at(0.0)), configuration(*path.chart_at(1.0))
    return base._replace(start=start, goal=goal, path=path, spine_interval=spine_interval)


def test_validate_rejects_crossing_between_samples():
    # Robot 2 passes robot 1 at u ~ 7e-14; 64 samples per segment miss it.
    path = PhysPath((PathSegment(0.0, 1.0, "A", 0.3, 0.3, "A", 0.3 - 1e-14, 0.45),))
    with pytest.raises(ContractError, match="separation dropped to 0.0"):
        validate_plan(_with_path(path, (0.5, 0.5)))


def test_validate_reports_a_colliding_end_as_a_broken_contract():
    # A path that ends where both robots meet, away from the plan's goal, is
    # a broken plan contract: the separation refuses it before the endpoint
    # message would read its end as a configuration.
    path = PhysPath((PathSegment(0.0, 1.0, "A", 0.2, 0.3, "A", 0.4, 0.3),))
    base = plan(configuration("A", 0.2, "A", 0.4), configuration("A", 0.1, "B", 0.3))
    with pytest.raises(ContractError, match="separation dropped to 0.0"):
        validate_plan(base._replace(path=path))


def test_validate_rejects_chord_between_spine_points():
    # Both ends lie on the spine lines of AB (a = 1/2, then b = 1/2), but the
    # straight move between them cuts the corner through (0.35, 0.35).
    path = PhysPath((PathSegment(0.0, 1.0, "A", 0.5, 0.2, "B", 0.2, 0.5),))
    with pytest.raises(ContractError, match="leaves the spine at t=0.5"):
        validate_plan(_with_path(path, (0.0, 1.0)))


def test_validate_rejects_collapsed_interval_off_the_spine():
    # A collapsed spine interval is one instant, which must lie on the spine:
    # (A:0.3, B:0.7) is on neither cross line of AB.
    path = PhysPath((PathSegment(0.0, 1.0, "A", 0.3, 0.3, "B", 0.7, 0.7),))
    with pytest.raises(ContractError, match="plan middle is off the spine"):
        validate_plan(_with_path(path, (0.5, 0.5)))
    # The same instant on the cross line a = 1/2 passes.
    path = PhysPath((PathSegment(0.0, 1.0, "A", 0.5, 0.5, "B", 0.7, 0.7),))
    validate_plan(_with_path(path, (0.5, 0.5)))


def test_plan_json_shape():
    p = plan(configuration("A", 0.1, "A", 0.3), configuration("B", 0.2, "B", 0.6))
    doc = plan_to_json(p)
    assert set(doc) == {"instruction", "hops", "waypoints"}
    assert doc["instruction"] in (1, 2, 3)
    assert doc["hops"] == p.hop_count
    ts = [w["t"] for w in doc["waypoints"]]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(a < b for a, b in zip(ts, ts[1:]))
    for w in doc["waypoints"]:
        assert set(w) == {"t", "r1", "r2"}
        assert w["r1"]["circle"] in ("A", "B")
        assert 0.0 <= w["r1"]["s"] < 1.0


_MIXED_WAYPOINTS = [
    (0.0, "A", 0.3, "B", 0.7),
    (0.10062893081761008, "A", 0.5, "B", 0.5),
    (0.35220125786163525, "A", 0.0, "B", 0.5),
    (0.6037735849056604, "B", 0.5, "A", 0.0),
    (0.8553459119496856, "B", 0.5, "A", 0.5),
    (0.949685534591195, "B", 0.3125, "A", 0.5),
    (1.0, "B", 0.25, "A", 0.6),
]

# (start, goal, instruction, hops, waypoints as (t, circle1, s1, circle2, s2)).
# The first three are the pairs of scripts/demo_scenarios.py; the README pair
# is the mixed-circle pair written as command-line positions.  In the
# same-circle plan the goal lies on the spine, so the plan ends with its
# spine walk and has no backward retraction leg.
GOLDEN_PLANS = {
    "same_circle": (
        configuration("A", 0.12, "A", 0.62),
        configuration("A", 0.8, "A", 0.3),
        1,
        1,
        [
            (0.0, "A", 0.12, "A", 0.62),
            (0.37500000000000006, "A", 0.0, "A", 0.5),
            (1.0, "A", 0.8, "A", 0.30000000000000004),
        ],
    ),
    "mixed_circles": (
        configuration("A", 0.3, "B", 0.7),
        configuration("B", 0.25, "A", 0.6),
        2,
        4,
        _MIXED_WAYPOINTS,
    ),
    "vertex_to_vertex": (
        VERTEX_CONFIG["C1"],
        VERTEX_CONFIG["C2"],
        3,
        3,
        [
            (0.0, "A", 0.5, "B", 0.5),
            (0.3333333333333333, "A", 0.0, "B", 0.5),
            (0.6666666666666666, "B", 0.5, "A", 0.0),
            (1.0, "B", 0.5, "A", 0.5),
        ],
    ),
    "readme": (
        Configuration(parse_position("A:0.3"), parse_position("B:0.7")),
        Configuration(parse_position("B:0.25"), parse_position("A:0.6")),
        2,
        4,
        _MIXED_WAYPOINTS,
    ),
}


@pytest.mark.parametrize("name", GOLDEN_PLANS)
def test_plan_json_golden(name):
    start, goal, instruction, hops, waypoints = GOLDEN_PLANS[name]
    assert plan_to_json(plan(start, goal)) == {
        "instruction": instruction,
        "hops": hops,
        "waypoints": [
            {"t": t, "r1": {"circle": c1, "s": s1}, "r2": {"circle": c2, "s": s2}}
            for t, c1, s1, c2, s2 in waypoints
        ],
    }


squares = st.sampled_from(("AA", "BB", "AB", "BA"))
coords = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


def _config(square, a, b):
    if square in ("AA", "BB") and (abs(a - b) < 1e-3 or abs(a - b) > 1.0 - 1e-3):
        return None
    return configuration(square[0], a, square[1], b)


@settings(deadline=None, max_examples=60)
@given(squares, coords, coords, squares, coords, coords)
def test_plan_contract_random(sq1, a1, b1, sq2, a2, b2):
    start = _config(sq1, a1, b1)
    goal = _config(sq2, a2, b2)
    if start is None or goal is None:
        return
    p = plan(start, goal)
    validate_plan(p)
    assert p.hop_count <= 7
    assert p.chain_length <= 4.0


def _json_from_waypoints(p) -> dict:
    """Oracle: plan_to_json as it read the path's waypoint configurations."""
    waypoints = []
    for t, ((c1, s1), (c2, s2)) in _waypoints(p.path):
        waypoints.append({"t": t, "r1": {"circle": c1, "s": s1}, "r2": {"circle": c2, "s": s2}})
    return {"instruction": p.instruction, "hops": p.hop_count, "waypoints": waypoints}


def _construction_pairs() -> list[tuple[Configuration, Configuration]]:
    """The 36 vertex pairs, 2000 seeded random_config pairs and 500 pairs of
    knife-edge spine points."""
    rng = Random(19)
    pairs = [(VERTEX_CONFIG[u], VERTEX_CONFIG[v]) for u in CHAIN_VERTICES for v in CHAIN_VERTICES]
    pairs += [(random_config(rng), random_config(rng)) for _ in range(2000)]
    knife = [chain_to_config(_knife_edge_chain_point(rng)) for _ in range(1000)]
    pairs += list(zip(knife[::2], knife[1::2]))
    return pairs


def test_plan_builds_no_configuration(monkeypatch):
    # A path stores only its segments: plan(), validate_plan and
    # plan_to_json build no Configuration.
    pairs = _construction_pairs()
    built = []
    original = Configuration.__new__

    def counting(cls, p1, p2):
        built.append((p1, p2))
        return original(cls, p1, p2)

    monkeypatch.setattr(Configuration, "__new__", staticmethod(counting))
    for start, goal in pairs:
        p = plan(start, goal)
        assert not built, (start, goal)
        validate_plan(p)
        assert not built, (start, goal)
        doc = plan_to_json(p)
        assert not built, (start, goal)
        assert json.dumps(doc) == json.dumps(_json_from_waypoints(p)), (start, goal)
        built.clear()


def test_plan_json_text_is_the_path():
    # The text fig8plan plan writes reads back as the path's own floats: the
    # segment end times, and each robot's segment-end chart value, or A:0
    # where that value reads as the center.
    def position(circle, s):
        return ("A", 0.0) if reads_as_center(s) else (circle, s)

    def exact(values):
        return [(c, s.hex()) if isinstance(s, float) else s for c, s in values]

    rng = Random(5)
    pairs = [(VERTEX_CONFIG[u], VERTEX_CONFIG[v]) for u in CHAIN_VERTICES for v in CHAIN_VERTICES]
    pairs += [(random_config(rng), random_config(rng)) for _ in range(2000)]
    pairs.append((configuration("A", 0.3, "A", 0.3000000000000001), configuration("B", 0.1, "A", 0.6)))
    for start, goal in pairs:
        p = plan(start, goal)
        waypoints = json.loads(json.dumps(plan_to_json(p), indent=2))["waypoints"]
        segments = p.path.segments
        times = [0.0] + [seg.t1 for seg in segments]
        assert [w["t"].hex() for w in waypoints] == [t.hex() for t in times], (start, goal)
        first = segments[0]
        ends = [(first.circle1, first.a0, first.circle2, first.b0)]
        ends += [(seg.circle1, seg.a1, seg.circle2, seg.b1) for seg in segments]
        want = [(position(c1, a), position(c2, b)) for c1, a, c2, b in ends]
        got = [((w["r1"]["circle"], w["r1"]["s"]), (w["r2"]["circle"], w["r2"]["s"])) for w in waypoints]
        assert [exact(w) for w in got] == [exact(w) for w in want], (start, goal)


def test_chart_config_dist_matches_config_dist():
    # chart_config_dist measures raw chart values against a configuration
    # exactly as config_dist measures the configuration they stand for.
    def check(values, y):
        got, want = chart_config_dist(*values, y), config_dist(configuration(*values), y)
        assert got.hex() == want.hex(), (values, y)

    vertices = list(VERTEX_CONFIG.values())
    for start, goal in _construction_pairs():
        segments = plan(start, goal).path.segments
        _, _, c1, a0, _, c2, b0, _ = segments[0]
        _, _, d1, _, a1, d2, _, b1 = segments[-1]
        for y in (start, goal, *vertices):
            check((c1, a0, c2, b0), y)
            check((d1, a1, d2, b1), y)
    # the center, read at 0 and 1 and SNAP_EPS / 2 either side of each, on
    # both circles, against itself, interior points, the poles and the vertices
    h = SNAP_EPS / 2
    values = (-h, 0.0, h, 0.25, 0.5, 1.0 - h, 1.0, 1.0 + h)
    charts = [
        (c1, a, c2, b)
        for c1, a, c2, b in itertools.product(CIRCLES, values, CIRCLES, values)
        if not (c1 == c2 and a == b) and not (reads_as_center(a) and reads_as_center(b))
    ]
    targets = {configuration(*x) for x in charts} | set(vertices)
    for x in charts:
        for y in targets:
            check(x, y)
