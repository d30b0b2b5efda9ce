"""Spine charts, canonical vertices, the chain metric, and arc moves."""

import pytest
from hypothesis import given, strategies as st

from fig8plan.errors import ContractError, DomainError
from fig8plan.geometry import ChartLeg, chart, configuration, dist_gamma, path_from_legs
from fig8plan.spine import (
    A_HALF,
    CHAIN_CIRCLES,
    CHAIN_VERTICES,
    CIRCLE_VERTICES,
    NECKLACE,
    VERTEX_CANONICAL,
    VERTEX_CONFIG,
    ChainPoint,
    arc_leg,
    arc_legs,
    chain_point,
    chain_to_config,
    is_antipodal,
    shortest_arc,
    theta_on,
    vertex_point,
)

from fig8plan.verify import chain_oracle
from spine_reference import on_spine, spine_image

chain_circles = st.sampled_from(CHAIN_CIRCLES)
angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def fold(x):
    d = abs(x) % 1.0
    return min(d, 1.0 - d)


def test_vertex_canonical_reps():
    assert chain_point("R", 0.0) == ChainPoint("R", 0.0)  # HA
    assert chain_point("H2", 1.0 - 1e-12) == ChainPoint("R", 0.0)  # wraps to HA
    assert chain_point("R", 0.5) == ChainPoint("V1", 0.0)  # VA
    assert chain_point("H1", 0.0) == ChainPoint("Bc", 0.0)  # HB
    assert chain_point("Bc", 0.5) == ChainPoint("V2", 0.0)  # VB
    assert chain_point("V1", 0.5) == ChainPoint("H1", 0.5)  # C1
    assert chain_point("V2", 0.5) == ChainPoint("H2", 0.5)  # C2
    assert chain_point("R", 0.5 + 5e-10) == ChainPoint("V1", 0.0)


def test_every_vertex_lies_on_two_circles():
    # Two circles through each vertex, two arcs each: degree 4 everywhere.
    on = {v: [c for c in CHAIN_CIRCLES if v in CIRCLE_VERTICES[c]] for v in CHAIN_VERTICES}
    assert all(len(cs) == 2 for cs in on.values())


@pytest.mark.parametrize(
    "circle, theta",
    [("H2", 0.0), ("R", 0.5), ("H1", 0.0), ("Bc", 0.5), ("V1", 0.5), ("V2", 0.5)],
)
def test_chain_point_rejects_a_vertex_off_its_canonical_circle(circle, theta):
    # Each vertex lies on two circles; only its designated one may store it.
    with pytest.raises(DomainError, match="is stored on"):
        ChainPoint(circle, theta)
    assert chain_point(circle, theta) == vertex_point(CIRCLE_VERTICES[circle][theta == 0.5])


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0 - 1e-12, 0.3])
def test_unknown_circle_is_refused(theta):
    # a vertex angle is refused by chain_point's vertex lookup, an interior
    # one by ChainPoint
    with pytest.raises(DomainError, match="unknown spine circle"):
        chain_point("X", theta)
    with pytest.raises(DomainError, match="unknown spine circle"):
        arc_leg("X", 0.3, 0.3)


def test_vertex_configs():
    expected = {
        "HA": configuration("A", 0.0, "A", 0.5),
        "HB": configuration("A", 0.0, "B", 0.5),
        "VA": configuration("A", 0.5, "A", 0.0),
        "VB": configuration("B", 0.5, "A", 0.0),
        "C1": configuration("A", 0.5, "B", 0.5),
        "C2": configuration("B", 0.5, "A", 0.5),
    }
    assert VERTEX_CONFIG == expected
    for name, config in expected.items():
        assert chain_to_config(vertex_point(name)) == config
        assert spine_image(*chart(config)) == vertex_point(name)


def test_successor_walk_closes_in_six():
    # Six positive half-turns from C1, each along the current vertex's
    # canonical circle, return to C1 and use every circle once.
    p = vertex_point("C1")
    seen_circles = []
    for _ in range(6):
        circle, theta = VERTEX_CANONICAL[p.vertex]
        seen_circles.append(circle)
        p = chain_point(circle, theta + 0.5)
    assert p == vertex_point("C1")
    assert sorted(seen_circles) == sorted(CHAIN_CIRCLES)


def test_vertex_canonical_is_pinned():
    # Derived from NECKLACE and the ring order: each vertex on the circle it
    # shares with its successor in CHAIN_VERTICES, at its slot there.
    assert VERTEX_CANONICAL == {
        "HA": ("R", 0.0),
        "VA": ("V1", 0.0),
        "HB": ("Bc", 0.0),
        "VB": ("V2", 0.0),
        "C1": ("H1", 0.5),
        "C2": ("H2", 0.5),
    }


def test_chain_graph_counts():
    # Each necklace circle is two half arcs between its two vertices: twelve
    # edges, and every vertex has degree 4.
    edges = [(v0, v1) for _, _, _, v0, v1 in NECKLACE] * 2
    assert len(CHAIN_VERTICES) == 6
    assert len(edges) == 12
    degree = {v: 0 for v in CHAIN_VERTICES}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert all(d == 4 for d in degree.values())
    half_arcs = {arc_leg(c, t, t + 0.5) for c in CHAIN_CIRCLES for t in (0.0, 0.5)}
    assert len(half_arcs) == 12
    assert all(leg.sweep == 0.5 for leg in half_arcs)


@given(chain_circles, angles)
def test_chart_roundtrip(circle, theta):
    p = chain_point(circle, theta)
    f = chart(chain_to_config(p))
    assert on_spine(*f)
    assert spine_image(*f) == p


def test_flat_to_chain_rejects_off_spine():
    with pytest.raises(DomainError):
        spine_image("AA", 0.3, 0.4)
    with pytest.raises(DomainError):
        spine_image("AB", 0.3, 0.4)


def test_dist_chain_frozen_values():
    ha, vb = vertex_point("HA"), vertex_point("VB")
    c1, c2 = vertex_point("C1"), vertex_point("C2")
    pairs = [
        (ha, vb, 1.0),
        (c1, c2, 1.5),
        (ha, vertex_point("VA"), 0.5),
        (ChainPoint("H1", 0.1), ChainPoint("H1", 0.45), 0.35),
        # Interior-to-interior across squares, optimal route VA then C1.
        (ChainPoint("R", 0.2), ChainPoint("H1", 0.1), 1.2),
    ]
    assert chain_oracle([(p, q) for p, q, _ in pairs]) == pytest.approx([d for _, _, d in pairs])


def test_is_antipodal():
    assert is_antipodal(ChainPoint("R", 0.2), ChainPoint("R", 0.7))
    assert not is_antipodal(ChainPoint("R", 0.2), ChainPoint("R", 0.69))
    assert not is_antipodal(ChainPoint("R", 0.2), ChainPoint("Bc", 0.7))
    # Vertices are excluded even though they sit half a turn apart.
    assert not is_antipodal(vertex_point("HA"), vertex_point("VA"))


def test_shortest_arc():
    assert shortest_arc(0.1, 0.3) == (1, pytest.approx(0.2))
    assert shortest_arc(0.3, 0.1) == (-1, pytest.approx(0.2))
    assert shortest_arc(0.9, 0.1) == (1, pytest.approx(0.2))
    direction, span = shortest_arc(0.1, 0.6)
    assert direction == 1 and span == pytest.approx(0.5)


def _angles(circle, leg):
    """The raw angles (from, to) of a leg along the circle: b on a = 1/2, else a."""
    line = next(row[2] for row in NECKLACE if row[0] == circle)
    return (leg.b0, leg.b1) if line == A_HALF else (leg.a0, leg.a1)


def test_arc_legs_frozen():
    assert arc_legs("R", 0.2, 0.9, 1) == [
        ChartLeg("A", 0.2, 0.5, "A", 0.7, 1.0),
        ChartLeg("A", 0.5, 0.9, "A", 0.0, 0.4),
    ]
    assert arc_legs("H1", 0.2, 0.9, -1) == [
        ChartLeg("A", 0.2, 0.0, "B", 0.5, 0.5),
        ChartLeg("A", 1.0, 0.9, "B", 0.5, 0.5),
    ]
    assert arc_legs("R", 0.3, 0.3, 1) == []
    # Positive half turn between antipodal interiors.
    assert arc_legs("Bc", 0.7, 0.2, 1) == [
        ChartLeg("B", 0.7, 1.0, "B", 0.19999999999999996, 0.5),
        ChartLeg("B", 0.0, 0.2, "B", 0.5, 0.7),
    ]
    assert arc_legs("V2", 0.0, 0.7, 1) == [
        ChartLeg("B", 0.5, 0.5, "A", 0.0, 0.5),
        ChartLeg("B", 0.5, 0.5, "A", 0.5, 0.7),
    ]


@given(chain_circles, angles, angles, st.sampled_from((1, -1)))
def test_arc_legs_properties(circle, t0, t1, direction):
    legs = arc_legs(circle, t0, t1, direction)
    span = ((t1 - t0) * direction) % 1.0
    if fold(t1 - t0) <= 1e-12:
        assert legs == []
        return
    # Any move longer than SNAP_EPS is kept, and it starts and ends on the
    # given angles exactly (a raw chart angle of 1 is the angle 0).
    assert sum(leg.sweep for leg in legs) == pytest.approx(span, abs=1e-12)
    runs = [_angles(circle, leg) for leg in legs]
    assert runs[0][0] % 1.0 == t0
    assert runs[-1][1] % 1.0 == t1
    for leg, (u0, u1) in zip(legs, runs):
        lo, hi = min(u0, u1), max(u0, u1)
        assert not (lo < 0.5 < hi)
        assert 0.0 <= lo < hi <= 1.0
        assert (u1 - u0) * direction > 0.0
        assert leg == arc_leg(circle, u0, u1)
    for prev, nxt in zip(runs, runs[1:]):
        assert prev[1] % 1.0 == nxt[0] % 1.0
        assert prev[1] in (0.0, 0.5, 1.0)


def test_arc_legs_keeps_a_short_move_exact():
    # A move of EPS from a vertex used to be dropped, so a plan could end
    # more than EPS from its goal.
    assert arc_legs("R", 0.0, 1e-9, 1) == [ChartLeg("A", 0.0, 1e-9, "A", 0.5, 0.500000001)]
    assert arc_legs("R", 0.0, 1e-13, 1) == []


def test_steps_to_path_stays_on_spine():
    path = path_from_legs(arc_legs("R", 0.2, 0.9, 1))
    assert configuration(*path.chart_at(0.0)) == chain_to_config(ChainPoint("R", 0.2))
    assert configuration(*path.chart_at(1.0)) == chain_to_config(ChainPoint("R", 0.9))
    for k in range(33):
        c = configuration(*path.chart_at(k / 32))
        assert on_spine(*chart(c))


def test_steps_cross_center_wrap():
    # H1 angles wrap through HB, the center-and-pole vertex.
    path = path_from_legs(arc_legs("H1", 0.9, 0.1, 1))
    assert configuration(*path.chart_at(0.0)) == chain_to_config(ChainPoint("H1", 0.9))
    assert configuration(*path.chart_at(1.0)) == chain_to_config(ChainPoint("H1", 0.1))
    mid = configuration(*path.chart_at(0.5))
    assert mid == VERTEX_CONFIG["HB"]


def test_half_arc_leg_table():
    # The chart leg of each of the twelve half arcs, in NECKLACE order and
    # each circle's half from theta = 0 first; a sub-diagonal half arc keeps
    # one chart branch, b = a + 1/2 below the vertex at 1/2 and b = a - 1/2
    # above it.
    assert [arc_leg(row[0], t, t + 0.5) for row in NECKLACE for t in (0.0, 0.5)] == [
        ChartLeg("A", 0.0, 0.5, "A", 0.5, 1.0),
        ChartLeg("A", 0.5, 1.0, "A", 0.0, 0.5),
        ChartLeg("B", 0.0, 0.5, "B", 0.5, 1.0),
        ChartLeg("B", 0.5, 1.0, "B", 0.0, 0.5),
        ChartLeg("A", 0.0, 0.5, "B", 0.5, 0.5),
        ChartLeg("A", 0.5, 1.0, "B", 0.5, 0.5),
        ChartLeg("A", 0.5, 0.5, "B", 0.0, 0.5),
        ChartLeg("A", 0.5, 0.5, "B", 0.5, 1.0),
        ChartLeg("B", 0.0, 0.5, "A", 0.5, 0.5),
        ChartLeg("B", 0.5, 1.0, "A", 0.5, 0.5),
        ChartLeg("B", 0.5, 0.5, "A", 0.0, 0.5),
        ChartLeg("B", 0.5, 0.5, "A", 0.5, 1.0),
    ]


def test_step_straddling_a_vertex_is_refused():
    # An arc across theta = 1/2 would need two chart legs (R switches branch
    # there); it used to come back as one leg with b running 0.9 -> 1.1.
    for circle, t0, t1 in (("R", 0.4, 0.6), ("H1", 0.6, 0.4)):
        with pytest.raises(ContractError, match="straddles"):
            arc_leg(circle, t0, t1)
    with pytest.raises(DomainError, match="outside"):
        arc_leg("R", 0.2, 1.2)
    # Ending on the vertex is no straddle.
    assert arc_leg("R", 0.4, 0.5) == ChartLeg("A", 0.4, 0.5, "A", 0.9, 1.0)
    assert arc_leg("R", 1.0, 0.5) == ChartLeg("A", 1.0, 0.5, "A", 0.5, 0.0)


def test_vertex_theta_on():
    # A vertex lies on two circles; an interior point only on its own.
    assert theta_on("R", vertex_point("VA")) == 0.5
    assert theta_on("V1", vertex_point("VA")) == 0.0
    assert theta_on("H1", vertex_point("VA")) is None
    assert theta_on("R", ChainPoint("R", 0.3)) == 0.3
    assert theta_on("Bc", ChainPoint("R", 0.3)) is None


def test_antipodal_slide_legs():
    # A half-turn sweep on a sub-diagonal keeps both robots moving in lockstep.
    path = path_from_legs(arc_legs("R", 0.2, 0.7, 1))
    assert dist_gamma(*configuration(*path.chart_at(0.0))) == pytest.approx(0.5)
    assert dist_gamma(*configuration(*path.chart_at(1.0))) == pytest.approx(0.5)
