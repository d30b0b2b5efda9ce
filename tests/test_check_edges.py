"""The constructor checks at their edges: the error type, or the value built.

configuration, PathSegment and PhysPath make their checks one at a time
with no per-call loop, and PathSegment skips the collision solve when a - b
cannot reach -1, 0 or 1, so each table below probes both sides of every
boundary those checks draw.  A row names the exception its input must raise,
or None (or the chart) when the input is valid.
"""

import math

import pytest

from fig8plan.errors import CollisionError, ContractError, DomainError
from fig8plan.geometry import (
    EPS,
    SNAP_EPS,
    CirclePoint,
    PathSegment,
    PhysPath,
    chart,
    circle_point,
    configuration,
)
from fig8plan.spine import chain_point, vertex_point

LO, HI = SNAP_EPS, 1.0 - SNAP_EPS
BELOW_LO, ABOVE_LO = math.nextafter(LO, 0.0), math.nextafter(LO, 1.0)
BELOW_HI, ABOVE_HI = math.nextafter(HI, 0.0), math.nextafter(HI, 1.0)
NAN, INF = float("nan"), float("inf")

CONFIGURATION_EDGES = [
    # an arc value at least SNAP_EPS from the center is a position, a closer
    # one is the center; 1 - SNAP_EPS rounds to just under SNAP_EPS from 1
    (("A", LO, "B", 0.3), None),
    (("A", ABOVE_LO, "B", 0.3), None),
    (("A", BELOW_LO, "B", 0.3), None),
    (("B", 0.3, "A", HI), None),
    (("B", 0.3, "A", BELOW_HI), None),
    (("B", 0.3, "A", ABOVE_HI), None),
    (("A", 1.0, "B", 0.3), None),
    # both robots at the center, or at one place on one circle
    (("A", BELOW_LO, "B", ABOVE_HI), CollisionError),
    (("A", 0.0, "B", 1.0), CollisionError),
    (("A", LO, "A", LO), CollisionError),
    (("B", HI, "B", HI), CollisionError),
    (("A", 0.3, "A", 0.3), CollisionError),
    (("A", 0.3, "B", 0.3), None),
    # arc values outside [0, 1) or not numbers, and unknown circles
    (("A", -0.1, "B", 0.3), DomainError),
    (("A", 0.3, "B", 1.5), DomainError),
    (("A", math.nextafter(0.0, -1.0), "B", 0.3), None),
    (("A", math.nextafter(1.0, 2.0), "B", 0.3), None),
    (("A", 1.0 + 2e-12, "B", 0.3), DomainError),
    (("A", -2e-12, "B", 0.3), DomainError),
    (("A", NAN, "B", 0.3), DomainError),
    (("A", 0.3, "B", INF), DomainError),
    (("C", 0.3, "B", 0.4), DomainError),
    (("A", 0.3, "C", 0.4), DomainError),
    # vertices, poles included
    (("A", 0.5, "B", 0.5), None),
    (("A", 0.5, "A", 0.5), CollisionError),
    (("A", 0.5, "C", 0.5), DomainError),
]


@pytest.mark.parametrize("args, error", CONFIGURATION_EDGES)
def test_configuration_edges(args, error):
    if error is not None:
        with pytest.raises(error):
            configuration(*args)
        return
    c = configuration(*args)
    for p, (circle, s) in zip(c, (args[:2], args[2:])):
        if abs(s) < SNAP_EPS or abs(s - 1.0) < SNAP_EPS:
            assert p == CirclePoint("A", 0.0)
        else:
            assert p == CirclePoint(circle, s)


# Raw chart values (square, a, b) as configuration() reads them: a value at or
# within SNAP_EPS of the center (0 or 1) reads 0, and chart() moves it to a
# mixed square.
CHART_EDGES = [
    (("AA", 0.3, 0.4), ("AA", 0.3, 0.4)),
    (("AA", BELOW_LO, 0.3), ("BA", 0.0, 0.3)),
    (("AA", 0.3, ABOVE_HI), ("AB", 0.3, 0.0)),
    (("AB", LO, BELOW_HI), ("AB", LO, BELOW_HI)),
    (("AB", LO, HI), ("AB", LO, 0.0)),
    (("AA", 0.3, 0.3), CollisionError),
    (("AB", 1.0, 0.0), CollisionError),
    (("XY", 0.3, 0.4), DomainError),
    (("XY", 0.0, 0.4), DomainError),
    (("AB", 0.3, 1.5), DomainError),
]


@pytest.mark.parametrize("args, expected", CHART_EDGES)
def test_chart_edges(args, expected):
    square, a, b = args
    if isinstance(expected, tuple):
        assert chart(configuration(square[0], a, square[1], b)) == expected
    else:
        with pytest.raises(expected):
            configuration(square[0], a, square[1], b)


def _meeting_at(u: float) -> tuple:
    """A same-circle segment on which robot 1 passes robot 2 at time u."""
    length = 0.1
    return (0.0, 1.0, "A", 0.3 - u * length, 0.3 + (1.0 - u) * length, "A", 0.3, 0.3)


SEGMENT_EDGES = [
    ((0.0, 1.0, "A", 0.2, 0.4, "B", 0.1, 0.2), None),
    # times
    ((0.5, 0.5, "A", 0.2, 0.4, "B", 0.1, 0.2), ContractError),
    ((0.6, 0.5, "A", 0.2, 0.4, "B", 0.1, 0.2), ContractError),
    ((NAN, 1.0, "A", 0.2, 0.4, "B", 0.1, 0.2), ContractError),
    # circles and chart values in [0, 1], 1 being the center seen from the far side
    ((0.0, 1.0, "C", 0.2, 0.4, "B", 0.1, 0.2), DomainError),
    ((0.0, 1.0, "A", 0.2, 0.4, "C", 0.1, 0.2), DomainError),
    ((0.0, 1.0, "A", 0.0, 0.4, "B", 0.6, 1.0), None),
    ((0.0, 1.0, "A", math.nextafter(0.0, -1.0), 0.4, "B", 0.1, 0.2), DomainError),
    ((0.0, 1.0, "A", 0.6, math.nextafter(1.0, 2.0), "B", 0.1, 0.2), DomainError),
    ((0.0, 1.0, "A", 0.2, 0.4, "B", 0.1, NAN), DomainError),
    # a leg that crosses the pole must be cut; one that ends on it need not be
    ((0.0, 1.0, "A", 0.4, 0.6, "B", 0.1, 0.2), ContractError),
    ((0.0, 1.0, "A", 0.1, 0.2, "B", 0.6, 0.4), ContractError),
    ((0.0, 1.0, "A", math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), "B", 0.1, 0.2), ContractError),
    ((0.0, 1.0, "A", 0.4, 0.5, "B", 0.5, 0.7), None),
    # the first failed check names the error: the time check comes first
    ((0.5, 0.5, "C", 0.4, 0.6, "B", 0.1, 0.2), ContractError),
    ((0.0, 1.0, "C", 0.4, 0.6, "B", 0.1, 0.2), DomainError),
    ((0.0, 1.0, "A", 0.4, 0.6, "C", 0.1, 0.2), ContractError),
    # a collision strictly inside (SNAP_EPS, 1 - SNAP_EPS) of the segment's time
    (_meeting_at(0.5), CollisionError),
    (_meeting_at(1.5e-12), CollisionError),
    (_meeting_at(0.5e-12), None),
    (_meeting_at(1.0 - 1.5e-12), CollisionError),
    (_meeting_at(1.0 - 0.5e-12), None),
    # robots meeting only at an end, or never
    ((0.0, 1.0, "A", 0.2, 0.3, "A", 0.4, 0.3), None),
    ((0.0, 1.0, "A", 0.9, 1.0, "A", 0.1, 0.0), None),
    ((0.0, 1.0, "B", 0.1, 0.2, "B", 0.9, 0.8), None),
    ((0.0, 1.0, "A", 0.2, 0.4, "A", 0.2, 0.4), None),
    # the two robots crossing at the antipode is no collision
    ((0.0, 1.0, "A", 0.1, 0.2, "A", 0.6, 0.7), None),
]


@pytest.mark.parametrize("args, error", SEGMENT_EDGES)
def test_path_segment_edges(args, error):
    if error is None:
        assert tuple(PathSegment(*args)) == args
    else:
        with pytest.raises(error):
            PathSegment(*args)


def _junction(a_start: float, t_join: float = 0.5) -> tuple:
    """Two segments that meet at t_join, robot 1 ending the first at 0.3 on
    circle A and starting the second at a_start."""
    return (
        PathSegment(0.0, 0.5, "A", 0.2, 0.3, "B", 0.2, 0.1),
        PathSegment(t_join, 1.0, "A", a_start, 0.35, "B", 0.1, 0.25),
    )


PHYSPATH_EDGES = [
    (lambda: _junction(0.3), None),
    # a junction jump just within, and just over, EPS
    (lambda: _junction(0.3 + 0.99 * EPS), None),
    (lambda: _junction(0.3 + 1.01 * EPS), ContractError),
    (lambda: _junction(0.3 - 1.01 * EPS), ContractError),
    # the center read as 0 on one side and as 1 on the other is no jump
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.0, "B", 0.2, 0.1),
              PathSegment(0.5, 1.0, "B", 1.0, 0.9, "B", 0.1, 0.3)), None),
    # the other circle at the same arc value is a jump of twice the distance
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "B", 0.2, 0.1),
              PathSegment(0.5, 1.0, "B", 0.2, 0.3, "B", 0.1, 0.3)), ContractError),
    # times that do not join or do not span [0, 1]
    (lambda: _junction(0.3, t_join=math.nextafter(0.5, 1.0)), ContractError),
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "B", 0.2, 0.1),), ContractError),
    (lambda: (PathSegment(0.25, 1.0, "A", 0.3, 0.2, "B", 0.2, 0.1),), ContractError),
    (lambda: (), DomainError),
    # a junction at two chart points: its start side must be no collision
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "A", 0.1, 0.1),
              PathSegment(0.5, 1.0, "A", 0.2 + 0.5 * EPS, 0.3, "A", 0.1, 0.05)), None),
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "A", 0.1, 0.2 - 0.5 * EPS),
              PathSegment(0.5, 1.0, "A", 0.2, 0.3, "A", 0.2, 0.1)), CollisionError),
    # an end that is a collision, alone and behind a failed junction check
    (lambda: (PathSegment(0.0, 1.0, "A", 0.2, 0.3, "A", 0.4, 0.3),), CollisionError),
    (lambda: (PathSegment(0.0, 0.5, "A", 0.2, 0.3, "A", 0.4, 0.3),
              PathSegment(0.5, 1.0, "A", 0.4, 0.45, "A", 0.3, 0.35)), ContractError),
]


@pytest.mark.parametrize("build, error", PHYSPATH_EDGES)
def test_phys_path_edges(build, error):
    segments = build()
    if error is None:
        path = PhysPath(segments)
        assert path.segments == segments
        # every segment end reads as a valid configuration
        ends = [configuration(s.circle1, s.a1, s.circle2, s.b1) for s in segments]
        assert configuration(*path.chart_at(1.0)) == ends[-1]
    else:
        with pytest.raises(error):
            PhysPath(segments)


def test_vertex_and_center_points_stay_shared_objects():
    # chain_point snaps an angle within EPS of a vertex onto the vertex's one
    # shared point, and circle_point a value reading as the center onto the
    # one shared center.
    assert chain_point("R", 1e-10) is vertex_point("HA")
    assert chain_point("H1", 0.5 - 1e-10) is vertex_point("C1")
    assert chain_point("V2", 0.5) is vertex_point("C2")
    assert circle_point("B", 1e-13) is circle_point("A", 0.0)
    assert circle_point("A", 1.0 - 1e-13) is circle_point("A", 0.0)
