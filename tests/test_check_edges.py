"""The value checks at their edges: the error raised, or the value built.

configuration checks its positions as it builds them.  PathSegment and
PhysPath are plain records: certify_path checks a path's form segment by
segment, and the exact separation (path_min_separation > 0) is its one
collision rule, so each table below probes both sides of every boundary
those checks draw.  A configuration row names the exception its input must
raise, or None (or the chart) when the input is valid.  A path row names the
kind of defect it probes in the package's error vocabulary (CollisionError,
DomainError or ContractError; None for a valid path) and the message of the
check that must refuse it: every path defect is a ContractError.
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
from fig8plan.verify import _certified

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


def _ids(rows: list) -> list[str]:
    """pytest's own ids for a table's first two columns, the input (its name,
    or args and its index) and the kind, whatever the message column holds;
    pytest numbers the ids that repeat."""
    return [
        f"{getattr(x, '__name__', f'args{i}')}-{getattr(kind, '__name__', kind)}"
        for i, (x, kind, _) in enumerate(rows)
    ]


STRICT = "times must strictly increase"
SPLIT = "split required"
OUTSIDE = r"outside \[0, 1\]"
CIRCLE = "unknown circle"
MEET = "path separation dropped to 0.0"

SEGMENT_EDGES = [
    ((0.0, 1.0, "A", 0.2, 0.4, "B", 0.1, 0.2), None, None),
    # times
    ((0.5, 0.5, "A", 0.2, 0.4, "B", 0.1, 0.2), ContractError, STRICT),
    ((0.6, 0.5, "A", 0.2, 0.4, "B", 0.1, 0.2), ContractError, STRICT),
    ((NAN, 1.0, "A", 0.2, 0.4, "B", 0.1, 0.2), ContractError, STRICT),
    # circles and chart values in [0, 1], 1 being the center seen from the far side
    ((0.0, 1.0, "C", 0.2, 0.4, "B", 0.1, 0.2), DomainError, CIRCLE),
    ((0.0, 1.0, "A", 0.2, 0.4, "C", 0.1, 0.2), DomainError, CIRCLE),
    ((0.0, 1.0, "A", 0.0, 0.4, "B", 0.6, 1.0), None, None),
    ((0.0, 1.0, "A", math.nextafter(0.0, -1.0), 0.4, "B", 0.1, 0.2), DomainError, OUTSIDE),
    ((0.0, 1.0, "A", 0.6, math.nextafter(1.0, 2.0), "B", 0.1, 0.2), DomainError, OUTSIDE),
    ((0.0, 1.0, "A", 0.2, 0.4, "B", 0.1, NAN), DomainError, OUTSIDE),
    # a leg that crosses the pole must be cut; one that ends on it need not be
    ((0.0, 1.0, "A", 0.4, 0.6, "B", 0.1, 0.2), ContractError, SPLIT),
    ((0.0, 1.0, "A", 0.1, 0.2, "B", 0.6, 0.4), ContractError, SPLIT),
    ((0.0, 1.0, "A", math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), "B", 0.1, 0.2),
     ContractError, SPLIT),
    ((0.0, 1.0, "A", 0.4, 0.5, "B", 0.5, 0.7), None, None),
    # the first failed check names the defect: times, then robot 1's circle,
    # values and pole, then robot 2's
    ((0.5, 0.5, "C", 0.4, 0.6, "B", 0.1, 0.2), ContractError, STRICT),
    ((0.0, 1.0, "C", 0.4, 0.6, "B", 0.1, 0.2), DomainError, CIRCLE),
    ((0.0, 1.0, "A", 0.4, 0.6, "C", 0.1, 0.2), ContractError, SPLIT),
    # a collision anywhere in the segment's time, however close to an end
    (_meeting_at(0.5), CollisionError, MEET),
    (_meeting_at(1.5e-12), CollisionError, MEET),
    (_meeting_at(0.5e-12), CollisionError, MEET),
    (_meeting_at(1.0 - 1.5e-12), CollisionError, MEET),
    (_meeting_at(1.0 - 0.5e-12), CollisionError, MEET),
    # robots meeting only at an end, or never
    ((0.0, 1.0, "A", 0.2, 0.3, "A", 0.4, 0.3), CollisionError, MEET),
    ((0.0, 1.0, "A", 0.9, 1.0, "A", 0.1, 0.0), CollisionError, "robots coincide at the center at t=1.0"),
    ((0.0, 1.0, "B", 0.1, 0.2, "B", 0.9, 0.8), None, None),
    ((0.0, 1.0, "A", 0.2, 0.4, "A", 0.2, 0.4), CollisionError, MEET),
    # the two robots crossing at the antipode is no collision
    ((0.0, 1.0, "A", 0.1, 0.2, "A", 0.6, 0.7), None, None),
]


@pytest.mark.parametrize("args, kind, message", SEGMENT_EDGES, ids=_ids(SEGMENT_EDGES))
def test_path_segment_edges(args, kind, message):
    path = PhysPath((PathSegment(*args),))
    if kind is None:
        assert _certified(path) is path
        assert tuple(path.segments[0]) == args
    else:
        with pytest.raises(ContractError, match=message):
            _certified(path)


def _junction(a_start: float, t_join: float = 0.5) -> tuple:
    """Two segments that meet at t_join, robot 1 ending the first at 0.3 on
    circle A and starting the second at a_start."""
    return (
        PathSegment(0.0, 0.5, "A", 0.2, 0.3, "B", 0.2, 0.1),
        PathSegment(t_join, 1.0, "A", a_start, 0.35, "B", 0.1, 0.25),
    )


JUMP = "disagree across a junction"
CONTIGUOUS = "times must run contiguously from 0"
TO_ONE = "times must run to 1"

PHYSPATH_EDGES = [
    (lambda: _junction(0.3), None, None),
    # a junction jump just within, and just over, EPS
    (lambda: _junction(0.3 + 0.99 * EPS), None, None),
    (lambda: _junction(0.3 + 1.01 * EPS), ContractError, JUMP),
    (lambda: _junction(0.3 - 1.01 * EPS), ContractError, JUMP),
    # the center read as 0 on one side and as 1 on the other is no jump
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.0, "B", 0.2, 0.1),
              PathSegment(0.5, 1.0, "B", 1.0, 0.9, "B", 0.1, 0.3)), None, None),
    # the other circle at the same arc value is a jump of twice the distance
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "B", 0.2, 0.1),
              PathSegment(0.5, 1.0, "B", 0.2, 0.3, "B", 0.1, 0.3)), ContractError, JUMP),
    # times that do not join or do not span [0, 1]
    (lambda: _junction(0.3, t_join=math.nextafter(0.5, 1.0)), ContractError, CONTIGUOUS),
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "B", 0.2, 0.1),), ContractError, TO_ONE),
    (lambda: (PathSegment(0.25, 1.0, "A", 0.3, 0.2, "B", 0.2, 0.1),), ContractError, CONTIGUOUS),
    (lambda: (), DomainError, TO_ONE),
    # a junction at two chart points: its start side must be no collision
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "A", 0.1, 0.1),
              PathSegment(0.5, 1.0, "A", 0.2 + 0.5 * EPS, 0.3, "A", 0.1, 0.05)), None, None),
    (lambda: (PathSegment(0.0, 0.5, "A", 0.3, 0.2, "A", 0.1, 0.2 - 0.5 * EPS),
              PathSegment(0.5, 1.0, "A", 0.2, 0.3, "A", 0.2, 0.1)), CollisionError, MEET),
    # an end that is a collision, alone and behind a failed junction check
    (lambda: (PathSegment(0.0, 1.0, "A", 0.2, 0.3, "A", 0.4, 0.3),), CollisionError, MEET),
    (lambda: (PathSegment(0.0, 0.5, "A", 0.2, 0.3, "A", 0.4, 0.3),
              PathSegment(0.5, 1.0, "A", 0.4, 0.45, "A", 0.3, 0.35)), ContractError, JUMP),
]


@pytest.mark.parametrize("build, kind, message", PHYSPATH_EDGES, ids=_ids(PHYSPATH_EDGES))
def test_phys_path_edges(build, kind, message):
    segments = build()
    path = PhysPath(segments)
    if kind is None:
        assert _certified(path).segments == segments
        # every segment end reads as a valid configuration
        ends = [configuration(s.circle1, s.a1, s.circle2, s.b1) for s in segments]
        assert configuration(*path.chart_at(1.0)) == ends[-1]
    else:
        with pytest.raises(ContractError, match=message):
            _certified(path)


def test_vertex_and_center_points_stay_shared_objects():
    # chain_point snaps an angle within EPS of a vertex onto the vertex's one
    # shared point, and circle_point a value reading as the center onto the
    # one shared center.
    assert chain_point("R", 1e-10) is vertex_point("HA")
    assert chain_point("H1", 0.5 - 1e-10) is vertex_point("C1")
    assert chain_point("V2", 0.5) is vertex_point("C2")
    assert circle_point("B", 1e-13) is circle_point("A", 0.0)
    assert circle_point("A", 1.0 - 1e-13) is circle_point("A", 0.0)
