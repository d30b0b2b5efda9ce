"""The spine of the configuration space: a metric graph of six circles.

Inside each mixed square the spine is the pair of cross lines a = 1/2 and
b = 1/2; inside each same-circle square it is the pair of sub-diagonals
|b - a| = 1/2.  Each of those six lines closes up into a circle of
circumference 1 under the square gluings, and the circles meet in six
4-valent vertices, two arcs of length 1/2 per circle.  NECKLACE below lists
each circle's square, line and two vertices.

Vertices are the configurations where each robot sits at the center or a
pole: HA/HB put robot 1 at the center with robot 2 at a pole, VA/VB swap the
roles, C1/C2 put both robots at opposite poles.  Every point gets a single
canonical representation; a vertex is stored on its designated circle, the
circle a positive traversal leaves it along, and ChainPoint refuses it on
any other.

An angle within EPS of a vertex is that vertex (chain_point), the one place a
spine position is moved: arc_legs starts and ends arc moves on the exact
angles it is given, a move of at most SNAP_EPS being none.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ContractError, DomainError
from .geometry import EPS, SNAP_EPS, ChartLeg, Configuration, configuration, reads_as_center

CHAIN_VERTICES = ("HA", "VA", "C1", "HB", "VB", "C2")

# The spine's lines in a square's chart (a, b), and the six circles: the
# square each one's chart lives in, the line it follows there, and its
# vertices at theta = 0 and theta = 1/2.  A circle on b = 1/2 or the
# sub-diagonal is charted by a = theta, one on a = 1/2 by b = theta.
B_HALF, A_HALF, SUB_DIAGONAL = "b = 1/2", "a = 1/2", "|b - a| = 1/2"
NECKLACE = (
    ("R", "AA", SUB_DIAGONAL, "HA", "VA"),
    ("Bc", "BB", SUB_DIAGONAL, "HB", "VB"),
    ("H1", "AB", B_HALF, "HB", "C1"),
    ("V1", "AB", A_HALF, "VA", "C1"),
    ("H2", "BA", B_HALF, "HA", "C2"),
    ("V2", "BA", A_HALF, "VB", "C2"),
)
CHAIN_CIRCLES = tuple(row[0] for row in NECKLACE)
CIRCLE_VERTICES = {circle: (v0, v1) for circle, _, _, v0, v1 in NECKLACE}
# Each circle's (square, line), and the circle on each (square, line).
_CIRCLE_CHART = {circle: (square, line) for circle, square, line, _, _ in NECKLACE}
LINE_CIRCLE = {(square, line): circle for circle, square, line, _, _ in NECKLACE}
# The twelve half arcs, (circle, theta0, from, theta1, to): each circle runs
# from its first vertex to its second on [0, 1/2] and back on [1/2, 1].
HALF_ARCS = tuple(
    half
    for circle, _, _, v0, v1 in NECKLACE
    for half in ((circle, 0.0, v0, 0.5, v1), (circle, 0.5, v1, 1.0, v0))
)

# Canonical storage of each vertex: on its designated circle, the one a
# positive traversal leaves it along.  CHAIN_VERTICES lists the vertices in
# successor order (the last wrapping round to the first); a vertex's
# designated circle is the one it shares with its successor, and a positive
# half-turn along it from the vertex's slot reaches that successor, so the
# ring visits every vertex and designates every circle exactly once.
VERTEX_CANONICAL = {
    v: (circle, 0.5 * pair.index(v))
    for v, w in zip(CHAIN_VERTICES, CHAIN_VERTICES[1:] + CHAIN_VERTICES[:1])
    for circle, pair in CIRCLE_VERTICES.items()
    if set(pair) == {v, w}
}


class ChainPoint(namedtuple("ChainPoint", "circle theta")):
    """A point of the spine: circle name plus angle theta in [0, 1).

    A vertex (theta 0 or 1/2) must be given on its designated circle
    (VERTEX_CANONICAL), so that equal points are equal tuples.
    """

    __slots__ = ()

    def __new__(cls, circle: str, theta: float):
        if circle not in CIRCLE_VERTICES:
            raise DomainError(f"unknown spine circle {circle!r}")
        if not (0.0 <= theta < 1.0):
            raise DomainError(f"angle {theta!r} outside [0, 1)")
        if theta == 0.0 or theta == 0.5:
            vertex = CIRCLE_VERTICES[circle][theta == 0.5]
            if VERTEX_CANONICAL[vertex][0] != circle:
                raise DomainError(
                    f"vertex {vertex} is stored on {VERTEX_CANONICAL[vertex][0]}, not {circle}"
                )
        return tuple.__new__(cls, (circle, theta))

    @property
    def vertex(self) -> str | None:
        if self.theta == 0.0:
            return CIRCLE_VERTICES[self.circle][0]
        if self.theta == 0.5:
            return CIRCLE_VERTICES[self.circle][1]
        return None

    @property
    def is_vertex(self) -> bool:
        return self.theta == 0.0 or self.theta == 0.5


# The six vertex points, one object each, and per circle its vertices at
# theta = 0 and theta = 1/2.
_VERTEX_POINTS = {v: ChainPoint(*VERTEX_CANONICAL[v]) for v in CHAIN_VERTICES}
_CIRCLE_VERTEX_POINTS = {
    circle: tuple(_VERTEX_POINTS[v] for v in pair) for circle, pair in CIRCLE_VERTICES.items()
}


def chain_point(circle: str, theta: float) -> ChainPoint:
    """Construct a canonical spine point, snapping near-vertex angles.

    Angles within EPS of a multiple of 1/2 are treated as the vertex itself,
    which is returned as its one shared point on its designated circle; any
    other angle is checked by ChainPoint.
    """
    t = theta % 1.0
    if t < EPS or t > 1.0 - EPS or -EPS < t - 0.5 < EPS:
        ends = _CIRCLE_VERTEX_POINTS.get(circle)
        if ends is None:
            raise DomainError(f"unknown spine circle {circle!r}")
        return ends[0.25 < t < 0.75]
    return ChainPoint(circle, t)


def vertex_point(vertex: str) -> ChainPoint:
    if vertex not in CHAIN_VERTICES:
        raise DomainError(f"unknown spine vertex {vertex!r}")
    return _VERTEX_POINTS[vertex]


# ---------------------------------------------------------------------------
# Charts between the spine and the flat squares
# ---------------------------------------------------------------------------


def arc_leg(circle: str, t0: float, t1: float) -> ChartLeg:
    """The chart leg of the arc from t0 to t1 on one circle, raw angles in [0, 1].

    An arc may end on theta = 1/2 but not straddle it: a sub-diagonal circle
    switches chart branch there, and the arc's midpoint picks the branch
    (b = a + 1/2 while t0 + t1 <= 1).  arc_leg(circle, theta, theta) charts
    a single point.
    """
    if not (0.0 <= t0 <= 1.0 and 0.0 <= t1 <= 1.0):
        raise DomainError(f"chart angles {t0!r}, {t1!r} outside [0, 1]")
    if min(t0, t1) < 0.5 < max(t0, t1):
        raise ContractError(f"arc {circle} {t0!r} -> {t1!r} straddles the vertex at theta = 1/2")
    chart = _CIRCLE_CHART.get(circle)
    if chart is None:
        raise DomainError(f"unknown spine circle {circle!r}")
    (c1, c2), line = chart
    if line == B_HALF:
        return ChartLeg(c1, t0, t1, c2, 0.5, 0.5)
    if line == A_HALF:
        return ChartLeg(c1, 0.5, 0.5, c2, t0, t1)
    shift = 0.5 if t0 + t1 <= 1.0 else -0.5
    return ChartLeg(c1, t0, t1, c2, t0 + shift, t1 + shift)


def chain_to_config(p: ChainPoint) -> Configuration:
    c1, a, _, c2, b, _ = arc_leg(p.circle, p.theta, p.theta)
    return configuration(c1, a, c2, b)


def chart_on_spine(same_circle: bool, a: float, b: float) -> bool:
    """Whether raw chart values a, b in [0, 1] lie within EPS of a spine line,
    without building a configuration: same_circle picks the sub-diagonals
    |b - a| = 1/2, where the robots are half a turn apart, else the cross
    lines a = 1/2 and b = 1/2.  The lines agree across the square gluings, so
    a center robot (0 or 1) is tested as in the mixed square chart() puts it
    in."""
    if same_circle and not (reads_as_center(a) or reads_as_center(b)):
        return is_half_turn(a, b)
    return abs(a - 0.5) <= EPS or abs(b - 0.5) <= EPS


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------


def arc_dist(theta0: float, theta1: float) -> float:
    d = abs(theta0 - theta1)
    return min(d, 1.0 - d)


def is_half_turn(theta0: float, theta1: float) -> bool:
    """True when two angles on one circle lie half a turn apart, to EPS."""
    return abs(arc_dist(theta0, theta1) - 0.5) <= EPS


def is_antipodal(x: ChainPoint, y: ChainPoint) -> bool:
    """True when two interior points face each other across one circle."""
    if x.circle != y.circle or x.is_vertex or y.is_vertex:
        return False
    return is_half_turn(x.theta, y.theta)


# ---------------------------------------------------------------------------
# Moves along one circle
# ---------------------------------------------------------------------------


def arc_legs(circle: str, theta_from: float, theta_to: float, direction: int) -> list[ChartLeg]:
    """The chart legs of a directed arc move, cut at the vertices.

    The move runs from theta_from in the given direction (+1 with theta
    increasing) until it reaches theta_to, never a full turn or more.  It is
    cut at the multiples of 1/2 strictly between its ends, one arc_leg per
    piece, and it starts and ends on the given angles exactly (a raw chart
    angle of 1 standing for 0).  A move of at most SNAP_EPS is no move.
    """
    if direction not in (1, -1):
        raise DomainError(f"direction must be +1 or -1, got {direction!r}")
    t0 = theta_from % 1.0
    t1 = theta_to % 1.0
    if arc_dist(t0, t1) <= SNAP_EPS:
        return []
    # Raw chart angles: a positive piece may end at 1 but never start there,
    # a negative one the other way round.
    a, goal = (t0, t1 or 1.0) if direction > 0 else (t0 or 1.0, t1)
    legs = []
    while True:
        # the next vertex angle strictly beyond a
        end = 0.5 * (math.floor(2.0 * a) + 1) if direction > 0 else 0.5 * (math.ceil(2.0 * a) - 1)
        if min(a, end) <= goal <= max(a, end):
            legs.append(arc_leg(circle, a, goal))
            return legs
        legs.append(arc_leg(circle, a, end))
        a = end % 1.0 if direction > 0 else end or 1.0


def shortest_arc(theta_from: float, theta_to: float) -> tuple[int, float]:
    """(direction, span) of the shorter way around; a dead tie goes positive."""
    delta = (theta_to - theta_from) % 1.0
    if delta <= 0.5:
        return (1, delta)
    return (-1, 1.0 - delta)


def theta_on(circle: str, p: ChainPoint) -> float | None:
    """Angle of p on the given circle, None when p does not lie on it."""
    vertex = p.vertex
    if vertex is None:
        return p.theta if p.circle == circle else None
    pair = CIRCLE_VERTICES[circle]
    if vertex == pair[0]:
        return 0.0
    if vertex == pair[1]:
        return 0.5
    return None


VERTEX_CONFIG = {v: chain_to_config(vertex_point(v)) for v in CHAIN_VERTICES}
