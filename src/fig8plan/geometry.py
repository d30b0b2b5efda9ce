"""Coordinates and piecewise-linear trajectories for two robots on a figure-eight track.

The track is a pair of unit-circumference circles, A and B, glued at a single
point called the center.  A position is a circle label plus an arc fraction
s in [0, 1), measured so that s = 0 is the center and s = 1/2 is the circle's
pole, the point farthest from the center.  The center belongs to both circles;
its canonical form is (A, 0).

An ordered pair of distinct positions is a configuration.  Configurations
chart onto four unit squares keyed by the circles the robots occupy: AA, BB,
AB, BA, first letter for robot 1, second for robot 2.  Square edges are glued
wherever a robot sits at the center, the same-circle squares AA and BB lose
their diagonal (collisions), and all four corners of every square (both robots
at the center) are removed.  chart(c) is the one place a configuration's
square is decided: a center robot reads 0 in a mixed square, taking the
letter opposite the other robot's circle.

Trajectories are piecewise linear: between consecutive waypoints each robot
stays on one circle and its arc coordinate is affine in time.  Chart values
lie in [0, 1], so the center (0 or 1) can only be a segment's end; builders
split segments only at the pole, where a robot crosses 1/2, and every
segment lives in a single square chart.  PathSegment and PhysPath are plain
records: certify_path(path, start, goal) is the one trajectory
certificate.  It checks the form, the one collision rule
path_min_separation > 0, and both ends, all on chart values, so certifying
a path builds no configuration.

Two constants bound the admissible inputs (README, "Admissible inputs"):
EPS is the spine snap (spine.chain_point) and the endpoint and junction
tolerance; SNAP_EPS is the resolution below which motion is dropped
(path_from_legs, spine.arc_legs) and a coordinate reads as the center
(circle_point).
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from functools import reduce
from operator import add

from .errors import CollisionError, ContractError, DomainError

EPS = 1e-9
SNAP_EPS = 1e-12

CIRCLES = ("A", "B")
SAME_CIRCLE_SQUARES = ("AA", "BB")


def other_circle(circle: str) -> str:
    return "B" if circle == "A" else "A"


class CirclePoint(namedtuple("CirclePoint", "circle s")):
    """A position on the track: circle label and arc fraction s in [0, 1).

    s is 0 (the center) or at least SNAP_EPS from it on both sides, as
    circle_point makes it; this keeps the retraction scale finite.
    """

    __slots__ = ()

    def __new__(cls, circle: str, s: float):
        if circle not in CIRCLES:
            raise DomainError(f"unknown circle {circle!r}")
        if not (0.0 <= s < 1.0):
            raise DomainError(f"arc coordinate {s!r} outside [0, 1)")
        if 0.0 < s < SNAP_EPS or 1.0 - s < SNAP_EPS:
            raise DomainError(f"arc coordinate {s!r} reads as the center (circle_point)")
        return tuple.__new__(cls, (circle, s))


def reads_as_center(s: float) -> bool:
    """True for an arc value within SNAP_EPS of the center, 0 or 1."""
    return -SNAP_EPS < s < SNAP_EPS or -SNAP_EPS < s - 1.0 < SNAP_EPS


_CENTER = CirclePoint("A", 0.0)


def circle_point(circle: str, s: float) -> CirclePoint:
    """Construct a canonical position, wrapping s = 1 back to the center;
    the center is one shared object."""
    if reads_as_center(s):
        return _CENTER
    return CirclePoint(circle, s)


def dist_gamma(p: CirclePoint, q: CirclePoint) -> float:
    """Shortest-path distance along the track between two positions.

    On a shared circle this is ordinary circle distance; across circles every
    path runs through the center, so distances add up center-to-center.
    """
    return _chart_dist(p.circle == q.circle, p.s, q.s)


def _chart_dist(same_circle: bool, x: float, y: float) -> float:
    """dist_gamma of two arc values in [0, 1], on one circle or on two;
    a value of 1 is the center, like 0."""
    if same_circle:
        d = abs(x - y)
        return min(d, 1.0 - d)
    return min(x, 1.0 - x) + min(y, 1.0 - y)


class Configuration(namedtuple("Configuration", "p1 p2")):
    """An ordered, collision-free pair of canonical positions."""

    __slots__ = ()

    def __new__(cls, p1: CirclePoint, p2: CirclePoint):
        if p1.s == 0.0 and p1.circle != "A":
            raise DomainError(f"non-canonical center position {p1!r}")
        if p2.s == 0.0 and p2.circle != "A":
            raise DomainError(f"non-canonical center position {p2!r}")
        if p1 == p2:
            raise CollisionError(f"robots coincide at {p1!r}")
        return tuple.__new__(cls, (p1, p2))


def configuration(c1: str, s1: float, c2: str, s2: float) -> Configuration:
    """Convenience constructor canonicalizing both positions."""
    return Configuration(circle_point(c1, s1), circle_point(c2, s2))


def config_dist(x: Configuration, y: Configuration) -> float:
    """Distance between configurations: the larger of the two robots' moves."""
    return max(dist_gamma(x.p1, y.p1), dist_gamma(x.p2, y.p2))


def chart_config_dist(c1: str, a: float, c2: str, b: float, y: Configuration) -> float:
    """config_dist(configuration(c1, a, c2, b), y), bit for bit, without
    building the configuration: a value that reads as the center is the
    center, as circle_point makes it."""
    if reads_as_center(a):
        c1, a = _CENTER
    if reads_as_center(b):
        c2, b = _CENTER
    (y1, ys1), (y2, ys2) = y
    return max(_chart_dist(c1 == y1, a, ys1), _chart_dist(c2 == y2, b, ys2))


def chart(c: Configuration) -> tuple[str, float, float]:
    """The square of a configuration and its chart values (a, b) there.

    A robot at the center reads 0 and takes the letter of the circle opposite
    the other robot's, so a center state lies in a mixed square;
    configuration(square[0], a, square[1], b) gives c back.
    """
    (c1, a), (c2, b) = c
    if a == 0.0:
        return other_circle(c2) + c2, 0.0, b
    if b == 0.0:
        return c1 + other_circle(c1), a, 0.0
    return c1 + c2, a, b


def parse_position(text: str) -> CirclePoint:
    """Parse a position literal of the form ``A:0.25`` or ``B:0``."""
    head, sep, tail = text.partition(":")
    if not sep or head not in CIRCLES:
        raise DomainError(f"position {text!r} does not match <A|B>:<decimal>")
    try:
        s = float(tail)
    except ValueError as exc:
        raise DomainError(f"position {text!r} has a malformed coordinate") from exc
    if not (0.0 <= s < 1.0) or not math.isfinite(s):
        raise DomainError(f"position coordinate {s!r} outside [0, 1)")
    return circle_point(head, s)


# ---------------------------------------------------------------------------
# Piecewise-linear trajectories
# ---------------------------------------------------------------------------

class PathSegment(namedtuple("PathSegment", "t0 t1 circle1 a0 a1 circle2 b0 b1")):
    """One affine leg of a trajectory, a plain record (certify_path checks it).

    Chart values lie in [0, 1]; a value of 1 is the center seen from
    the far side of a circle, so a single segment never wraps.
    """

    __slots__ = ()


class PhysPath(namedtuple("PhysPath", "segments")):
    """A piecewise-linear trajectory over t in [0, 1], a plain record of its
    segments (certify_path checks it)."""

    __slots__ = ()

    def chart_at(self, t: float) -> tuple[str, float, str, float]:
        """Circle and chart value of each robot, (circle1, a, circle2, b), at
        time t, exact at the segment ends (waypoints)."""
        if not (0.0 <= t <= 1.0):
            raise DomainError(f"time {t!r} outside [0, 1]")
        seg = self.segments[bisect.bisect_right(self.segments, t, key=lambda s: s.t0) - 1]
        a, b = _chart_at(seg, t)
        return seg.circle1, a, seg.circle2, b


def certify_path(path: PhysPath, start: Configuration, goal: Configuration) -> tuple[float, float]:
    """Certify a trajectory from start to goal; raises ContractError naming
    the first defect, else returns (endpoint error, minimum separation).

    Three checks, in this order.  First the form, segment by segment: times
    start at 0, run contiguously and strictly increase to 1; circles are
    known, chart values lie in [0, 1], and no coordinate crosses the pole
    inside a segment; consecutive segments meet within EPS (config_dist's
    metric), and no waypoint has both robots reading as the center, the
    only place robots on two circles meet.  Then the one collision rule: a
    meeting on one circle is path_min_separation's to find, and a path of
    sound form is collision-free exactly when its separation is positive,
    so its ends read as configurations.  Last, the first and last waypoints
    lie within EPS of start and goal, measured on their chart values
    (chart_config_dist).
    """
    t, end = 0.0, None  # the previous segment's end time and (circle1, a1, circle2, b1)
    for t0, t1, c1, a0, a1, c2, b0, b1 in path.segments:
        if not t1 > t0:
            raise ContractError(f"segment times must strictly increase, not run {t0} -> {t1}")
        if t0 != t:
            raise ContractError(f"trajectory times must run contiguously from 0: t={t0} follows t={t}")
        for c, v0, v1 in ((c1, a0, a1), (c2, b0, b1)):
            if c not in CIRCLES:
                raise ContractError(f"unknown circle {c!r}")
            if not (0.0 <= v0 <= 1.0 and 0.0 <= v1 <= 1.0):
                raise ContractError(f"chart values {v0!r} -> {v1!r} outside [0, 1]")
            if v0 < 0.5 < v1 or v1 < 0.5 < v0:
                raise ContractError("segment interior crosses arc value 0.5; split required")
        if end and end != (c1, a0, c2, b0):
            e1, ea, e2, eb = end
            if max(_chart_dist(c1 == e1, a0, ea), _chart_dist(c2 == e2, b0, eb)) > EPS:
                raise ContractError(f"trajectory waypoints disagree across a junction at t={t0}")
        for w, a, b in ((t0, a0, b0), (t1, a1, b1)):
            if reads_as_center(a) and reads_as_center(b):
                raise ContractError(f"robots coincide at the center at t={w}")
        t, end = t1, (c1, a1, c2, b1)
    if t != 1.0:
        raise ContractError(f"trajectory times must run to 1, not stop at t={t}")
    sep = path_min_separation(path)
    if sep <= 0.0:
        raise ContractError(f"path separation dropped to {sep}")
    _, _, c1, a0, _, c2, b0, _ = path.segments[0]
    d1, a1, d2, b1 = end
    err = max(chart_config_dist(c1, a0, c2, b0, start), chart_config_dist(d1, a1, d2, b1, goal))
    if err > EPS:
        ends = configuration(c1, a0, c2, b0), configuration(d1, a1, d2, b1)
        raise ContractError(f"endpoint err {err:.3e}: the path runs {ends[0]} -> {ends[1]}")
    return err, sep


class ChartLeg(namedtuple("ChartLeg", "circle1 a0 a1 circle2 b0 b1")):
    """Unsplit straight-line chart motion used to assemble trajectories."""

    __slots__ = ()

    @property
    def sweep(self) -> float:
        return max(abs(self.a1 - self.a0), abs(self.b1 - self.b0))


def path_from_legs(legs: list[ChartLeg]) -> PhysPath:
    """Assemble a trajectory from chart legs.

    Legs are cut straight into segments where a coordinate crosses the pole,
    1/2: chart values lie in [0, 1], so the center, 0 or 1, is at most a
    leg's end, and the pole is the only interior cut.  A piece starts and
    ends on its leg's own endpoint values, and at a cut the crossing
    coordinate is exactly 1/2.  Pieces are timed proportionally to arc sweep
    and normalized to t in [0, 1].  Sweeps are added left to right: builtin
    sum() compensates float sums from Python 3.12 on, so the times would
    differ between Python versions.  A piece that sweeps at most SNAP_EPS
    times the total is dropped: below that resolution its times could not
    increase strictly, and the dropped motion stays far below EPS.  A
    stationary input yields a constant trajectory.
    """
    pieces, sweeps = [], []  # (circle1, a0, a1, circle2, b0, b1) and its sweep
    for leg in legs:
        c1, a0, a1, c2, b0, b1 = leg
        if a0 < 0.5 < a1 or a1 < 0.5 < a0 or b0 < 0.5 < b1 or b1 < 0.5 < b0:
            _cut_at_pole(pieces, sweeps, c1, a0, a1, c2, b0, b1)
        else:
            pieces.append(leg)
            sweeps.append(max(abs(a1 - a0), abs(b1 - b0)))
    total = reduce(add, sweeps, 0.0)
    floor = SNAP_EPS * total
    if not (sweeps and min(sweeps) > floor):  # some piece drops, or NaN made floor NaN
        kept = [k for k, sweep in enumerate(sweeps) if sweep > floor]
        if not kept:
            if not legs:
                raise DomainError("cannot build a trajectory from no legs")
            first = legs[0]
            return constant_path(configuration(first.circle1, first.a0, first.circle2, first.b0))
        pieces = [pieces[k] for k in kept]
        sweeps = [sweeps[k] for k in kept]
        total = reduce(add, sweeps, 0.0)
    segments = []
    acc = t1 = 0.0
    for (c1, a0, a1, c2, b0, b1), sweep in zip(pieces, sweeps):
        t0 = t1
        acc += sweep  # the same additions as total, so the last t1 is exactly 1
        t1 = acc / total
        segments.append(PathSegment(t0, t1, c1, a0, a1, c2, b0, b1))
    return PhysPath(tuple(segments))


def _cut_at_pole(pieces: list, sweeps: list, c1, a0, a1, c2, b0, b1) -> None:
    """Append the pieces and sweeps of a leg cut where a coordinate crosses the pole."""
    ua = (0.5 - a0) / (a1 - a0) if min(a0, a1) < 0.5 < max(a0, a1) else None
    ub = (0.5 - b0) / (b1 - b0) if min(b0, b1) < 0.5 < max(b0, b1) else None
    points = [(a0, b0)]
    for u in sorted({ua, ub} - {None}):
        points.append((0.5 if u == ua else a0 + u * (a1 - a0), 0.5 if u == ub else b0 + u * (b1 - b0)))
    points.append((a1, b1))
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        pieces.append((c1, x0, x1, c2, y0, y1))
        sweeps.append(max(abs(x1 - x0), abs(y1 - y0)))


def constant_path(c: Configuration) -> PhysPath:
    """The trajectory that parks both robots at a configuration."""
    (c1, s1), (c2, s2) = c
    return PhysPath((PathSegment(0.0, 1.0, c1, s1, s1, c2, s2, s2),))


def path_min_separation(path: PhysPath) -> float:
    """Exact smallest distance between the robots along a trajectory.

    The minimum over a segment sits at one of its two waypoints unless the
    robots pass each other inside it, so the path minimum is read off the
    waypoints.  Within a segment each robot moves affinely in one chart and
    never crosses the center or a pole (0, 1/2 or 1) in the interior:

    * Cross-circle segments: the distance is min(x, 1 - x) + min(y, 1 - y),
      and each term is affine while its robot stays inside one half circle,
      so the sum is affine in time and is smallest at an endpoint.
    * Same-circle segments: with delta = a - b affine in time, the distance
      is min(|delta|, 1 - |delta|).  While delta keeps its sign, |delta| is
      affine and the minimum of two affine functions is concave, so again
      the smallest value is at an endpoint.  If delta changes sign, the
      robots meet inside the segment and the minimum is 0.
    """
    best = math.inf
    for _, _, c1, a0, a1, c2, b0, b1 in path.segments:
        if c1 == c2:
            d0, d1 = a0 - b0, a1 - b1
            if d0 < 0.0 < d1 or d1 < 0.0 < d0:
                return 0.0
            d = min(min(abs(d0), 1.0 - abs(d0)), min(abs(d1), 1.0 - abs(d1)))
        else:
            d = min(min(a0, 1.0 - a0) + min(b0, 1.0 - b0), min(a1, 1.0 - a1) + min(b1, 1.0 - b1))
        if d < best:
            best = d
    return best


def _chart_at(seg: PathSegment, t: float) -> tuple[float, float]:
    """Chart values of a segment at a time in [t0, t1], exact at both ends."""
    if t == seg.t0:
        return seg.a0, seg.b0
    if t == seg.t1:
        return seg.a1, seg.b1
    u = (t - seg.t0) / (seg.t1 - seg.t0)
    return seg.a0 + u * (seg.a1 - seg.a0), seg.b0 + u * (seg.b1 - seg.b0)


def path_sup_distance(p: PhysPath, q: PhysPath) -> float:
    """Exact largest configuration distance between two trajectories over t.

    The segment times of both paths are merged in one sweep.  On each merged
    interval every robot of each path moves affinely in one chart and does
    not reach 0, 1/2 or 1 in the interior, so per robot, with x its chart
    value on p and y on q:

    * Different circles: the distance min(x, 1 - x) + min(y, 1 - y) is
      affine in time, so its largest value is at an interval end.
    * One circle: with d = x - y affine in time, the distance is
      min(|d|, 1 - |d|).  Its only interior maxima are where |d| = 1/2,
      and there it equals 1/2.

    At the center both formulas agree, so the circle label of a robot there
    does not matter.  The supremum is therefore the largest interval-end
    value, or 1/2 where a same-circle d passes +-1/2; config_dist takes the
    larger robot, and the supremum of a maximum is the maximum of suprema.
    Both sides of a junction are read, so a jump within the junction
    tolerance counts too.
    """
    worst = 0.0
    ps, qs = p.segments, q.segments
    i = j = 0
    t0 = 0.0
    while True:
        sp, sq = ps[i], qs[j]
        t1 = min(sp.t1, sq.t1)
        (pa0, pb0), (pa1, pb1) = _chart_at(sp, t0), _chart_at(sp, t1)
        (qa0, qb0), (qa1, qb1) = _chart_at(sq, t0), _chart_at(sq, t1)
        for same, x0, x1, y0, y1 in (
            (sp.circle1 == sq.circle1, pa0, pa1, qa0, qa1),
            (sp.circle2 == sq.circle2, pb0, pb1, qb0, qb1),
        ):
            d = max(_chart_dist(same, x0, y0), _chart_dist(same, x1, y1))
            if same:
                d0, d1 = x0 - y0, x1 - y1
                lo, hi = min(d0, d1), max(d0, d1)
                if lo < 0.5 < hi or lo < -0.5 < hi:
                    d = 0.5
            if d > worst:
                worst = d
        if t1 == 1.0:
            return worst
        t0 = t1
        if sp.t1 == t1:
            i += 1
        if sq.t1 == t1:
            j += 1
