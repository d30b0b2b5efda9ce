"""Output checks written independently of the program.

A plan is checked only through its JSON text.  Between two consecutive
waypoints each robot moves affinely inside one half circle (center to pole),
because the planner splits every leg at those points.  A robot that goes from
the center to a pole may have used either half of its circle; the JSON does
not say which, so a leg is accepted when some reading keeps the robots apart.
The program lets consecutive legs meet within 1e-9, so before the legs are
read every coordinate within 1e-9 of the center or a pole is put on it; plans
keep the robots far more than that apart.  On a leg the track distance
between the robots is concave in time, except that robots on one circle meet
where their chart difference changes sign, so the exact minimum over a leg is
taken at its ends or is zero.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

from gen import track_dist

ENDPOINT_TOL = 1e-9
JUNCTION_TOL = 1e-9
MAX_HOPS = 7
SPINE_ARCS = 12


class CheckError(Exception):
    """A program output that is wrong."""


def _half(s: float) -> float:
    return min(s, 1.0 - s)


def _center_charts(s: float) -> tuple[float, ...]:
    # chart value of the center on the half circle that holds s
    if s < 0.5:
        return (0.0,)
    if s > 0.5:
        return (1.0,)
    return (0.0, 1.0)


def _snap(p) -> tuple[str, float]:
    circle, s = p
    for mark in (0.0, 0.5, 1.0):
        if abs(s - mark) <= JUNCTION_TOL:
            return ("A", 0.0) if mark != 0.5 else (circle, 0.5)
    return p


def _readings(p, q) -> list[tuple[str | None, float, float]]:
    """Possible chart motions (circle, x0, x1) of one robot from p to q."""
    (cp, sp), (cq, sq) = _snap(p), _snap(q)
    if sp == 0.0 and sq == 0.0:
        return [(None, 0.0, 0.0)]
    if sp == 0.0:
        return [(cq, c, sq) for c in _center_charts(sq)]
    if sq == 0.0:
        return [(cp, sp, c) for c in _center_charts(sp)]
    if cp != cq or (sp - 0.5) * (sq - 0.5) < 0.0:
        return []  # the robot would have to pass the center or a pole
    return [(cp, sp, sq)]


def _leg_separation(m1, m2) -> float:
    c1, x0, x1 = m1
    c2, y0, y1 = m2
    if c1 is not None and c1 == c2:
        d0, d1 = x0 - y0, x1 - y1
        if d0 * d1 < 0.0:
            return 0.0
        return min(min(abs(d), 1.0 - abs(d)) for d in (d0, d1))
    return min(_half(x0) + _half(y0), _half(x1) + _half(y1))


def min_separation(points) -> float:
    """Exact minimum robot distance along a polyline of configurations."""
    best = min(track_dist(_snap(p1), _snap(p2)) for p1, p2 in points)
    for (a1, a2), (b1, b2) in zip(points, points[1:]):
        r1, r2 = _readings(a1, b1), _readings(a2, b2)
        if not r1 or not r2:
            raise CheckError(f"a robot jumps between {(a1, a2)} and {(b1, b2)}")
        best = min(best, max(_leg_separation(m1, m2) for m1 in r1 for m2 in r2))
    return best


def _position(robot) -> tuple[str, float]:
    circle, s = robot["circle"], robot["s"]
    if circle not in ("A", "B") or not isinstance(s, (int, float)) or not 0.0 <= s <= 1.0:
        raise CheckError(f"bad position {robot!r}")
    # s may read 1 (the center) once the JSON has rounded it to 12 digits
    return circle, float(s)


def check_plan_json(text: str, request) -> float:
    """Check one plan's JSON against its request; returns the exact minimum separation."""
    try:
        doc = json.loads(text)
        instruction, hops, waypoints = doc["instruction"], doc["hops"], doc["waypoints"]
        ts = [w["t"] for w in waypoints]
        points = [(_position(w["r1"]), _position(w["r2"])) for w in waypoints]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"malformed plan JSON: {exc!r}") from None
    if instruction not in (1, 2, 3):
        raise CheckError(f"instruction {instruction!r} not in 1..3")
    if not isinstance(hops, int) or not 0 <= hops <= MAX_HOPS:
        raise CheckError(f"hop count {hops!r} outside 0..{MAX_HOPS}")
    if not all(isinstance(t, (int, float)) and math.isfinite(t) for t in ts):
        raise CheckError(f"times are not finite numbers: {ts}")
    if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise CheckError(f"t does not run strictly from 0 to 1: {ts}")
    start, goal = request
    for name, got, want in (("first", points[0], start), ("last", points[-1], goal)):
        err = max(track_dist(got[k], want[k]) for k in (0, 1))
        if err > ENDPOINT_TOL:
            raise CheckError(f"{name} waypoint {got} is {err:.3e} from {want}")
    sep = min_separation(points)
    if not sep > 0.0:
        raise CheckError(f"robots meet: minimum separation {sep!r}")
    return sep


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse: {exc}") from None
    arcs = sum(1 for el in root.iter() if "spine-arc" in el.get("class", "").split())
    if arcs != SPINE_ARCS:
        raise CheckError(f"SVG has {arcs} spine-arc elements, expected {SPINE_ARCS}")


def suite_record(report_json: dict) -> str:
    """Canonical text of a suite report without its timing, for the digest."""
    if report_json.get("pass") is not True:
        raise CheckError(f"suite failed: {report_json}")
    return json.dumps({k: v for k, v in report_json.items() if k != "elapsed_ms"}, sort_keys=True)
