"""Checks that run on raw chart floats, against the configuration-built oracles.

Path assembly, certify_path's junction check and plan certification read a
segment's chart values directly instead of building and charting a
Configuration for every point.  Each test here draws seeded chart values,
with a heavy share of the places where the two can part (raw 0 and 1 at the
center, values within SNAP_EPS of it, points within EPS of a spine line, legs
ending exactly on 0, 1/2 or 1), and compares with the computation the
chart-value form replaced.
"""

from random import Random

import pytest

from fig8plan.errors import CollisionError, ContractError
from fig8plan.geometry import (
    EPS,
    SNAP_EPS,
    ChartLeg,
    PathSegment,
    PhysPath,
    chart,
    config_dist,
    configuration,
    path_from_legs,
    reads_as_center,
)
from fig8plan.spine import chart_on_spine

from certify_alone import certify_alone
from spine_reference import on_spine

# Raw chart values at the center, around it, and at the pole.
_SPECIAL = (0.0, 1.0, 0.5, 1e-13, 1.0 - 1e-13, SNAP_EPS, 1.0 - 2 * SNAP_EPS)


def _value(rng: Random) -> float:
    r = rng.random()
    if r < 0.3:
        return rng.choice(_SPECIAL)
    if r < 0.6:
        # within a few EPS of the pole
        return 0.5 + rng.uniform(-2.0, 2.0) * EPS
    return rng.random()


def _oracle_on_spine(c1, a, c2, b):
    """The old certificate: build the configuration, chart it, test it."""
    return on_spine(*chart(configuration(c1, a, c2, b)))


def test_chart_on_spine_matches_configuration_oracle():
    rng = Random(20261018)
    checked = 0
    for _ in range(40_000):
        c1, c2 = rng.choice("AB"), rng.choice("AB")
        a = _value(rng)
        if c1 == c2 and rng.random() < 0.5:
            # near a sub-diagonal spine line |b - a| = 1/2
            b = a + rng.choice((0.5, -0.5)) + rng.uniform(-2.0, 2.0) * EPS
            if not 0.0 <= b <= 1.0:
                continue
        else:
            b = _value(rng)
        try:
            expected = _oracle_on_spine(c1, a, c2, b)
        except CollisionError:
            continue
        assert chart_on_spine(c1 == c2, a, b) == expected, (c1, a, c2, b)
        checked += 1
    assert checked > 30_000


@pytest.mark.parametrize("center", (0.0, 1.0, 1e-13, 1.0 - 1e-13))
def test_chart_on_spine_at_the_center(center):
    # A center robot moves the point to a mixed square: on the spine exactly
    # when the other robot is within EPS of its pole, whichever raw value
    # and circle label the center carries.  Read in a same-circle square
    # instead, a center value other than 0 would shift the verdict by
    # 1e-13 at the edge of the EPS band.
    edge = EPS + 5e-14
    for c1 in "AB":
        for c2 in "AB":
            for b in (0.5, 0.5 + 0.9 * EPS, 0.5 - 0.9 * EPS, 0.5 + edge, 0.5 - edge, 0.3, 0.75):
                expected = _oracle_on_spine(c1, center, c2, b)
                assert chart_on_spine(c1 == c2, center, b) == expected
                assert chart_on_spine(c1 == c2, b, center) == _oracle_on_spine(c1, b, c2, center)
                assert expected == (abs(b - 0.5) <= EPS)


def _junction(rng: Random):
    """The end of one segment and the start of the next, up to ~2 EPS apart,
    written on the same circle label or, at the center, on the other one;
    now and then the start is moved to the other circle outright."""
    ends, starts = [], []
    for _ in range(2):
        c, v = rng.choice("AB"), _value(rng)
        w = min(1.0, max(0.0, v + rng.uniform(-2.0, 2.0) * EPS * rng.choice((0.0, 1.0))))
        d = c if rng.random() < 0.95 else "B" if c == "A" else "A"
        if w < 1e-8 or w > 1.0 - 1e-8:
            d = rng.choice("AB")
            w = rng.choice((w, 1.0 - w))  # the center is 0 or 1 on either circle
        ends.append((c, v))
        starts.append((d, w))
    return ends, starts


def test_junction_check_matches_config_dist():
    rng = Random(7)
    checked = rejected = 0
    for _ in range(20_000):
        ((c1, a), (c2, b)), ((d1, x), (d2, y)) = _junction(rng)
        try:
            end, start = configuration(c1, a, c2, b), configuration(d1, x, d2, y)
        except CollisionError:
            continue
        gap = config_dist(end, start)
        if abs(gap - EPS) <= 4 * SNAP_EPS:
            continue  # the snap to the center moves a distance by up to SNAP_EPS
        first = PathSegment(0.0, 0.5, c1, a, a, c2, b, b)
        path = PhysPath((first, PathSegment(0.5, 1.0, d1, x, x, d2, y, y)))
        if gap > EPS:
            with pytest.raises(ContractError, match="disagree across a junction"):
                certify_alone(path)
            rejected += 1
        else:
            certify_alone(path)
            assert configuration(*path.chart_at(0.25)) == end
        checked += 1
    assert checked > 15_000 and 1000 < rejected < checked - 1000


@pytest.mark.parametrize(
    "end, start, goal",
    (
        # robot 2 closes a 5e-10 gap inside the junction
        (("A", 0.3, "A", 0.3 + 5e-10), ("A", 0.3, "A", 0.3), ("A", 0.2, "A", 0.4)),
        # both robots at the center, written 1 and 1e-13
        (("A", 0.0, "B", 4e-10), ("A", 1.0, "B", 1e-13), ("A", 0.8, "B", 0.2)),
    ),
)
def test_junction_start_side_keeps_its_collision_check(end, start, goal):
    # The start side of the junction is within EPS of a valid end side, so
    # only a check of the start side itself can refuse it: certify_path's
    # center check for two robots at the center, else the exact separation.
    # The oracle refuses it too.
    with pytest.raises(CollisionError):
        configuration(*start)
    (c1, a, c2, b), (d1, x, d2, y), (_, x1, _, y1) = end, start, goal
    first = PathSegment(0.0, 0.5, c1, a, a, c2, b, b)
    second = PathSegment(0.5, 1.0, d1, x, x1, d2, y, y1)
    at_center = reads_as_center(x) and reads_as_center(y)
    message = "robots coincide at the center at t=0.5" if at_center else "separation dropped to 0.0"
    with pytest.raises(ContractError, match=message):
        certify_alone(PhysPath((first, second)))


# The cut of path assembly before it was reduced to the pole: every critical
# value strictly inside a leg, each mapped from its fraction of the way.
_CRITICAL = (0.0, 0.5, 1.0)


def _old_cuts(v0: float, v1: float) -> dict[float, float]:
    low, high = min(v0, v1), max(v0, v1)
    return {(crit - v0) / (v1 - v0): crit for crit in _CRITICAL if low < crit < high}


def _old_pieces(leg: ChartLeg) -> list[tuple]:
    cut_a, cut_b = _old_cuts(leg.a0, leg.a1), _old_cuts(leg.b0, leg.b1)
    points = [(leg.a0, leg.b0)]
    for u in sorted(cut_a.keys() | cut_b.keys()):
        a = cut_a.get(u, leg.a0 + u * (leg.a1 - leg.a0))
        b = cut_b.get(u, leg.b0 + u * (leg.b1 - leg.b0))
        points.append((a, b))
    points.append((leg.a1, leg.b1))
    pieces = [
        (leg.circle1, a0, a1, leg.circle2, b0, b1)
        for (a0, b0), (a1, b1) in zip(points, points[1:])
    ]
    # path assembly then drops the pieces below its resolution, as it did before
    sweeps = [max(abs(a1 - a0), abs(b1 - b0)) for _, a0, a1, _, b0, b1 in pieces]
    return [p for p, w in zip(pieces, sweeps) if w > SNAP_EPS * sum(sweeps)]


def _plannable(pieces: list[tuple]) -> bool:
    """Some motion, and no end puts both robots at the center."""
    return bool(pieces) and all(
        not (a0 in (0.0, 1.0) and b0 in (0.0, 1.0))
        and not (a1 in (0.0, 1.0) and b1 in (0.0, 1.0))
        for _, a0, a1, _, b0, b1 in pieces
    )


def _segments(leg: ChartLeg) -> list[tuple]:
    return [(s.circle1, s.a0, s.a1, s.circle2, s.b0, s.b1) for s in path_from_legs([leg]).segments]


def test_pole_only_cut_matches_three_value_cut():
    rng = Random(3)
    checked = 0
    for _ in range(20_000):
        vals = [rng.choice((0.0, 0.5, 1.0)) if rng.random() < 0.5 else rng.random() for _ in range(4)]
        leg = ChartLeg("A", vals[0], vals[1], "B", vals[2], vals[3])
        expected = _old_pieces(leg)
        if _plannable(expected):
            assert _segments(leg) == expected, leg
            checked += 1
    assert checked > 5000


def test_pole_only_cut_on_legs_ending_at_critical_values():
    checked = 0
    for a0, a1 in ((0.0, 0.5), (0.5, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.2), (0.2, 1.0)):
        for b0, b1 in ((0.3, 0.7), (0.5, 0.25), (0.75, 0.5), (0.9, 0.1), (0.5, 0.5)):
            leg = ChartLeg("A", a0, a1, "B", b0, b1)
            expected = _old_pieces(leg)
            assert _segments(leg) == expected, leg
            checked += 1
    assert checked == 30
