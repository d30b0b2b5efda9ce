"""Requests next to the removed corners and the diagonal plan like any other.

The retraction scale is largest next to the double-center corner and next to
the same-circle corner states, and two robots may sit a hair apart on one
circle.  Every valid request drawn from these bands must get a validated
plan that starts and ends on its endpoints.
"""

from random import Random

from fig8plan.errors import CollisionError
from fig8plan.geometry import EPS, config_dist, configuration, path_min_separation
from fig8plan.planner import plan, validate_plan


def _tiny(rng: Random) -> float:
    return 10.0 ** rng.uniform(-13.0, -9.0)


def _off_center(rng: Random) -> float:
    return _tiny(rng) if rng.random() < 0.5 else 1.0 - _tiny(rng)


def _near_corner(rng: Random) -> tuple[str, float, str, float]:
    band = rng.randrange(3)
    if band == 0:
        # both robots 1e-13 ... 1e-9 from the center, on either side of it
        return rng.choice("AB"), _off_center(rng), rng.choice("AB"), _off_center(rng)
    circle = rng.choice("AB")
    if band == 1:
        # one circle, the robots 1e-13 ... 1e-9 apart
        s = rng.random()
        gap = _tiny(rng) if rng.random() < 0.5 else -_tiny(rng)
        return circle, s, circle, (s + gap) % 1.0
    # one circle, one robot just past the center and the other just before it
    if rng.random() < 0.5:
        return circle, _tiny(rng), circle, 1.0 - _tiny(rng)
    return circle, 1.0 - _tiny(rng), circle, _tiny(rng)


def near_corner_requests(rng: Random, n: int):
    """Yield n (start, goal) chart tuples: one endpoint from a near-corner
    band, the other uniform or from a band too, in random order.  Some
    requests are invalid (both robots snap onto one point) and are yielded
    anyway, so a caller counts the valid ones."""
    for _ in range(n):
        a = _near_corner(rng)
        if rng.random() < 0.5:
            b = _near_corner(rng)
        else:
            b = (rng.choice("AB"), rng.random(), rng.choice("AB"), rng.random())
        yield (a, b) if rng.random() < 0.5 else (b, a)


def test_near_corner_requests_plan_and_validate():
    planned = 0
    for raw_start, raw_goal in near_corner_requests(Random(20261018), 2000):
        try:
            start, goal = configuration(*raw_start), configuration(*raw_goal)
        except CollisionError:
            continue
        p = plan(start, goal)
        validate_plan(p)
        assert config_dist(configuration(*p.path.chart_at(0.0)), start) <= EPS
        assert config_dist(configuration(*p.path.chart_at(1.0)), goal) <= EPS
        assert path_min_separation(p.path) > 0.0
        planned += 1
    assert planned > 1500
