"""certify_path with a hand-built path's own ends as its start and goal.

The tests of a path's form and separation checks build paths that have no
planned start or goal.  Certified against its own first and last waypoints,
such a path is judged on its form and exact separation alone, and a passing
one has endpoint error 0.
"""

from fig8plan.errors import CollisionError, DomainError
from fig8plan.geometry import certify_path, configuration

# Stand-in ends for a path whose ends read as no configuration.  Such a path
# fails the form or the separation check, which certify_path runs before it
# reads the ends.
_UNREAD = configuration("A", 0.25, "B", 0.25)


def certify_alone(path):
    """certify_path(path, start, goal) with start and goal the path's own ends."""
    try:
        _, _, c1, a0, _, c2, b0, _ = path.segments[0]
        _, _, d1, _, a1, d2, _, b1 = path.segments[-1]
        ends = configuration(c1, a0, c2, b0), configuration(d1, a1, d2, b1)
    except (CollisionError, DomainError, IndexError):
        ends = _UNREAD, _UNREAD
    return certify_path(path, *ends)
