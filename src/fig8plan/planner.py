"""Three-instruction trajectory planner.

A plan runs in three phases: retract the start configuration onto the spine,
walk the spine to the goal's image, then play the goal's retraction leg
backwards.  The chart legs of all three phases are assembled into one
trajectory in a single pass.  The middle phase is one walk, carrying out one
of three instructions keyed to how degenerate the endpoint pair is on the
spine:

  1  both images interior and not facing each other across a circle,
  2  one image a vertex, or the images an antipodal interior pair,
  3  both images vertices.

Every vertex-to-vertex hop of the walk is the positive half-turn along the
current vertex's designated circle, so it follows the successor ring, the
cyclic vertex order of spine.CHAIN_VERTICES, and a walk has at most three
parts.  When the goal lies on the start's circle, it is the final arc alone.
Otherwise it is a positive partial hop to the next vertex (none from a
vertex), then a slice of the ring that stops one vertex before a goal
vertex, or at the vertex whose designated circle holds an interior goal,
then the final arc along that circle.  The final arc is the shortest arc to
the goal; instruction 1 leaves a half-turn tie to the shortest-arc rule, and
instructions 2 and 3 break it positively, which keeps instruction 2 stable
under perturbation of an antipodal pair.  A walk makes at most seven arc
moves (MAX_HOPS): a partial hop, five ring hops and a final arc.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from functools import reduce
from operator import add

from .errors import ContractError
from .geometry import (
    SNAP_EPS,
    ChartLeg,
    Configuration,
    certify_path,
    circle_point,
    constant_path,
    path_from_legs,
    reads_as_center,
)
from .retraction import retract
from .spine import (
    CHAIN_VERTICES,
    VERTEX_CANONICAL,
    ChainPoint,
    arc_dist,
    arc_leg,
    arc_legs,
    chart_on_spine,
    is_antipodal,
    is_half_turn,
    shortest_arc,
    theta_on,
)


# The plan contract's bounds on the walk: arc moves, and length along the spine.
MAX_HOPS = 7
MAX_CHAIN_LENGTH = 4.0


class InstructionDomain(enum.Enum):
    U1 = 1
    U2 = 2
    U3 = 3


def classify_domain(x: ChainPoint, y: ChainPoint) -> InstructionDomain:
    x_vertex, y_vertex = x.is_vertex, y.is_vertex
    if x_vertex and y_vertex:
        return InstructionDomain.U3
    if x_vertex or y_vertex or is_antipodal(x, y):
        return InstructionDomain.U2
    return InstructionDomain.U1


# The chart leg of each vertex's designated half-turn, in successor order.
_RING = tuple(arc_leg(c, t, t + 0.5) for c, t in (VERTEX_CANONICAL[v] for v in CHAIN_VERTICES))
# Per circle, the ring index and angle of the vertex designated to it; a
# vertex is stored on its designated circle, so this is also the ring index
# of a vertex point.
_RING_AT = {c: (i, t) for i, (c, t) in enumerate(VERTEX_CANONICAL[v] for v in CHAIN_VERTICES)}


def _final_arc(circle: str, theta: float, goal_theta: float, positive_ties: bool) -> list[list[ChartLeg]]:
    """The arc move from theta to goal_theta on one circle; none for a move
    of at most SNAP_EPS."""
    if positive_ties and is_half_turn(theta, goal_theta):
        direction = 1
    else:
        direction, _ = shortest_arc(theta, goal_theta)
    legs = arc_legs(circle, theta, goal_theta, direction)
    return [legs] if legs else []


def plan_steps(start: ChainPoint, goal: ChainPoint) -> tuple[InstructionDomain, list[list[ChartLeg]]]:
    """Classify a pair of spine points and walk from start to goal.

    Each entry of the walk is one arc move, the list of its chart legs
    (spine.arc_legs), each leg ending where the next one starts.
    """
    domain = classify_domain(start, goal)
    if start == goal:
        return domain, []
    positive_ties = domain is not InstructionDomain.U1
    circle, theta = start
    i, vertex_theta = _RING_AT[circle]
    moves: list[list[ChartLeg]] = []
    if theta != vertex_theta:  # an interior start
        goal_theta = theta_on(circle, goal)
        if goal_theta is not None:
            return domain, _final_arc(circle, theta, goal_theta, positive_ties)
        # the hop ends at the designated vertex unless theta lies on the
        # designated half arc, which leads on to the next vertex
        target = 0.5 if theta < 0.5 else 0.0
        if arc_dist(theta, target) > SNAP_EPS:
            moves.append([arc_leg(circle, theta, target or 1.0)])
        if target != vertex_theta:
            i += 1
    goal_circle, goal_theta = goal
    j, goal_vertex_theta = _RING_AT[goal_circle]
    n = len(_RING)
    moves += [[_RING[k % n]] for k in range(i, i + (j - i) % n)]
    if goal_theta != goal_vertex_theta:  # an interior goal
        moves += _final_arc(goal_circle, goal_vertex_theta, goal_theta, positive_ties)
    return domain, moves


class Plan(
    namedtuple(
        "Plan",
        "start goal domain chain_start chain_goal chain_length hop_count path spine_interval"
        " trace_in trace_out",
    )
):
    """A complete collision-free trajectory between two configurations.

    start and goal are Configurations, chain_start and chain_goal their spine
    images, chain_length the length of the walk between them along the spine
    in hop_count arc moves, and path the PhysPath, on the spine for t in
    spine_interval.  trace_in is the start's retraction ChartLeg and
    trace_out the goal's, already reversed to run towards the goal.  Each
    holds one leg, or none when the leg has zero sweep (an endpoint on the
    spine that does not snap onto a vertex).
    """

    __slots__ = ()

    @property
    def instruction(self) -> int:
        return self.domain.value


def plan(start: Configuration, goal: Configuration) -> Plan:
    """Plan a collision-free trajectory from start to goal; validate_plan
    certifies it."""
    r_in = retract(start)
    r_out = retract(goal)
    domain, moves = plan_steps(r_in.point, r_out.point)
    steps = tuple(itertools.chain.from_iterable(moves))

    # A retraction leg of zero sweep (an endpoint already on the spine, not
    # snapped onto a vertex) adds no motion; the goal's leg is played backwards.
    sw_in, sw_out = r_in.leg.sweep, r_out.leg.sweep
    legs_in = (r_in.leg,) if sw_in > 0.0 else ()
    c1, a0, a1, c2, b0, b1 = r_out.leg
    legs_out = (ChartLeg(c1, a1, a0, c2, b1, b0),) if sw_out > 0.0 else ()
    legs = [*legs_in, *steps, *legs_out]
    if legs:
        path = path_from_legs(legs)
    else:
        path = constant_path(start)

    # added left to right, the same on every Python (see path_from_legs)
    sw_spine = reduce(add, (leg.sweep for leg in steps), 0.0)
    total = sw_in + sw_spine + sw_out
    if total > 0.0:
        interval = (sw_in / total, (sw_in + sw_spine) / total)
    else:
        interval = (0.0, 1.0)

    return Plan(
        start, goal, domain, r_in.point, r_out.point, sw_spine, len(moves), path, interval,
        legs_in, legs_out,
    )


def plan_to_json(p: Plan) -> dict:
    """JSON-ready summary: instruction number, hop count, timed waypoints.

    The waypoints are the path's segment ends, the floats themselves: t is
    0.0 and then each segment's end time, and each robot's chart value is
    written as the position (circle, s) it stands for.  A value that reads
    as the center is written as circle_point writes it, A:0 (other values
    need no canonical form, so no position is built).
    """
    first = p.path.segments[0]
    ends = [(0.0, first.circle1, first.a0, first.circle2, first.b0)]
    ends += [(t1, c1, a1, c2, b1) for _, t1, c1, _, a1, c2, _, b1 in p.path.segments]
    waypoints = []
    for t, c1, s1, c2, s2 in ends:
        if reads_as_center(s1):
            c1, s1 = circle_point(c1, s1)
        if reads_as_center(s2):
            c2, s2 = circle_point(c2, s2)
        waypoints.append({"t": t, "r1": {"circle": c1, "s": s1}, "r2": {"circle": c2, "s": s2}})
    return {"instruction": p.instruction, "hops": p.hop_count, "waypoints": waypoints}


def validate_plan(p: Plan) -> tuple[float, float]:
    """Check a plan's contract; raises ContractError with a witness on failure.

    certify_path(p.path, p.start, p.goal) certifies the path's form, its
    exact separation and both ends.  Each spine segment (one whose midpoint
    time lies in spine_interval) is straight in its square, and a square
    holds at most two straight spine lines, so a segment whose start,
    midpoint and end are on the spine lies on one of those lines throughout.
    The three points are tested on the segment's own chart values
    (chart_on_spine).  Last come the bounds on hops and chain length.  A
    passing plan builds no configuration.
    Returns certify_path's (endpoint error, minimum separation).
    """
    err, sep = certify_path(p.path, p.start, p.goal)
    t0, t1 = p.spine_interval
    if t1 > t0:
        for s0, s1, c1, a0, a1, c2, b0, b1 in p.path.segments:
            tm = 0.5 * (s0 + s1)
            if not t0 <= tm <= t1:
                continue
            for t, a, b in ((s0, a0, b0), (tm, 0.5 * (a0 + a1), 0.5 * (b0 + b1)), (s1, a1, b1)):
                if not chart_on_spine(c1 == c2, a, b):
                    raise ContractError(f"plan leaves the spine at t={t}: {c1 + c2} ({a}, {b})")
    else:
        # collapsed interval: both retraction images coincide, so the single
        # middle instant must sit on the spine
        c1, a, c2, b = p.path.chart_at(t0)
        if not chart_on_spine(c1 == c2, a, b):
            raise ContractError(f"plan middle is off the spine: {c1 + c2} ({a}, {b})")
    if p.hop_count > MAX_HOPS:
        raise ContractError(f"plan used {p.hop_count} hops")
    if p.chain_length > MAX_CHAIN_LENGTH:
        raise ContractError(f"plan walked {p.chain_length} along the spine")
    return err, sep
