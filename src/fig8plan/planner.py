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

The walk hops positively to the next vertex until the goal's circle comes
up, then rides the shortest arc to the goal.  Instruction 1 leaves a
half-turn tie to the shortest-arc rule; instructions 2 and 3 break it
positively, which keeps instruction 2 stable under perturbation of an
antipodal pair.  Instruction 3 is the walk restricted to vertex pairs: every
hop, the last included, is a positive half-turn along the current vertex's
canonical circle, so it follows the positive successor cycle through the
vertices.  Every walk terminates within seven arc moves.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .errors import ContractError
from .geometry import (
    EPS,
    ChartLeg,
    Configuration,
    config_dist,
    config_to_flat,
    constant_path,
    path_from_legs,
    path_min_separation,
)
from .retraction import retract
from .spine import (
    ChainPoint,
    ChainStep,
    arc_dist,
    chain_point,
    chart_on_spine,
    is_antipodal,
    make_steps,
    on_spine,
    shortest_arc,
    steps_to_legs,
    theta_on,
)


class InstructionDomain(enum.Enum):
    U1 = 1
    U2 = 2
    U3 = 3


def classify_domain(x: ChainPoint, y: ChainPoint) -> InstructionDomain:
    if x.is_vertex and y.is_vertex:
        return InstructionDomain.U3
    if x.is_vertex or y.is_vertex or is_antipodal(x, y):
        return InstructionDomain.U2
    return InstructionDomain.U1


def _walk(start: ChainPoint, goal: ChainPoint, positive_ties: bool) -> list[list[ChainStep]]:
    """The spine walk of all three instructions.

    Each entry of the result is one arc move.  The positive_ties flag forces
    half-turn final arcs to run positively instead of leaving the choice to
    the shortest-arc tie break.
    """
    cur = start
    moves: list[list[ChainStep]] = []
    for _ in range(8):
        if cur == goal:
            return moves
        circle = cur.circle
        goal_theta = theta_on(circle, goal)
        if goal_theta is not None:
            if positive_ties and abs(arc_dist(cur.theta, goal_theta) - 0.5) <= EPS:
                direction = 1
            else:
                direction, _ = shortest_arc(cur.theta, goal_theta)
            steps = make_steps(circle, cur.theta, goal_theta, direction)
            if steps:
                moves.append(steps)
            return moves
        target = 0.5 if cur.theta < 0.5 else 0.0
        steps = make_steps(circle, cur.theta, target, 1)
        if steps:
            moves.append(steps)
        cur = chain_point(circle, target)
    raise ContractError("spine walk exceeded its hop budget")


def plan_steps(start: ChainPoint, goal: ChainPoint) -> tuple[InstructionDomain, list[list[ChainStep]]]:
    domain = classify_domain(start, goal)
    return domain, _walk(start, goal, positive_ties=domain is not InstructionDomain.U1)


class Plan(
    namedtuple(
        "Plan",
        "start goal domain chain_start chain_goal steps hop_count path spine_interval"
        " trace_in trace_out",
    )
):
    """A complete collision-free trajectory between two configurations.

    start and goal are Configurations, chain_start and chain_goal their spine
    images, steps the ChainSteps of the walk in hop_count arc moves, and path
    the PhysPath, on the spine for t in spine_interval.  trace_in is the
    start's retraction ChartLeg and trace_out the goal's, already reversed to
    run towards the goal.  Each holds one leg, or none when the leg has zero
    sweep (an endpoint on the spine that does not snap onto a vertex).
    """

    __slots__ = ()

    @property
    def instruction(self) -> int:
        return self.domain.value

    @property
    def chain_length(self) -> float:
        return sum(s.length for s in self.steps)


def plan(start: Configuration, goal: Configuration) -> Plan:
    """Plan a collision-free trajectory from start to goal."""
    r_in = retract(start)
    r_out = retract(goal)
    domain, moves = plan_steps(r_in.point, r_out.point)
    steps = tuple(s for move in moves for s in move)

    # A retraction leg of zero sweep (an endpoint already on the spine, not
    # snapped onto a vertex) adds no motion; the goal's leg is played backwards.
    sw_in, sw_out = r_in.leg.sweep, r_out.leg.sweep
    legs_in = (r_in.leg,) if sw_in > 0.0 else ()
    legs_spine = steps_to_legs(list(steps))
    back = r_out.leg
    legs_out = (
        (ChartLeg(back.circle1, back.a1, back.a0, back.circle2, back.b1, back.b0),)
        if sw_out > 0.0
        else ()
    )
    legs = [*legs_in, *legs_spine, *legs_out]
    if legs:
        path = path_from_legs(legs)
    else:
        path = constant_path(start)

    sw_spine = sum(leg.sweep for leg in legs_spine)
    total = sw_in + sw_spine + sw_out
    if total > 0.0:
        interval = (sw_in / total, (sw_in + sw_spine) / total)
    else:
        interval = (0.0, 1.0)

    return Plan(
        start=start,
        goal=goal,
        domain=domain,
        chain_start=r_in.point,
        chain_goal=r_out.point,
        steps=steps,
        hop_count=len(moves),
        path=path,
        spine_interval=interval,
        trace_in=legs_in,
        trace_out=legs_out,
    )


def plan_to_json(p: Plan) -> dict:
    """JSON-ready summary: instruction number, hop count, timed waypoints.

    Values carry 12 significant digits, at which times still strictly
    increase: every segment lasts more than SNAP_EPS = 1e-12 (path_from_legs).
    Where two robots on one circle would round to the same s, that
    waypoint's two s values are written exactly (repr precision), so the
    JSON never shows distinct robots at one place.
    """

    def rnd(x: float) -> float:
        return float(f"{x:.12g}")

    waypoints = []
    for t, c in p.path.waypoints:
        s1, s2 = rnd(c.p1.s), rnd(c.p2.s)
        if s1 == s2 and c.p1.circle == c.p2.circle:
            s1, s2 = c.p1.s, c.p2.s
        waypoints.append(
            {
                "t": rnd(t),
                "r1": {"circle": c.p1.circle, "s": s1},
                "r2": {"circle": c.p2.circle, "s": s2},
            }
        )
    return {"instruction": p.instruction, "hops": p.hop_count, "waypoints": waypoints}


def validate_plan(p: Plan) -> None:
    """Check a plan's contract; raises ContractError with a witness on failure.

    Endpoints must match to EPS; separation and spine membership are
    certified exactly from the segments.  Each spine segment (one whose
    midpoint time lies in spine_interval) is straight in its square, and a
    square holds at most two straight spine lines, so a segment whose start,
    midpoint and end are on the spine lies on one of those lines throughout.
    The three points are tested on the segment's own chart values
    (chart_on_spine), without building a configuration for any of them.
    """
    waypoints = p.path.waypoints
    start, end = waypoints[0][1], waypoints[-1][1]
    if config_dist(start, p.start) > EPS:
        raise ContractError(f"plan does not start at its start: {start} vs {p.start}")
    if config_dist(end, p.goal) > EPS:
        raise ContractError(f"plan does not end at its goal: {end} vs {p.goal}")
    sep = path_min_separation(p.path)
    if sep <= 0.0:
        raise ContractError(f"plan separation dropped to {sep}")
    t0, t1 = p.spine_interval
    if t1 > t0:
        for seg in p.path.segments:
            tm = 0.5 * (seg.t0 + seg.t1)
            if not t0 <= tm <= t1:
                continue
            square = seg.circle1 + seg.circle2
            for t, a, b in (
                (seg.t0, seg.a0, seg.b0),
                (tm, 0.5 * (seg.a0 + seg.a1), 0.5 * (seg.b0 + seg.b1)),
                (seg.t1, seg.a1, seg.b1),
            ):
                if not chart_on_spine(square[0] == square[1], a, b):
                    raise ContractError(f"plan leaves the spine at t={t}: {square} ({a}, {b})")
    else:
        # collapsed interval: both retraction images coincide, so the single
        # middle instant must sit on the spine
        f = config_to_flat(p.path.config_at(t0))
        if not on_spine(f):
            raise ContractError(f"plan middle is off the spine: {f}")
    if p.hop_count > 7:
        raise ContractError(f"plan used {p.hop_count} hops")
    if p.chain_length > 4.0:
        raise ContractError(f"plan walked {p.chain_length} along the spine")
