"""Seeded input generators owned by the benchmark.

The streams are written here instead of borrowed from ``fig8plan.verify``
so that a change to the program's own samplers cannot shift a workload.  A
position is ``(circle, s)`` with ``circle`` in ``"AB"`` and ``s`` in
``[0, 1)``; a configuration is a pair of positions (robot 1, robot 2) and a
request is a pair of configurations (start, goal).  Every stream is an
infinite iterator that depends only on its seed.  Pairs that the program
fails on are kept: nothing here consults the program.
"""

from __future__ import annotations

from random import Random

# Quarter points of a circle (center, quarter, pole, three quarters) and the
# offsets around them at which snapping and short legs misbehave.
BOUNDARY_BASES = (0.0, 0.25, 0.5, 0.75)
BOUNDARY_OFFSETS = (0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)

# Two requests known to crash the planner at the time the benchmark was
# written (one exits 1, one exits 2).  They lead the boundary stream so that
# every run reaches them, however short.
BOUNDARY_REPLAYS = (
    ((("B", 0.249999999), ("A", 0.9948468822843032)), (("B", 1e-09), ("B", 0.4999999999999))),
    ((("A", 0.7500000001), ("A", 0.500000002)), (("A", 0.4999999995), ("A", 0.999999999))),
)


def track_dist(p, q) -> float:
    """Shortest distance along the figure eight between two positions."""
    (cp, sp), (cq, sq) = p, q
    if cp == cq:
        d = abs(sp - sq)
        return min(d, 1.0 - d)
    # across circles every path runs through the center
    return min(sp, 1.0 - sp) + min(sq, 1.0 - sq)


def _canonical(circle: str, s: float):
    # the center is written A:0, so B:0 never reaches the program
    return ("A", 0.0) if s == 0.0 else (circle, s)


def _uniform_position(rng: Random):
    return _canonical(rng.choice("AB"), rng.random())


def _boundary_position(rng: Random):
    if rng.random() < 0.5:
        return _uniform_position(rng)
    base = rng.choice(BOUNDARY_BASES)
    offset = rng.choice(BOUNDARY_OFFSETS) * rng.choice((1.0, -1.0))
    return _canonical(rng.choice("AB"), (base + offset) % 1.0)


def _configs(rng: Random, position, min_sep: float):
    while True:
        p1, p2 = position(rng), position(rng)
        if track_dist(p1, p2) >= min_sep:
            return p1, p2


def uniform_pairs(seed: int, tag: str = "uniform"):
    """Uniform positions, each configuration separated by at least 1e-6."""
    rng = Random(f"{tag}:{seed}")
    while True:
        yield _configs(rng, _uniform_position, 1e-6), _configs(rng, _uniform_position, 1e-6)


def boundary_pairs(seed: int):
    """Half uniform coordinates, half quarter points offset by 0 or 1e-13..1e-8.

    Configurations keep a separation of at least 1e-4.  The two replay
    requests come first.
    """
    yield from BOUNDARY_REPLAYS
    rng = Random(f"boundary:{seed}")
    while True:
        yield _configs(rng, _boundary_position, 1e-4), _configs(rng, _boundary_position, 1e-4)


def cli_pairs(seed: int):
    """Requests for the command line workload: uniform, on a stream of their own."""
    return uniform_pairs(seed, tag="cli")


STREAMS = {"plan-uniform": uniform_pairs, "plan-boundary": boundary_pairs, "cli-cold": cli_pairs}


def position_arg(p) -> str:
    """Format a position as the command line reads it, with every digit."""
    return f"{p[0]}:{p[1]!r}"
