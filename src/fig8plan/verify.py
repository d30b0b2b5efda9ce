"""Randomized and exhaustive verification suites with independent oracles.

Every suite is a pure function of (seed, n): it draws its samples from a
private ``random.Random(seed)`` and reports a worst-case witness, so a failure
can be replayed exactly.  The distance oracles share no code with the
analytic track metric they check: each query splices its two points into the
track (center plus the points) or into the twelve half arcs of the spine
(spine.HALF_ARCS), and runs Dijkstra on that graph of at most eight nodes.
The separation oracle reads each segment's robot distance at its ends and
kinks (kink_min_separation).  No discretisation is involved, so the oracles
are exact up to rounding; all of them use only the standard library.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import defaultdict, namedtuple
from random import Random

from .errors import ContractError, DomainError
from .geometry import (
    CIRCLES,
    EPS,
    CirclePoint,
    Configuration,
    PhysPath,
    certify_path,
    chart_config_dist,
    circle_point,
    config_dist,
    dist_gamma,
    path_from_legs,
    path_min_separation,
    path_sup_distance,
)
from .planner import MAX_CHAIN_LENGTH, MAX_HOPS, InstructionDomain, classify_domain, plan, validate_plan
from .retraction import retract
from .spine import (
    CHAIN_CIRCLES,
    CHAIN_VERTICES,
    HALF_ARCS,
    ChainPoint,
    chain_point,
    chain_to_config,
    chart_on_spine,
    is_antipodal,
    vertex_point,
)

# How far dist_gamma may sit from its Dijkstra oracle: both sum the same arc
# lengths, possibly in another order, so only rounding differs.
METRIC_TOL = 1e-12

# How far the exact minimum separation may sit from its kink oracle: both
# read the same segment ends, so only rounding differs.
SEPARATION_TOL = 1e-12


# ---------------------------------------------------------------------------
# graph invariants


def cycle_rank(vertex_ids, edge_list) -> int:
    """First Betti number E - V + 1 of a connected multigraph.

    ``edge_list`` holds (u, v) pairs of names from ``vertex_ids``.  A repeated
    vertex name, an edge naming any other vertex, and disconnected input are
    rejected: the formula would silently miscount.
    """
    verts = list(vertex_ids)
    edges = list(edge_list)
    if not verts:
        raise DomainError("empty graph")
    parent = {v: v for v in verts}
    if len(parent) != len(verts):
        repeated = next(v for i, v in enumerate(verts) if v in verts[:i])
        raise DomainError(f"vertex {repeated!r} is listed twice")

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = len(verts)
    for u, v in edges:
        if u not in parent or v not in parent:
            raise DomainError(f"edge ({u!r}, {v!r}) names a vertex outside the graph")
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    if components != 1:
        raise DomainError(f"graph is disconnected ({components} components)")
    return len(edges) - len(verts) + 1


def tc_wedge(n: int) -> int:
    """Topological complexity of a wedge of n circles: 2 for one circle, 3 for more."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"a wedge needs an integer number of circles >= 1, got {n!r}")
    return 2 if n == 1 else 3


# ---------------------------------------------------------------------------
# samplers


def _random_position(rng: Random) -> CirclePoint:
    # Half the draws are uniform; the rest sit on the center, a pole or a
    # quarter point, or 1e-13 ... 1e-8 off one, where snapping is decided.
    if rng.random() < 0.5:
        s = rng.random()
    else:
        base = rng.choice((0.0, 0.25, 0.5, 0.75))
        offset = rng.choice((0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8))
        s = (base + rng.choice((offset, -offset))) % 1.0
    return circle_point(rng.choice(CIRCLES), s)


def random_config(rng: Random) -> Configuration:
    """Valid configuration; only coincident draws are drawn again.

    Each coordinate is uniform or a boundary draw (see _random_position), so
    the two robots may sit as little as 1e-13 apart, or both next to the
    center, where the retraction scale is largest.
    """
    while True:
        p1 = _random_position(rng)
        p2 = _random_position(rng)
        if p1 != p2:
            return Configuration(p1, p2)


def random_chain_point(rng: Random, vertex_prob: float = 0.0) -> ChainPoint:
    """A vertex with probability vertex_prob, else a circle point more than
    1e-6 from both vertices of its circle (so far outside chain_point's EPS
    snap that it is built as it is drawn)."""
    if vertex_prob and rng.random() < vertex_prob:
        return vertex_point(rng.choice(CHAIN_VERTICES))
    while True:
        theta = rng.random()
        folded = theta % 0.5
        if folded > 1e-6 and 0.5 - folded > 1e-6:
            return ChainPoint(rng.choice(CHAIN_CIRCLES), theta)


# Offsets from a vertex or a quarter point at which chain_point's EPS snap
# and a configuration's SNAP_EPS reading of the center are decided.
_KNIFE_OFFSETS = (0.0, 1e-13, 1e-12, 2e-12, 5e-10, 1e-9, 2e-9, 1e-6, 1e-3)


def _knife_edge_chain_point(rng: Random) -> ChainPoint:
    """A spine point on a vertex or a quarter point, or a knife-edge offset
    off one, then moved 0 to 2 ulps either way."""
    theta = rng.choice((0.0, 0.25, 0.5, 0.75)) + rng.choice((1.0, -1.0)) * rng.choice(_KNIFE_OFFSETS)
    ulps = rng.randint(-2, 2)
    for _ in range(abs(ulps)):
        theta = math.nextafter(theta, math.copysign(math.inf, ulps))
    return chain_point(rng.choice(CHAIN_CIRCLES), theta)


_VERTEX_PAIRS = [(vertex_point(u), vertex_point(v)) for u in CHAIN_VERTICES for v in CHAIN_VERTICES]


def _format_config(c: Configuration) -> str:
    return f"({c.p1.circle}:{c.p1.s:.6g}, {c.p2.circle}:{c.p2.s:.6g})"


def _format_chain(p: ChainPoint) -> str:
    if p.is_vertex:
        return p.vertex
    return f"({p.circle},{p.theta:.6g})"


# ---------------------------------------------------------------------------
# continuity probe

# Perturbation sizes, strictly decreasing; the largest keeps a boundary
# margin of 10 * 1e-2, well inside a quarter circle.
_LADDER = (1e-2, 1e-3, 1e-4)


def _interior_theta(rng: Random, margin: float) -> float:
    # uniform over the part of a circle at least `margin` from both vertices
    half = 0.5 if rng.random() < 0.5 else 0.0
    return half + rng.uniform(margin, 0.5 - margin)


def _u1_sample(rng: Random, margin: float, delta: float):
    """A U1 pair `margin` inside its domain, and its four diagonal moves by delta."""
    while True:
        x = chain_point(rng.choice(CHAIN_CIRCLES), _interior_theta(rng, margin))
        y = chain_point(rng.choice(CHAIN_CIRCLES), _interior_theta(rng, margin))
        if x.circle == y.circle:
            span = abs(x.theta - y.theta)
            arc = min(span, 1.0 - span)
            if arc < margin or abs(arc - 0.5) < margin:
                continue
        if classify_domain(x, y) is InstructionDomain.U1:
            steps = (delta, -delta)
            return x, y, [
                (chain_point(x.circle, x.theta + dx), chain_point(y.circle, y.theta + dy))
                for dx in steps
                for dy in steps
            ]


def _u2_sample(rng: Random, margin: float, delta: float):
    """A U2 pair and its two moves by delta: an antipodal pair slides
    together, or a vertex holds while the other point moves."""
    steps = (delta, -delta)
    if rng.random() < 0.5:
        circle = rng.choice(CHAIN_CIRCLES)
        theta = _interior_theta(rng, margin)
        x = chain_point(circle, theta)
        y = chain_point(circle, (theta + 0.5) % 1.0)
        slid = [(x.theta + d) % 1.0 for d in steps]
        return x, y, [(chain_point(x.circle, t), chain_point(x.circle, (t + 0.5) % 1.0)) for t in slid]
    x = vertex_point(rng.choice(CHAIN_VERTICES))
    y = chain_point(rng.choice(CHAIN_CIRCLES), _interior_theta(rng, margin))
    return x, y, [(x, chain_point(y.circle, (y.theta + d) % 1.0)) for d in steps]


def continuity_probe(domain: InstructionDomain, seed: int, samples: int = 16) -> list[tuple[float, float]]:
    """Max sup-distance between paths of nearby in-domain inputs, per _LADDER delta.

    The sup distance over t is exact (geometry.path_sup_distance), so a
    jump between two paths cannot hide between sample times.  Perturbations
    stay strictly inside the instruction's domain: base pairs keep a margin
    of 10*delta from the domain boundary, and for U2 the perturbation moves
    along the antipodal stratum (both points slide together) or holds the
    vertex fixed; one that leaves the domain raises ContractError.  Each
    path is the one plan() returns for the two spine points, certified on
    its own (_certified); a failure is named by domain, delta and sample.
    U3 is refused: its domain is the 36 isolated vertex pairs, on which
    every rule is continuous, so there is nothing to perturb.
    """
    worst = dict.fromkeys(_LADDER, 0.0)
    for delta, p, q in _probe_path_pairs(domain, seed, samples):
        worst[delta] = max(worst[delta], path_sup_distance(p, q))
    return list(worst.items())


def _probe_path_pairs(domain: InstructionDomain, seed: int, samples: int):
    """Yield (delta, path, nearby path) for every comparison the probe makes."""
    if domain is InstructionDomain.U3:
        raise DomainError("U3 is 36 isolated vertex pairs: every rule is continuous there")
    sample = _u1_sample if domain is InstructionDomain.U1 else _u2_sample
    rng = Random(seed)
    for delta in _LADDER:
        for k in range(samples):
            x, y, moved = sample(rng, 10.0 * delta, delta)
            for a, b in moved:
                if classify_domain(a, b) is not domain:
                    raise ContractError(
                        f"perturbation left {domain}: {_format_chain(a)}, {_format_chain(b)}"
                    )
            try:
                base, *nearby = [
                    _certified(plan(chain_to_config(a), chain_to_config(b)).path)
                    for a, b in [(x, y), *moved]
                ]
            except (ContractError, DomainError) as exc:
                raise ContractError(f"{domain.name} delta {delta:g} sample {k}: {exc}") from exc
            for path in nearby:
                yield delta, base, path


def _certified(path: PhysPath) -> PhysPath:
    """A path checked on its own: certify_path, then an exact separation > 0; raises ContractError."""
    certify_path(path)
    sep = path_min_separation(path)
    if sep <= 0.0:
        raise ContractError(f"path separation dropped to {sep}")
    return path


# ---------------------------------------------------------------------------
# kink separation oracle

# Where the one-circle distance bends, as values of d = x - y, and where the
# two-circle distance bends, as a value of x or y.
_SAME_CIRCLE_KINKS = (-1.0, -0.5, 0.0, 0.5, 1.0)
_POLE = (0.5,)


def kink_min_separation(path: PhysPath) -> float:
    """Exact smallest distance between the robots along a trajectory, read at
    the ends of each segment and at the kinks of its distance.

    On a segment both chart values are affine in u in [0, 1], x = a0 + u (a1
    - a0) and y = b0 + u (b1 - b0), with x and y in [0, 1].  The robot
    distance is therefore continuous and piecewise affine in u:

    * on one circle it is min(|d|, 1 - |d|), the circle distance of the
      affine d = x - y, which bends only where d is 0, +-1/2 or +-1;
    * on two circles it is min(x, 1 - x) + min(y, 1 - y), which bends only
      where x or y is 1/2.

    Between two consecutive points of {0, 1, kinks} the distance is affine,
    so it is smallest at one of them, and the minimum over the segment is the
    smallest value of the formula at u = 0, u = 1 and every kink u in
    [0, 1].  The argument needs no concavity and does not assume that the
    segment is split at the pole; no code is shared with
    geometry.path_min_separation, so the two agree only up to rounding.
    """
    best = math.inf
    for _, _, c1, a0, a1, c2, b0, b1 in path.segments:
        da, db = a1 - a0, b1 - b0
        same = c1 == c2
        # each affine quantity the distance bends along: its values at u = 0
        # and u = 1, and the values at which it bends
        if same:
            bends = ((a0 - b0, a1 - b1, _SAME_CIRCLE_KINKS),)
        else:
            bends = ((a0, a1, _POLE), (b0, b1, _POLE))
        us = [0.0, 1.0]
        for v0, v1, marks in bends:
            if v0 != v1:
                for m in marks:
                    u = (m - v0) / (v1 - v0)
                    if 0.0 <= u <= 1.0:
                        us.append(u)
        for u in us:
            x = a0 + u * da
            y = b0 + u * db
            if same:
                d = abs(x - y)
                d = min(d, 1.0 - d)
            else:
                d = min(x, 1.0 - x) + min(y, 1.0 - y)
            if d < best:
                best = d
    return best


# ---------------------------------------------------------------------------
# Dijkstra oracles on spliced graphs


def _cut_edges(cuts):
    """Edges between consecutive (position, node) cuts along one arc."""
    return [(u, v, b - a) for (a, u), (b, v) in zip(cuts, cuts[1:])]


def _shortest(edges, source, target) -> float:
    """Dijkstra on a connected undirected multigraph of (node, node, length) edges."""
    adj = defaultdict(list)
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    done = set()
    heap = [(0.0, source)]
    while True:
        d, u = heapq.heappop(heap)
        if u == target:
            return d
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            if v not in done:
                heapq.heappush(heap, (d + w, v))


def gamma_oracle(pairs: list[tuple[CirclePoint, CirclePoint]]) -> list[float]:
    """Track distances by Dijkstra on each circle cut at the center and both points."""
    out = []
    for p, q in pairs:
        ends = (("p", p), ("q", q))
        edges = []
        for circle in CIRCLES:
            inner = sorted((x.s, name) for name, x in ends if x.circle == circle and x.s > 0.0)
            edges += _cut_edges([(0.0, "center"), *inner, (1.0, "center")])
        source, target = (name if x.s > 0.0 else "center" for name, x in ends)
        out.append(_shortest(edges, source, target))
    return out


def chain_oracle(pairs: list[tuple[ChainPoint, ChainPoint]]) -> list[float]:
    """Spine distances by Dijkstra on the twelve half arcs, each cut at any
    query point strictly inside it."""
    out = []
    for p, q in pairs:
        ends = (("p", p), ("q", q))
        edges = []
        for circle, theta0, u, theta1, v in HALF_ARCS:
            inner = sorted(
                (x.theta, name) for name, x in ends if x.circle == circle and theta0 < x.theta < theta1
            )
            edges += _cut_edges([(theta0, u), *inner, (theta1, v)])
        out.append(_shortest(edges, p.vertex or "p", q.vertex or "q"))
    return out


# ---------------------------------------------------------------------------
# suites


class SuiteReport(namedtuple("SuiteReport", "suite seed n passed witness elapsed_ms")):
    """One suite run: its (seed, n), verdict, worst-case witness and wall time."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "n": self.n,
            "pass": self.passed,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 1),
        }


def _suite_collision(rng: Random, n: int) -> str:
    rows = []
    for i in range(n):
        start, goal = random_config(rng), random_config(rng)
        try:
            p = plan(start, goal)
            err, sep = validate_plan(p)
            gap = abs(kink_min_separation(p.path) - sep)
            if gap > SEPARATION_TOL:
                raise ContractError(f"endpoint err {err:.3e} min sep {sep:.3e} oracle gap {gap:.3e}")
        except (ContractError, DomainError) as exc:
            case = f"pair {i}: start {_format_config(start)} goal {_format_config(goal)}"
            raise ContractError(f"{case} {exc}") from exc
        rows.append((err, sep, gap, p.hop_count, p.chain_length))
    errs, seps, gaps, hops, lengths = zip(*rows)
    return (
        f"worst endpoint err {max(errs):.3e}, min separation {min(seps):.3e},"
        f" worst oracle gap {max(gaps):.3e}; {_bounds_witness(max(hops), max(lengths))}"
    )


def _bounds_witness(max_hops: int, max_len: float) -> str:
    return (
        f"max hops {max_hops} (bound {MAX_HOPS}),"
        f" max chain length {max_len:.3f} (bound {MAX_CHAIN_LENGTH:g})"
    )


def _domain_flags(x: ChainPoint, y: ChainPoint) -> tuple[bool, bool, bool]:
    x_vertex, y_vertex = x.is_vertex, y.is_vertex
    both_vertex = x_vertex and y_vertex
    any_vertex = x_vertex or y_vertex
    anti = is_antipodal(x, y)
    u3 = both_vertex
    u2 = (any_vertex or anti) and not both_vertex
    u1 = not (any_vertex or anti)
    return u1, u2, u3


def _random_chain_pair(rng: Random) -> tuple[ChainPoint, ChainPoint]:
    """Spine pair: 60% interior, 15% vertex-rich, 25% antipodal."""
    kind = rng.random()
    if kind < 0.60:
        return random_chain_point(rng), random_chain_point(rng)
    if kind < 0.75:
        return random_chain_point(rng, vertex_prob=0.5), random_chain_point(rng, vertex_prob=0.5)
    x = random_chain_point(rng)
    return x, chain_point(x.circle, (x.theta + 0.5) % 1.0)


def _suite_partition(rng: Random, n: int) -> str:
    domains = (InstructionDomain.U1, InstructionDomain.U2, InstructionDomain.U3)
    counts = [0, 0, 0]  # per domain, in the order of the predicates' flags
    for i in range(n):
        x, y = _random_chain_pair(rng)
        flags = _domain_flags(x, y)
        if sum(flags) != 1:
            raise ContractError(f"pair {i}: {_format_chain(x)},{_format_chain(y)} flags {flags}")
        k = flags.index(True)
        tag = classify_domain(x, y)
        if tag is not domains[k]:
            raise ContractError(
                f"pair {i}: {_format_chain(x)},{_format_chain(y)}"
                f" classified {tag.name}, predicates say {domains[k].name}"
            )
        counts[k] += 1
    for x, y in _VERTEX_PAIRS:
        if classify_domain(x, y) is not InstructionDomain.U3:
            raise ContractError(f"vertex pair ({x.vertex},{y.vertex}) not U3")
    return f"counts U1={counts[0]} U2={counts[1]} U3={counts[2]}, 36 vertex pairs all U3"


def _suite_retraction(rng: Random, n: int) -> str:
    rows = []
    for i in range(n):
        c = random_config(rng)
        try:
            r = retract(c)
            trace = path_from_legs([r.leg])
            if not chart_on_spine(r.leg.circle1 == r.leg.circle2, r.leg.a1, r.leg.b1):
                raise ContractError(f"leg of {_format_config(c)} ends off the spine")
            image_config = chain_to_config(r.point)
            if retract(image_config).point != r.point:
                raise ContractError(f"image {_format_chain(r.point)} of {_format_config(c)} is not fixed")
            _, _, c1, a0, _, c2, b0, _ = trace.segments[0]
            _, _, d1, _, a1, d2, _, b1 = trace.segments[-1]
            end_err = max(
                chart_config_dist(c1, a0, c2, b0, c), chart_config_dist(d1, a1, d2, b1, image_config)
            )
            if end_err > EPS:
                raise ContractError(f"trace endpoint error {end_err:.3e}")
            try:
                certify_path(trace)
                sep = path_min_separation(trace)
                gap = abs(kink_min_separation(trace) - sep)
                if sep <= 0.0:
                    raise ContractError("collides")
                if gap > SEPARATION_TOL:
                    raise ContractError(f"oracle gap {gap:.3e}")
            except ContractError as exc:
                raise ContractError(f"trace of {_format_config(c)} {exc}") from exc
        except (ContractError, DomainError) as exc:
            raise ContractError(f"sample {i}: {exc}") from exc
        rows.append((end_err, gap))
    end_errs, gaps = zip(*rows)
    return (
        f"idempotence exact, worst trace endpoint {max(end_errs):.3e},"
        f" worst oracle gap {max(gaps):.3e}; {_gluing_probe(rng, max(n // 10, 100))}"
    )


def _gluing_probe(rng: Random, n: int) -> str:
    """Retraction images of center-straddling twins stay 50-Lipschitz close.

    A twin pair puts one robot 5e-5 off the center on two different branches
    (1e-4 apart on the track) while the other robot sits at least 0.05 away
    from the center, and compares the spine distance of the two images, by
    the exact Dijkstra oracle (chain_oracle), against 50x the configuration
    distance.  Returns a witness naming the worst ratio; raises ContractError past 50x.
    """
    branches = [("A", False), ("A", True), ("B", False), ("B", True)]
    ratios = []
    for i in range(n):
        circle_a, far_a = branches[rng.randrange(4)]
        circle_b, far_b = branches[rng.randrange(4)]
        if (circle_a, far_a) == (circle_b, far_b):
            circle_b, far_b = branches[(branches.index((circle_a, far_a)) + 1 + rng.randrange(3)) % 4]
        s = 5e-5
        moving_a = circle_point(circle_a, 1.0 - s if far_a else s)
        moving_b = circle_point(circle_b, 1.0 - s if far_b else s)
        other = circle_point(rng.choice(CIRCLES), rng.uniform(0.05, 0.95))
        if rng.random() < 0.5:
            ca, cb = Configuration(moving_a, other), Configuration(moving_b, other)
        else:
            ca, cb = Configuration(other, moving_a), Configuration(other, moving_b)
        gap = config_dist(ca, cb)
        (image_gap,) = chain_oracle([(retract(ca).point, retract(cb).point)])
        if image_gap > 50.0 * gap:
            raise ContractError(
                f"gluing pair {i}: {_format_config(ca)} vs {_format_config(cb)}"
                f" image gap {image_gap:.3e} exceeds 50x {gap:.3e}"
            )
        ratios.append(image_gap / gap)
    return f"gluing probe worst ratio {max(ratios):.2f} (bound 50)"


def _suite_continuity(rng: Random, n: int) -> str:
    summary = []
    for domain in (InstructionDomain.U1, InstructionDomain.U2):
        rows = continuity_probe(domain, seed=rng.randrange(2**32), samples=n)
        values = [v for _, v in rows]
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ContractError(f"{domain.name} ladder not strictly decreasing: {rows}")
        at_1e3 = dict(rows)[1e-3]
        if at_1e3 >= 0.05:
            raise ContractError(f"{domain.name} sup distance {at_1e3:.3f} at delta 1e-3")
        summary.append(f"{domain.name}:" + "/".join(f"{v:.2e}" for v in values))
    summary.append(f"U3: {len(_VERTEX_PAIRS)} isolated vertex pairs")
    return " ".join(summary)


def _suite_termination(rng: Random, n: int) -> str:
    # Spine pairs, vertex and antipodal images included, then all 36 vertex
    # pairs; the collision suite checks the same bounds on its random_config plans.
    pairs = itertools.chain((_random_chain_pair(rng) for _ in range(n)), _VERTEX_PAIRS)
    rows = []
    for i, (x, y) in enumerate(pairs):
        try:
            p = plan(chain_to_config(x), chain_to_config(y))
            _certified(p.path)
            if p.hop_count > MAX_HOPS or p.chain_length > MAX_CHAIN_LENGTH:
                raise ContractError(f"hops {p.hop_count} length {p.chain_length:.3f}")
        except (ContractError, DomainError) as exc:
            raise ContractError(f"pair {i}: {_format_chain(x)} -> {_format_chain(y)} {exc}") from exc
        rows.append((p.hop_count, p.chain_length))
    hops, lengths = zip(*rows)
    return _bounds_witness(max(hops), max(lengths))


def _suite_roundtrip(rng: Random, n: int) -> str:
    # The retraction fixes the spine exactly, so a pass has drift 0.  Half
    # the spine points sit on knife edges, where the snaps are decided.
    for i in range(n):
        if rng.random() < 0.5:
            p = _knife_edge_chain_point(rng)
        else:
            p = random_chain_point(rng, vertex_prob=0.1)
        p2 = retract(chain_to_config(p)).point
        if p2 != p:
            raise ContractError(f"sample {i}: {_format_chain(p)} came back as {_format_chain(p2)}")
    gamma_pairs = [(_random_position(rng), _random_position(rng)) for _ in range(n)]
    gaps = []
    for (p, q), ov in zip(gamma_pairs, gamma_oracle(gamma_pairs)):
        gap = abs(dist_gamma(p, q) - ov)
        if gap > METRIC_TOL:
            raise ContractError(
                f"dist_gamma({p.circle}:{p.s:.6g},{q.circle}:{q.s:.6g}) off oracle by {gap:.3e}"
            )
        gaps.append(gap)
    return f"roundtrip drift 0.0e+00, gamma oracle gap {max(gaps):.1e} (tol {METRIC_TOL:.0e})"


# name -> (suite, default n); a suite returns its pass witness or raises ContractError
_SUITES = {
    "collision": (_suite_collision, 1000),
    "partition": (_suite_partition, 20000),
    "retraction": (_suite_retraction, 1000),
    "continuity": (_suite_continuity, 12),
    "termination": (_suite_termination, 1000),
    "roundtrip": (_suite_roundtrip, 500),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, n: int | None = None) -> SuiteReport:
    """Run one named suite; deterministic for a fixed (seed, n).

    An unknown name or n < 1 raises DomainError.  A ContractError or DomainError
    raised in the run fails the suite, its message the witness; others propagate.
    """
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}, expected one of {', '.join(SUITE_NAMES)}")
    fn, default_n = _SUITES[name]
    if n is None:
        n = default_n
    if n < 1:
        raise DomainError("n must be positive")
    rng = Random(seed)
    t0 = time.perf_counter()
    try:
        passed, witness = True, fn(rng, n)
    except (ContractError, DomainError) as exc:
        passed, witness = False, str(exc)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return SuiteReport(suite=name, seed=seed, n=n, passed=passed, witness=witness, elapsed_ms=elapsed)
