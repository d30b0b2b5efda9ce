"""End-to-end acceptance checks with explicit tolerances and time budgets.

The heavyweight sample batch (ten thousand seeded start/goal pairs) is planned
once in a module fixture and shared by the collision-freedom and termination
checks so the wall-clock budget covers a single planning pass.
"""

import json
from random import Random
from time import perf_counter

import pytest

from fig8plan.cli import main
from fig8plan.geometry import config_dist, configuration, dist_gamma, path_min_separation
from fig8plan.planner import InstructionDomain, classify_domain, plan, validate_plan
from fig8plan.render import render_svg
from fig8plan.spine import (
    CHAIN_CIRCLES,
    CHAIN_VERTICES,
    CIRCLE_VERTICES,
    NECKLACE,
    VERTEX_CANONICAL,
    VERTEX_CONFIG,
    arc_leg,
    chain_point,
    vertex_point,
)
from fig8plan.verify import (
    METRIC_TOL,
    _random_position,
    continuity_probe,
    gamma_oracle,
    random_chain_point,
    random_config,
    run_suite,
)

BATCH_SEED = 20260819
BATCH_SIZE = 10_000


@pytest.fixture(scope="module")
def plan_batch():
    rng = Random(BATCH_SEED)
    t0 = perf_counter()
    batch = []
    for _ in range(BATCH_SIZE):
        start = random_config(rng)
        goal = random_config(rng)
        batch.append((start, goal, plan(start, goal)))
    elapsed = perf_counter() - t0
    return batch, elapsed


def test_instruction_count_command(capsys):
    t0 = perf_counter()
    code = main(["tc"])
    elapsed = perf_counter() - t0
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert json.loads(out) == {"b1": 7, "tc": 3}
    assert elapsed < 1.0


def test_chain_structure_and_closure():
    t0 = perf_counter()
    # each necklace circle is two half arcs between its vertices
    edges = [(v0, v1) for _, _, _, v0, v1 in NECKLACE] * 2
    assert len(CHAIN_VERTICES) == 6
    assert len(edges) == 12
    half_arcs = {arc_leg(c, t, t + 0.5) for c in CHAIN_CIRCLES for t in (0.0, 0.5)}
    assert len(half_arcs) == 12
    assert all(abs(leg.sweep - 0.5) < 1e-12 for leg in half_arcs)

    # every circle carries exactly two vertices, every vertex two circles
    degree = {v: 0 for v in CHAIN_VERTICES}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert all(d == 4 for d in degree.values())
    incidence = {v: set() for v in CHAIN_VERTICES}
    for circle in CHAIN_CIRCLES:
        lo, hi = CIRCLE_VERTICES[circle]
        incidence[lo].add(circle)
        incidence[hi].add(circle)
    assert all(len(cs) == 2 for cs in incidence.values())

    # collapsing parallel arcs leaves the six-cycle necklace
    simple = {frozenset(e) for e in edges}
    ring = ("HA", "VA", "C1", "HB", "VB", "C2")
    expected = {frozenset((ring[i], ring[(i + 1) % 6])) for i in range(6)}
    assert simple == expected

    # the positive successor walk, a half-turn along each vertex's canonical
    # circle, closes in six steps and uses each circle once
    walk = ["C1"]
    circles = []
    for _ in range(6):
        circle, theta = VERTEX_CANONICAL[walk[-1]]
        circles.append(circle)
        walk.append(chain_point(circle, theta + 0.5).vertex)
    assert walk[-1] == "C1"
    assert sorted(circles) == sorted(CHAIN_CIRCLES)
    # the walk visits the vertices in the cyclic order of CHAIN_VERTICES,
    # which VERTEX_CANONICAL and the planner's ring both read
    k = CHAIN_VERTICES.index("C1")
    assert tuple(walk[:-1]) == CHAIN_VERTICES[k:] + CHAIN_VERTICES[:k]
    assert perf_counter() - t0 < 1.0


def test_planned_paths_are_collision_free(plan_batch):
    batch, plan_elapsed = plan_batch
    t0 = perf_counter()
    for start, goal, p in batch:
        assert config_dist(configuration(*p.path.chart_at(0.0)), start) <= 1e-9
        assert config_dist(configuration(*p.path.chart_at(1.0)), goal) <= 1e-9
        assert path_min_separation(p.path) > 0.0
        validate_plan(p)
    check_elapsed = perf_counter() - t0
    assert plan_elapsed + check_elapsed < 30.0


def test_domains_partition_the_inputs():
    report = run_suite("partition", seed=4, n=100_000)
    assert report.passed, report.witness

    # U3 fires exactly on the 36 vertex pairs
    for u in CHAIN_VERTICES:
        for v in CHAIN_VERTICES:
            assert classify_domain(vertex_point(u), vertex_point(v)) is InstructionDomain.U3
    rng = Random(99)
    for _ in range(500):
        x = random_chain_point(rng)
        y = random_chain_point(rng, vertex_prob=0.5)
        if not (x.is_vertex and y.is_vertex):
            assert classify_domain(x, y) is not InstructionDomain.U3


def test_retraction_suite_with_gluing_probe():
    report = run_suite("retraction", seed=12, n=10_000)
    assert report.passed, report.witness


def test_instruction_continuity_ladders():
    t0 = perf_counter()
    for domain in (InstructionDomain.U1, InstructionDomain.U2):
        rows = continuity_probe(domain, seed=31)
        values = [v for _, v in rows]
        assert values[0] > values[1] > values[2], f"{domain}: {rows}"
        assert values[1] < 0.05, f"{domain}: sup {values[1]} at delta 1e-3"
    assert perf_counter() - t0 < 120.0


def test_hop_and_length_bounds(plan_batch):
    batch, _ = plan_batch
    for _, _, p in batch:
        assert p.hop_count <= 7
        assert p.chain_length <= 4.0
    for u in CHAIN_VERTICES:
        for v in CHAIN_VERTICES:
            p = plan(VERTEX_CONFIG[u], VERTEX_CONFIG[v])
            assert p.hop_count <= 7
            assert p.chain_length <= 4.0


def test_metrics_match_exact_oracles():
    rng = Random(61)
    gamma_pairs = [(_random_position(rng), _random_position(rng)) for _ in range(5000)]
    for (p, q), oracle in zip(gamma_pairs, gamma_oracle(gamma_pairs), strict=True):
        assert abs(dist_gamma(p, q) - oracle) <= METRIC_TOL


def test_scenario_smoke():
    scenarios = [
        (configuration("A", 0.12, "A", 0.62), configuration("A", 0.8, "A", 0.3)),
        (configuration("A", 0.3, "B", 0.7), configuration("B", 0.25, "A", 0.6)),
        (VERTEX_CONFIG["C1"], VERTEX_CONFIG["C2"]),
    ]
    for start, goal in scenarios:
        p = plan(start, goal)
        validate_plan(p)
        svg = render_svg(p)
        assert svg.count('class="spine-arc"') == 12
        assert svg.count('class="vertex"') == 6
        assert svg.count('<path class="start-marker"') == 1
