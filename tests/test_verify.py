"""Verification suites, graph invariants, and the Dijkstra distance oracles."""

from collections import defaultdict, deque
from random import Random

import pytest
from hypothesis import given, strategies as st

from fig8plan import geometry, planner, spine, verify
from fig8plan.errors import ContractError, DomainError
from fig8plan.geometry import (
    Configuration,
    PathSegment,
    PhysPath,
    circle_point,
    config_dist,
    configuration,
    dist_gamma,
    path_from_legs,
    path_min_separation,
)
from fig8plan.planner import InstructionDomain, plan
from fig8plan.retraction import retract
from fig8plan.spine import (
    CHAIN_CIRCLES,
    CHAIN_VERTICES,
    NECKLACE,
    VERTEX_CONFIG,
    ChainPoint,
    chain_point,
    vertex_point,
)
from fig8plan.verify import (
    SUITE_NAMES,
    SuiteReport,
    chain_oracle,
    continuity_probe,
    cycle_rank,
    gamma_oracle,
    kink_min_separation,
    random_chain_point,
    random_config,
    run_suite,
    tc_wedge,
)


chain_circles = st.sampled_from(CHAIN_CIRCLES)
angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def spanning_tree_cycle_count(verts, edges) -> int:
    """Reference for cycle_rank: edges left over by a BFS tree."""
    if not verts:
        raise DomainError("empty graph")
    adj = defaultdict(list)
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    seen = {verts[0]}
    tree = set()
    queue = deque([verts[0]])
    while queue:
        u = queue.popleft()
        for w, idx in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.add(idx)
                queue.append(w)
    if len(seen) != len(verts):
        raise DomainError("graph is disconnected")
    return len(edges) - len(tree)


def test_cycle_rank_of_chain_is_seven():
    # each necklace circle is two edges, one per half arc
    edges = [(v0, v1) for _, _, _, v0, v1 in NECKLACE] * 2
    assert cycle_rank(CHAIN_VERTICES, edges) == 7
    assert spanning_tree_cycle_count(CHAIN_VERTICES, edges) == 7


def test_cycle_rank_small_graphs():
    loop = (["v"], [("v", "v")])
    assert cycle_rank(*loop) == 1
    assert spanning_tree_cycle_count(*loop) == 1

    tree = (["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert cycle_rank(*tree) == 0
    assert spanning_tree_cycle_count(*tree) == 0

    # parallel edges count as independent cycles
    banana = (["a", "b"], [("a", "b"), ("a", "b"), ("a", "b")])
    assert cycle_rank(*banana) == 2
    assert spanning_tree_cycle_count(*banana) == 2


def test_cycle_rank_rejects_disconnected():
    with pytest.raises(DomainError):
        cycle_rank(["a", "b"], [])
    with pytest.raises(DomainError):
        spanning_tree_cycle_count(["a", "b", "c"], [("a", "b")])


def test_cycle_rank_rejects_an_edge_off_the_vertex_list():
    # an edge to a vertex the graph does not list is a DomainError, not a
    # KeyError from the union-find, at either end and in either position
    for edges in ([("a", "b")], [("b", "a")], [("a", "a"), ("a", "b")]):
        with pytest.raises(DomainError, match="outside the graph"):
            cycle_rank(["a"], edges)


def test_cycle_rank_rejects_a_repeated_vertex():
    # a repeated name would count as a component of its own, so a connected
    # graph would be reported as disconnected
    for verts, edges in ((("a", "a"), []), (("HA", "HA", "VA"), [("HA", "VA")] * 2)):
        with pytest.raises(DomainError, match="listed twice") as info:
            cycle_rank(verts, edges)
        assert repr(verts[0]) in str(info.value)


def test_tc_wedge_table():
    assert tc_wedge(1) == 2
    assert tc_wedge(2) == 3
    assert tc_wedge(7) == 3


def test_tc_wedge_rejects_bad_input():
    for n in (0, -1):
        with pytest.raises(DomainError):
            tc_wedge(n)
    with pytest.raises(DomainError):
        tc_wedge(1.5)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nonsense", seed=1, n=10)
    with pytest.raises(DomainError):
        run_suite("collision", seed=1, n=0)


def test_all_suites_pass_smoke():
    sizes = {
        "collision": 120,
        "partition": 3000,
        "retraction": 120,
        "continuity": 6,
        "termination": 120,
        "roundtrip": 150,
    }
    for name in SUITE_NAMES:
        report = run_suite(name, seed=11, n=sizes[name])
        assert report.passed, f"{name}: {report.witness}"
        assert report.suite == name
        assert report.elapsed_ms >= 0.0


def test_suites_deterministic_given_seed():
    a = run_suite("partition", seed=5, n=800)
    b = run_suite("partition", seed=5, n=800)
    assert a.witness == b.witness
    a = run_suite("termination", seed=5, n=60)
    b = run_suite("termination", seed=5, n=60)
    assert a.witness == b.witness


def test_report_json_shape():
    report = SuiteReport(
        suite="partition", seed=3, n=10, passed=True, witness="ok", elapsed_ms=1.25
    )
    assert report.to_json() == {
        "suite": "partition",
        "seed": 3,
        "n": 10,
        "pass": True,
        "witness": "ok",
        "elapsed_ms": 1.2,
    }


def test_continuity_probe_refuses_u3():
    # U3 is 36 isolated vertex pairs, with no nearby input to compare against
    with pytest.raises(DomainError, match="isolated vertex pairs"):
        continuity_probe(InstructionDomain.U3, seed=2)
    report = run_suite("continuity", seed=2, n=2)
    assert report.passed
    assert report.witness.endswith(" U3: 36 isolated vertex pairs")


def test_continuity_probe_u1_ladder_shrinks():
    rows = continuity_probe(InstructionDomain.U1, seed=9, samples=8)
    values = [v for _, v in rows]
    assert values[0] > values[1] > values[2]
    assert values[1] < 0.05


# Dyadic inputs, so every path length is exact and the oracles must hit the
# expected distance, and the metric, to the bit.
def test_gamma_oracle_exact_cases():
    cases = [
        (("A", 0.0), ("A", 0.0), 0.0),  # center to itself
        (("A", 0.0), ("A", 0.5), 0.5),  # center to pole A
        (("A", 0.0), ("B", 0.5), 0.5),  # center to pole B
        (("A", 0.5), ("B", 0.5), 1.0),  # pole to pole, through the center
        (("A", 0.25), ("A", 0.75), 0.5),  # antipodal pair on one circle
        (("A", 0.125), ("A", 0.375), 0.25),
        (("A", 0.125), ("A", 0.875), 0.25),  # the short way crosses the center
        (("B", 0.625), ("A", 0.0625), 0.4375),
    ]
    pairs = [(circle_point(*p), circle_point(*q)) for p, q, _ in cases]
    expected = [d for _, _, d in cases]
    assert gamma_oracle(pairs) == expected
    assert [dist_gamma(p, q) for p, q in pairs] == expected


def test_chain_oracle_exact_cases():
    cases = [
        ("HA", "HA", 0.0),
        ("HA", "VA", 0.5),
        ("C1", "C2", 1.5),  # opposite vertices of the collapsed 6-cycle
        (("R", 0.25), ("Bc", 0.25), 1.5),
        (("H1", 0.25), ("H1", 0.75), 0.5),  # antipodal pair
        (("H1", 0.125), ("H1", 0.375), 0.25),
        ("C1", ("V1", 0.375), 0.125),  # vertex to a circle it lies on
        ("HB", ("V2", 0.625), 0.875),  # through VB; through C2 is 1.125
    ]

    def point(x):
        return vertex_point(x) if isinstance(x, str) else chain_point(*x)

    pairs = [(point(p), point(q)) for p, q, _ in cases]
    expected = [d for _, _, d in cases]
    assert chain_oracle(pairs) == expected


@given(chain_circles, angles, chain_circles, angles, chain_circles, angles)
def test_chain_oracle_is_a_metric(c1, t1, c2, t2, c3, t3):
    x, y, z = chain_point(c1, t1), chain_point(c2, t2), chain_point(c3, t3)
    xy, yx, yz, xz = chain_oracle([(x, y), (y, x), (y, z), (x, z)])
    assert xy == pytest.approx(yx)
    assert 0.0 <= xy <= 1.5 + 1e-12
    assert xz <= xy + yz + 1e-12
    if x == y:
        assert xy < 1e-12


def test_random_config_reaches_near_coincident_pairs():
    from random import Random

    rng = Random(123)
    separations = [dist_gamma(*random_config(rng)) for _ in range(2000)]
    assert min(separations) < 1e-9
    assert all(sep > 0.0 for sep in separations)


def test_random_config_reaches_the_boundary_band():
    from random import Random

    rng = Random(123)
    offsets = set()
    for _ in range(400):
        c = random_config(rng)
        for p in (c.p1, c.p2):
            offsets.add(abs(4.0 * p.s - round(4.0 * p.s)) / 4.0)
    # exact quarter points and positions 1e-12 ... 1e-8 off one are drawn
    assert 0.0 in offsets
    assert any(1e-13 < d < 2e-8 for d in offsets)


def test_random_chain_point_interior_margin():
    from random import Random

    rng = Random(7)
    for _ in range(200):
        p = random_chain_point(rng)
        assert not p.is_vertex
        folded = p.theta % 0.5
        assert min(folded, 0.5 - folded) > 1e-6


def test_gluing_twin_images_stay_close():
    # one robot hops between the two branches at the center; images must agree
    # to within the Lipschitz factor even though the flat squares differ
    twin_a = configuration("A", 5e-5, "B", 0.3)
    twin_b = configuration("B", 5e-5, "B", 0.3)
    gap = config_dist(twin_a, twin_b)
    assert gap == pytest.approx(1e-4, abs=1e-12)
    (image_gap,) = chain_oracle([(retract(twin_a).point, retract(twin_b).point)])
    assert image_gap <= 50.0 * gap


def _boundary_config(rng):
    """Both robots near the center, a pole or a quarter point, 1e-4 apart or more."""
    def near_mark():
        offset = rng.choice((-1, 1)) * rng.choice((0.0, 1e-7, 1e-5, 1e-3))
        return circle_point(rng.choice("AB"), (rng.choice((0.0, 0.25, 0.5, 0.75)) + offset) % 1.0)

    while True:
        p1, p2 = near_mark(), near_mark()
        if dist_gamma(p1, p2) >= 1e-4:
            return Configuration(p1, p2)


def _loop_min_separation(path: PhysPath, n: int) -> float:
    """Sampled reference for kink_min_separation: n evenly spaced times per
    segment, ends included, one sample at a time."""
    best = float("inf")
    step = 1.0 / (n - 1)
    for seg in path.segments:
        same = seg.circle1 == seg.circle2
        da, db = seg.a1 - seg.a0, seg.b1 - seg.b0
        for k in range(n):
            u = k * step
            x = seg.a0 + u * da
            y = seg.b0 + u * db
            if same:
                d = abs(x - y)
                if d > 0.5:
                    d = 1.0 - d
            else:
                d = min(x, 1.0 - x) + min(y, 1.0 - y)
            if d < best:
                best = d
    return best


def _oracle_paths() -> list[PhysPath]:
    """Plans of seeded random, vertex and boundary pairs, then retraction traces."""
    rng = Random(29)
    vertices = list(VERTEX_CONFIG.values())
    pairs = [(random_config(rng), random_config(rng)) for _ in range(300)]
    pairs += [(x, y) for x in vertices for y in vertices]
    pairs += [(_boundary_config(rng), _boundary_config(rng)) for _ in range(300)]
    paths = [plan(start, goal).path for start, goal in pairs]
    return paths + [path_from_legs([retract(random_config(rng)).leg]) for _ in range(300)]


def test_exact_separation_matches_sampled_oracle():
    for path in _oracle_paths():
        exact = path_min_separation(path)
        kinks = kink_min_separation(path)
        assert exact > 0.0
        assert abs(kinks - exact) <= 1e-12
        assert abs(kinks - _loop_min_separation(path, 64)) <= 1e-12


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(st.sampled_from(["AA", "AB"]), _unit, _unit, _unit, _unit)
def test_kink_oracle_brackets_a_dense_sample_on_unsplit_segments(square, a0, a1, b0, b1):
    # PathSegment is a plain record, so the segment may cross the pole or
    # pass a collision inside; the distance moves at most |a1 - a0| + |b1 - b0|
    # <= 2 per unit of u, so the true minimum lies within one sample step
    # below the sampled one
    n = 1025
    path = PhysPath((PathSegment(0.0, 1.0, square[0], a0, a1, square[1], b0, b1),))
    sampled = _loop_min_separation(path, n)
    assert sampled - 1.0 / (n - 1) - 1e-12 <= kink_min_separation(path) <= sampled + 1e-12


# The witnesses are the ones the per-pair loop reported when the suites
# sampled the separation (the collision suite's since extended by the hop
# and chain-length bounds); only rounding of the ends separates the oracle
# from the exact minimum.
@pytest.mark.parametrize(
    "suite, witness",
    [
        (
            "collision",
            "worst endpoint err 1.000e-12, min separation 9.998e-14, worst oracle gap 5.551e-17;"
            " max hops 7 (bound 7), max chain length 3.446 (bound 4)",
        ),
        (
            "retraction",
            "idempotence exact, worst trace endpoint 1.000e-13,"
            " worst oracle gap 0.000e+00; gluing probe worst ratio 8.88 (bound 50)",
        ),
    ],
)
def test_separation_suites_keep_their_witnesses(suite, witness):
    report = run_suite(suite, seed=0, n=600)
    assert report.passed
    assert report.witness == witness


@pytest.mark.parametrize(
    "suite, witness",
    [
        (
            "collision",
            "pair 299: start (B:0.25, A:0.75) goal (B:0.75, A:0.911631)"
            " path separation dropped to 0.0",
        ),
        ("retraction", "sample 299: trace of (B:0.159713, B:0.75) path separation dropped to 0.0"),
        ("termination", "pair 299: (H1,0.858448) -> (H1,0.358448) path separation dropped to 0.0"),
    ],
)
def test_separation_suites_name_the_failing_index(monkeypatch, suite, witness):
    # a collision forced on the 300th path, where certify_path reads its
    # exact separation: through validate_plan for a collision or termination
    # plan, directly for a retraction trace
    real = geometry.path_min_separation
    calls = []

    def forced(path):
        calls.append(path)
        return 0.0 if len(calls) == 300 else real(path)

    monkeypatch.setattr(geometry, "path_min_separation", forced)
    report = run_suite(suite, seed=0, n=600)
    assert not report.passed
    assert report.witness == witness


@pytest.mark.parametrize(
    "suite, n", [("collision", 50), ("retraction", 50), ("termination", 50), ("continuity", 1)]
)
def test_suites_certify_every_path_they_build(monkeypatch, suite, n):
    # each plan a suite builds passes validate_plan, and each retraction
    # trace certify_path
    calls = defaultdict(list)
    for name in ("plan", "validate_plan", "path_from_legs", "certify_path"):
        real, log = getattr(verify, name), calls[name]
        monkeypatch.setattr(verify, name, lambda *args, real=real, log=log: log.append(1) or real(*args))
    assert run_suite(suite, seed=0, n=n).passed
    assert len(calls["plan"]) + len(calls["path_from_legs"]) > 0
    assert len(calls["validate_plan"]) == len(calls["plan"])
    assert len(calls["certify_path"]) == len(calls["path_from_legs"])


def test_retraction_suite_names_an_uncertified_trace(monkeypatch):
    real, calls = verify.certify_path, []

    def broken(path, start, goal):
        calls.append(path)
        if len(calls) == 300:
            raise ContractError("forced defect")
        return real(path, start, goal)

    monkeypatch.setattr(verify, "certify_path", broken)
    report = run_suite("retraction", seed=0, n=600)
    assert not report.passed
    assert report.witness == "sample 299: trace of (B:0.159713, B:0.75) forced defect"


def test_continuity_probe_refuses_an_uncertified_path(monkeypatch):
    monkeypatch.setattr(geometry, "path_min_separation", lambda path: 0.0)
    with pytest.raises(ContractError, match="path separation dropped to 0.0"):
        continuity_probe(InstructionDomain.U1, seed=0, samples=1)


@pytest.mark.parametrize(
    "suite, n, call, witness",
    [
        ("collision", 600, 300, "pair 299: start (B:0.25, A:0.75) goal (B:0.75, A:0.911631) forced defect"),
        ("termination", 600, 300, "pair 299: (H1,0.858448) -> (H1,0.358448) forced defect"),
        # five plans per U1 sample, three per U2 sample, two samples per delta
        ("continuity", 2, 8, "U1 delta 0.01 sample 1: forced defect"),
        ("continuity", 2, 35, "U2 delta 0.01 sample 1: forced defect"),
    ],
)
def test_every_failure_names_its_case(monkeypatch, suite, n, call, witness):
    # an error from the planner itself fails the suite and names the case
    real, calls = verify.plan, []

    def broken(start, goal):
        calls.append(1)
        if len(calls) == call:
            raise ContractError("forced defect")
        return real(start, goal)

    monkeypatch.setattr(verify, "plan", broken)
    report = run_suite(suite, seed=0, n=n)
    assert not report.passed
    assert report.witness == witness


def test_continuity_suite_names_an_uncertified_path(monkeypatch):
    monkeypatch.setattr(geometry, "path_min_separation", lambda path: 0.0)
    report = run_suite("continuity", seed=0, n=1)
    assert not report.passed
    assert report.witness == "U1 delta 0.01 sample 0: path separation dropped to 0.0"


def test_collision_suite_reports_an_oracle_gap(monkeypatch):
    # the kink oracle pushed 0.5 off validate_plan's exact separation on the
    # 300th plan
    real = verify.kink_min_separation
    calls = []

    def shifted(path):
        calls.append(path)
        return real(path) + (0.5 if len(calls) == 300 else 0.0)

    monkeypatch.setattr(verify, "kink_min_separation", shifted)
    report = run_suite("collision", seed=0, n=600)
    assert not report.passed
    assert report.witness == (
        "pair 299: start (B:0.25, A:0.75) goal (B:0.75, A:0.911631)"
        " endpoint err 0.000e+00 min sep 3.384e-01 oracle gap 5.000e-01"
    )


def test_roundtrip_suite_catches_a_narrowed_vertex_snap(monkeypatch):
    # chain_point snaps angles within EPS of a vertex; at 1e-13 a spine point
    # 1e-12 off a vertex charts onto the center and comes back as the vertex.
    # Only the knife-edge draws reach such points.
    assert run_suite("roundtrip", seed=0, n=500).passed
    monkeypatch.setattr(spine, "EPS", 1e-13)
    report = run_suite("roundtrip", seed=0, n=500)
    assert not report.passed
    assert "came back as" in report.witness


# each suite that builds paths, and the first case it builds
FIRST_CASES = [
    ("collision", "pair 0: start (B:0.75, B:0.783799) goal (A:0.5, B:0.755804) "),
    ("retraction", "sample 0: trace of (B:0.75, B:0.783799) "),
    ("termination", "pair 0: (V1,0.757954) -> (V1,0.257954) "),
    ("continuity", "U1 delta 0.01 sample 0: "),
]


@pytest.mark.parametrize("suite, case", FIRST_CASES, ids=[suite for suite, _ in FIRST_CASES])
def test_every_suite_certifies_its_endpoints(monkeypatch, suite, case):
    # Every suite that builds a path certifies its two ends with
    # certify_path; an endpoint error of 1 fails the first case.
    monkeypatch.setattr(geometry, "chart_config_dist", lambda *args: 1.0)
    report = run_suite(suite, seed=0, n=20)
    assert not report.passed
    assert report.witness.startswith(case + "endpoint err 1.000e+00: the path runs ")


@pytest.mark.parametrize(
    "name, value, message",
    [("chart_on_spine", lambda *args: False, "plan leaves the spine at t="), ("MAX_HOPS", 0, "plan used ")],
    ids=["spine", "hops"],
)
@pytest.mark.parametrize(
    "suite, case",
    [(suite, case) for suite, case in FIRST_CASES if suite != "retraction"],
    ids=[suite for suite, _ in FIRST_CASES if suite != "retraction"],
)
def test_every_plan_suite_runs_the_plan_certificate(monkeypatch, suite, case, name, value, message):
    # Every suite that builds plans certifies each with validate_plan: a
    # spine check or a hop bound that no plan passes fails the first case.
    monkeypatch.setattr(planner, name, value)
    report = run_suite(suite, seed=0, n=20)
    assert not report.passed
    assert report.witness.startswith(case + message)
