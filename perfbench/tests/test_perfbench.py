"""Self-tests of the benchmark: seeded generators, the output checker, and a
tiny run of every workload in a copy of the checkout.

Run with: python3 -m pytest perfbench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
from compare import fails_more, verdict  # noqa: E402
from check import CheckError, check_plan_json, check_svg  # noqa: E402


@pytest.mark.parametrize("stream", [gen.uniform_pairs, gen.boundary_pairs, gen.cli_pairs])
def test_streams_are_deterministic_per_seed(stream):
    first = list(itertools.islice(stream(7), 200))
    assert first == list(itertools.islice(stream(7), 200))
    assert first != list(itertools.islice(stream(8), 200))


def test_boundary_stream_leads_with_replays_and_keeps_separation():
    requests = list(itertools.islice(gen.boundary_pairs(3), 2000))
    assert tuple(requests[:2]) == gen.BOUNDARY_REPLAYS
    coords = [s for req in requests[2:] for config in req for _, s in config]
    assert any(s in (0.25, 0.5, 0.75) for s in coords)
    assert any(0.0 < abs(s - 0.25) <= 1e-8 for s in coords)
    assert all(gen.track_dist(*config) >= 1e-4 for req in requests[2:] for config in req)


def _plan_json(request):
    from fig8plan import planner
    from fig8plan.geometry import configuration

    (s1, s2), (g1, g2) = request
    p = planner.plan(configuration(*s1, *s2), configuration(*g1, *g2))
    return planner.plan_to_json(p)


REQUEST = ((("A", 0.3), ("B", 0.7)), (("B", 0.25), ("A", 0.6)))


def test_checker_accepts_real_plans():
    for request in itertools.islice(gen.uniform_pairs(1), 300):
        assert check_plan_json(json.dumps(_plan_json(request)), request) > 0.0


def test_checker_rejects_a_moved_endpoint():
    doc = _plan_json(REQUEST)
    doc["waypoints"][0]["r1"]["s"] += 1e-6
    with pytest.raises(CheckError, match="first waypoint"):
        check_plan_json(json.dumps(doc), REQUEST)


def test_checker_rejects_a_colliding_waypoint():
    doc = _plan_json(REQUEST)
    middle = doc["waypoints"][len(doc["waypoints"]) // 2]
    middle["r2"] = dict(middle["r1"])
    with pytest.raises(CheckError):
        check_plan_json(json.dumps(doc), REQUEST)


def test_checker_rejects_robots_passing_through_each_other():
    doc = {"instruction": 1, "hops": 0, "waypoints": [
        {"t": 0.0, "r1": {"circle": "A", "s": 0.1}, "r2": {"circle": "A", "s": 0.2}},
        {"t": 1.0, "r1": {"circle": "A", "s": 0.3}, "r2": {"circle": "A", "s": 0.15}},
    ]}
    request = ((("A", 0.1), ("A", 0.2)), (("A", 0.3), ("A", 0.15)))
    with pytest.raises(CheckError, match="meet"):
        check_plan_json(json.dumps(doc), request)


def test_checker_rejects_non_monotone_time():
    doc = _plan_json(REQUEST)
    wps = doc["waypoints"]
    wps[1]["t"], wps[2]["t"] = wps[2]["t"], wps[1]["t"]
    with pytest.raises(CheckError, match="strictly"):
        check_plan_json(json.dumps(doc), REQUEST)


def test_svg_check_counts_spine_arcs():
    from fig8plan.render import render_svg

    check_svg(render_svg())
    with pytest.raises(CheckError):
        check_svg(render_svg().replace("spine-arc", "arc"))
    with pytest.raises(CheckError):
        check_svg("<svg")


def _copy_checkout(dest: Path, with_source: bool = True) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src" / "fig8plan", dest / "src" / "fig8plan",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("plan-uniform", 0), ("plan-uniform", 1), ("cli-cold", 0), ("cli-cold", 1),
    ("suites", 0), ("suites", 1),
])
def test_tiny_run_prints_every_metric(tmp_path, workload, trace):
    _copy_checkout(tmp_path)
    proc = _run(tmp_path, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in last["metrics"].items()}
    human = proc.stdout.strip().splitlines()[:-1]
    for name, value in last["metrics"].items():
        assert any(line.split()[:1] == [name] and line.endswith(value["unit"]) for line in human)


def test_boundary_run_reports_its_failures(tmp_path):
    _copy_checkout(tmp_path)
    proc = _run(tmp_path, "--workload", "plan-boundary", "--seed", "1", "--seconds", "1")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["failed"] > 0
    assert last["correct"] is False and proc.returncode == 1


def test_run_without_program_source_fails_without_result(tmp_path):
    _copy_checkout(tmp_path, with_source=False)
    proc = _run(tmp_path, "--workload", "plan-uniform", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_reads_more_failures_as_worse():
    base = {1: 100.0, 2: 101.0, 3: 99.0}
    faster = {1: 150.0, 2: 151.0, 3: 149.0}
    assert verdict(base, faster, "higher", 0.25) == "better"
    assert fails_more([0, 3000], [1, 4000])
    assert verdict(base, faster, "higher", 0.25, more_fails=True) == "worse"
    # failures are compared as shares: more ops at the same rate is no worse
    assert not fails_more([3, 3000], [4, 4000])
    assert not fails_more([0, 3000], [0, 4000])
