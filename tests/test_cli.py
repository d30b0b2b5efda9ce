"""CLI behavior: subcommands, exit codes, and byte-stable JSON output."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fig8plan import cli
from fig8plan.cli import main
from fig8plan.geometry import constant_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tc_output(capsys):
    code, out, _ = run(capsys, "tc")
    assert code == 0
    assert out.strip() == '{"b1": 7, "tc": 3}'


def test_plan_to_stdout(capsys):
    code, out, _ = run(
        capsys, "plan", "--from-r1", "A:0.3", "--from-r2", "B:0.7",
        "--to-r1", "B:0.25", "--to-r2", "A:0.6",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"instruction", "hops", "waypoints"}
    assert doc["instruction"] in (1, 2, 3)
    assert doc["hops"] <= 7
    ts = [w["t"] for w in doc["waypoints"]]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    first = doc["waypoints"][0]
    assert first["r1"] == {"circle": "A", "s": 0.3}
    assert first["r2"] == {"circle": "B", "s": 0.7}


def test_plan_files_byte_stable(tmp_path, capsys):
    args = [
        "plan", "--from-r1", "A:0.31", "--from-r2", "B:0.7",
        "--to-r1", "B:0.25", "--to-r2", "A:0.6",
    ]
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    svg = tmp_path / "p.svg"
    assert main(args + ["--out", str(out1), "--svg", str(svg)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count('class="spine-arc"') == 12


def test_plan_reports_written_files(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code, stdout, stderr = run(
        capsys, "plan", "--from-r1", "A:0.3", "--from-r2", "B:0.7",
        "--to-r1", "B:0.25", "--to-r2", "A:0.6", "--out", str(out),
    )
    assert code == 0
    assert stdout == ""
    assert str(out) in stderr


def test_plan_identical_endpoints(capsys):
    code, out, _ = run(
        capsys, "plan", "--from-r1", "A:0.2", "--from-r2", "B:0.9",
        "--to-r1", "A:0.2", "--to-r2", "B:0.9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hops"] == 0
    # off the spine, so out to its image (V1 at theta 0.75) and back
    first, *middle, last = [(w["r1"], w["r2"]) for w in doc["waypoints"]]
    assert first == last == ({"circle": "A", "s": 0.2}, {"circle": "B", "s": 0.9})
    assert ({"circle": "A", "s": 0.5}, {"circle": "B", "s": 0.75}) in middle


def test_exit_code_collision(capsys):
    code, _, err = run(
        capsys, "plan", "--from-r1", "A:0.3", "--from-r2", "A:0.3",
        "--to-r1", "B:0.1", "--to-r2", "A:0.6",
    )
    assert code == 3
    assert "error" in err


def test_exit_code_broken_plan(monkeypatch, capsys):
    # plan() returns an uncertified plan; the CLI certifies it before it
    # writes anything, so a path that misses its goal is exit 1
    real = cli.plan
    monkeypatch.setattr(
        cli, "plan", lambda start, goal: real(start, goal)._replace(path=constant_path(start))
    )
    code, out, err = run(
        capsys, "plan", "--from-r1", "A:0.3", "--from-r2", "B:0.7",
        "--to-r1", "B:0.25", "--to-r2", "A:0.6",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("internal contract violation: endpoint err")


def test_exit_code_parse(capsys):
    code, _, _ = run(
        capsys, "plan", "--from-r1", "A:1.5", "--from-r2", "A:0.3",
        "--to-r1", "B:0.1", "--to-r2", "A:0.6",
    )
    assert code == 2
    code, _, _ = run(
        capsys, "plan", "--from-r1", "Q:0.5", "--from-r2", "A:0.3",
        "--to-r1", "B:0.1", "--to-r2", "A:0.6",
    )
    assert code == 2


def test_exit_code_usage(capsys):
    assert run(capsys, "plan", "--from-r1", "A:0.1")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_exit_code_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_exit_code_unwritable_plan_output(tmp_path, capsys):
    # A file that cannot be written is an error of the run, exit 1.
    target = tmp_path / "missing" / "plan.json"
    code, out, err = run(
        capsys, "plan", "--from-r1", "A:0.3", "--from-r2", "B:0.7",
        "--to-r1", "B:0.25", "--to-r2", "A:0.6", "--out", str(target),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 2]") and "Traceback" not in err
    assert not target.parent.exists()


def test_exit_code_unwritable_render_output(tmp_path, capsys):
    target = tmp_path / "missing" / "spine.svg"
    code, out, err = run(capsys, "render", "--svg", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 2]") and "Traceback" not in err


def test_near_diagonal_input_plans(capsys):
    # Two robots 1e-16 apart on one circle plan like any other valid input.
    code, out, err = run(
        capsys, "plan", "--from-r1", "A:0.3", "--from-r2", "A:0.3000000000000001",
        "--to-r1", "B:0.1", "--to-r2", "A:0.6",
    )
    assert code == 0, err
    assert json.loads(out)["instruction"] in (1, 2, 3)


def test_near_collision_json_keeps_robots_apart(capsys):
    # The robots start 1e-16 apart; the JSON writes each s as the shortest
    # text that reads back as the same float, so distinct robots never
    # print at one place.
    code, out, err = run(
        capsys, "plan", "--from-r1", "A:0.3", "--from-r2", "A:0.3000000000000001",
        "--to-r1", "B:0.1", "--to-r2", "A:0.6",
    )
    assert code == 0, err
    waypoints = json.loads(out)["waypoints"]
    assert all(w["r1"] != w["r2"] for w in waypoints)
    assert waypoints[0]["r1"]["s"] == 0.3
    assert waypoints[0]["r2"]["s"] == 0.3000000000000001


def _loaded_after(statement, names):
    """Which of names a fresh interpreter holds in sys.modules after statement."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; {statement}; "
        f"print(' '.join(m for m in {names!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cold_import_leaves_suites_unloaded():
    # plan, render and their imports need neither the suites nor dataclasses
    # (whose import pulls in inspect, ast and dis) nor numpy and scipy.
    names = ("fig8plan.verify", "dataclasses", "numpy", "scipy")
    assert _loaded_after("import fig8plan.cli", names) == []


def test_roundtrip_suite_runs_on_the_standard_library():
    # every suite, at a small n: the distance oracles are heapq Dijkstra on
    # spliced graphs, and the separation oracle reads each segment's kinks
    sizes = {
        "collision": 20,
        "partition": 50,
        "retraction": 20,
        "continuity": 2,
        "termination": 20,
        "roundtrip": 20,
    }
    statement = (
        "from fig8plan.verify import SUITE_NAMES, run_suite; "
        f"sizes = {sizes!r}; "
        "assert sorted(sizes) == sorted(SUITE_NAMES); "
        "assert all(run_suite(name, n=n).passed for name, n in sizes.items())"
    )
    assert _loaded_after(statement, ("numpy", "scipy")) == []


def test_verify_passing_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "partition", "--seed", "9", "--n", "500")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["suite"] == "partition"
    assert report["seed"] == 9
    assert report["n"] == 500
    assert "witness" in report and "elapsed_ms" in report


def test_verify_failing_suite_is_exit_1_with_its_report(monkeypatch, capsys):
    # a perturbation that leaves its domain fails the suite: exit 1 and the
    # report, not the exit 2 of a usage error
    from fig8plan import verify
    from fig8plan.planner import InstructionDomain

    real, calls = verify.classify_domain, []

    def misclassify(x, y):
        calls.append(1)
        return InstructionDomain.U3 if len(calls) == 40 else real(x, y)

    monkeypatch.setattr(verify, "classify_domain", misclassify)
    code, out, err = run(capsys, "verify", "--suite", "continuity", "--n", "4")
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["suite"] == "continuity" and report["pass"] is False
    assert report["witness"].startswith("perturbation left InstructionDomain.U1: ")


def test_render_subcommand(tmp_path, capsys):
    target = tmp_path / "spine.svg"
    code, _, _ = run(capsys, "render", "--svg", str(target))
    assert code == 0
    text = target.read_text()
    assert text.count('class="spine-arc"') == 12
    assert text.count('class="vertex"') == 6


def test_render_to_stdout(capsys):
    code, out, _ = run(capsys, "render")
    assert code == 0
    assert out.startswith("<svg")


@pytest.mark.parametrize("size", ["100", "nan", "inf"])
def test_render_rejects_bad_size(capsys, size):
    # 100 used to raise an uncaught ValueError; nan wrote width="nan".
    code, out, err = run(capsys, "render", "--size", size)
    assert code == 2
    assert out == ""
    assert err.startswith("error: canvas size") and "Traceback" not in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        # used to exit 1: path assembly pulled B:0.4999999999999 onto the pole
        ("B:0.249999999", "A:0.9948468822843032", "B:1e-09", "B:0.4999999999999"),
        # used to exit 2: a spine step straddled 1/2 and read chart value -1e-9
        ("A:0.7500000001", "A:0.500000002", "A:0.4999999995", "A:0.999999999"),
    ],
)
def test_boundary_replays_plan(capsys, argv):
    code, out, err = run(
        capsys, "plan", "--from-r1", argv[0], "--from-r2", argv[1],
        "--to-r1", argv[2], "--to-r2", argv[3],
    )
    assert code == 0, err
    ts = [w["t"] for w in json.loads(out)["waypoints"]]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_run_all_suites_prints_the_replay_of_a_failing_suite(monkeypatch, capsys):
    # a failing suite's exact replay goes to stderr, with the n it ran at
    # quick and at --full size; the stdout report lines stay as they are
    from fig8plan.verify import SuiteReport

    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_suites.py"
    spec = importlib.util.spec_from_file_location("run_all_suites", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    defaults = {
        "collision": 1000,
        "partition": 20000,
        "retraction": 1000,
        "continuity": 12,
        "termination": 1000,
        "roundtrip": 500,
    }

    def fake_run_suite(name, seed=0, n=None):
        n = defaults[name] if n is None else n
        return SuiteReport(name, seed, n, name != "retraction", "witness", 0.0)

    monkeypatch.setattr(script, "run_suite", fake_run_suite)
    for argv, n in ((["--seed", "7"], 1000), (["--seed", "7", "--full"], 10_000)):
        monkeypatch.setattr(sys, "argv", ["run_all_suites.py", *argv])
        assert script.main() == 1
        out, err = capsys.readouterr()
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["suite"] for r in reports] == list(defaults)
        assert [r["pass"] for r in reports] == [r["suite"] != "retraction" for r in reports]
        assert err.splitlines() == [
            f"retraction failed; replay with: fig8plan verify --suite retraction --seed 7 --n {n}",
            "1 suite(s) failed",
        ]


def test_run_all_suites_reports_every_suite_when_one_raises(monkeypatch, capsys):
    # with every path the suites certify themselves colliding, three suites
    # fail; each still gets its report and its replay, and the later suites run
    from fig8plan import verify

    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_suites.py"
    spec = importlib.util.spec_from_file_location("run_all_suites", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(verify, "path_min_separation", lambda path: 0.0)
    monkeypatch.setattr(sys, "argv", ["run_all_suites.py", "--seed", "3"])
    assert script.main() == 1
    out, err = capsys.readouterr()
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["suite"] for r in reports] == list(verify.SUITE_NAMES)
    failed = ["retraction", "continuity", "termination"]
    assert [r["suite"] for r in reports if not r["pass"]] == failed
    assert err.splitlines() == [
        *(f"{name} failed; replay with: fig8plan verify --suite {name} --seed 3 --n {n}"
          for name, n in zip(failed, (1000, 12, 1000))),
        "3 suite(s) failed",
    ]
