"""The workloads: seeded requests driven by one closed-loop client.

One client sends the next request only after the previous one completes.
Plan requests and suite rounds run in this process; ``cli-cold`` starts one
``fig8plan plan`` process at a time.  Outputs are checked between timing
windows, so the check costs no measured time.

Each phase fills a ``Run``: what was attempted and failed, the latency of
every successful op, the op rate of every window, and a sha256 digest of the
outputs of the first ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import spans
from check import CheckError, check_plan_json, check_svg, suite_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SCRATCH = RESULTS / "scratch"

SETUP_PROBES = 7
WARMUP_S = 2.0
PLAN_WINDOW_S = 0.5
CLI_WINDOW_S = 2.0
CLI_PROBES = 10
CLI_ENTRY = "import sys; from fig8plan.cli import main; sys.exit(main())"
# the documented exit codes of ``fig8plan plan``, named by the error behind them
EXIT_NAMES = {1: "ContractError", 2: "DomainError", 3: "CollisionError", 4: "SingularityError"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Run:
    """Counts, latencies, window rates and output digest of one phase."""

    def __init__(self, digest_ops: int) -> None:
        self.attempted = 0
        self.fails: Counter = Counter()
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.rates: list[float] = []
        self.json_bytes = 0
        self.json_ok = 0
        self._digest = hashlib.sha256()
        self._digest_left = digest_ops
        self.digest_ops = 0

    def _digest_add(self, record: str) -> None:
        if self._digest_left > 0:
            self._digest.update(record.encode() + b"\0")
            self._digest_left -= 1
            self.digest_ops += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def ok(self, record: str) -> None:
        self.attempted += 1
        self._digest_add(record)

    def fail(self, kind: str, detail: str) -> None:
        self.attempted += 1
        self.fails[kind] += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {detail}")
        self._digest_add(f"fail {kind}")

    def check_plan(self, text: str, request) -> bool:
        try:
            check_plan_json(text, request)
        except CheckError as exc:
            self.fail("check", f"{exc} for {request}")
            return False
        self.json_bytes += len(text)
        self.json_ok += 1
        return True


def _fail_kind(exc: BaseException) -> str:
    name = type(exc).__name__
    return name if name in spans.FAIL_KINDS else "other"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# plan requests in process


def _configs(request):
    from fig8plan.geometry import configuration

    (s1, s2), (g1, g2) = request
    return configuration(*s1, *s2), configuration(*g1, *g2)


def plan_phase(stream, seconds: float, run: Run, tracer=None) -> None:
    """Plan requests in windows of about PLAN_WINDOW_S until ``seconds`` are spent.

    An op is what ``fig8plan plan`` does without the process and the file:
    plan, validate_plan, plan_to_json and json.dumps.
    """
    from fig8plan import planner

    clock = time.perf_counter
    spent, batch = 0.0, 64
    while spent < seconds:
        todo = []
        for request in (next(stream) for _ in range(batch)):
            try:
                todo.append((request, _configs(request), None))
            except Exception as exc:
                todo.append((request, None, exc))
        done = []
        w0 = clock()
        for request, configs, failure in todo:
            text = None
            if failure is None:
                if tracer is not None:
                    tracer.op = run.attempted + len(done)
                t0 = clock()
                try:
                    p = planner.plan(*configs)
                    planner.validate_plan(p)
                    text = json.dumps(planner.plan_to_json(p), indent=2)
                except Exception as exc:
                    failure = exc
                else:
                    run.latencies.append(clock() - t0)
            done.append((request, text, failure))
        elapsed = clock() - w0
        spent += elapsed
        run.rates.append(len(done) / elapsed)
        batch = max(16, round(len(done) / elapsed * PLAN_WINDOW_S))
        for request, text, failure in done:
            if failure is not None:
                run.fail(_fail_kind(failure), f"{failure} for {request}")
            elif run.check_plan(text, request):
                run.ok(text)


# ---------------------------------------------------------------------------
# fresh CLI processes


def _cli_args(request, out_json: Path, out_svg: Path) -> list[str]:
    (s1, s2), (g1, g2) = request
    pos = gen.position_arg
    return ["plan", "--from-r1", pos(s1), "--from-r2", pos(s2), "--to-r1", pos(g1),
            "--to-r2", pos(g2), "--out", str(out_json), "--svg", str(out_svg)]


def _check_cli_files(run: Run, request, out_json: Path, out_svg: Path) -> None:
    try:
        text, svg = out_json.read_text(), out_svg.read_text()
        check_svg(svg)
    except (OSError, CheckError) as exc:
        run.fail("check", f"{exc} for {request}")
        return
    if run.check_plan(text, request):
        run.ok(text + svg)


def cli_phase(stream, seconds: float, run: Run) -> int:
    """Sequential fresh ``fig8plan plan`` processes; returns their peak RSS in KiB."""
    env, clock = child_env(), time.perf_counter
    out_json, out_svg, err_path = SCRATCH / "plan.json", SCRATCH / "plan.svg", SCRATCH / "stderr.txt"
    spent = window = 0.0
    window_ops = peak = 0
    while spent < seconds:
        request = next(stream)
        out_json.unlink(missing_ok=True)
        out_svg.unlink(missing_ok=True)
        argv = [sys.executable, "-c", CLI_ENTRY, *_cli_args(request, out_json, out_svg)]
        with open(err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak = max(peak, usage.ru_maxrss)
        spent += elapsed
        window += elapsed
        window_ops += 1
        if window >= CLI_WINDOW_S or not run.rates and spent >= seconds:
            run.rates.append(window_ops / window)
            window, window_ops = 0.0, 0
        if proc.returncode != 0:
            run.fail(EXIT_NAMES.get(proc.returncode, "other"), err_path.read_text().strip())
            continue
        run.latencies.append(elapsed)
        _check_cli_files(run, request, out_json, out_svg)
    return peak


def cli_main_phase(stream, seconds: float, run: Run, tracer=None) -> None:
    """In-process ``cli.main`` calls, for the traced run's layer numbers."""
    from fig8plan import cli

    clock = time.perf_counter
    out_json, out_svg = SCRATCH / "main.json", SCRATCH / "main.svg"
    spent = 0.0
    with contextlib.redirect_stderr(io.StringIO()):
        while spent < seconds:
            request = next(stream)
            out_json.unlink(missing_ok=True)
            out_svg.unlink(missing_ok=True)
            argv = _cli_args(request, out_json, out_svg)
            if tracer is not None:
                tracer.op = run.attempted
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            t0 = clock()
            try:
                with span:
                    code = cli.main(argv)
            except Exception as exc:
                code, failure = None, exc
            elapsed = clock() - t0
            spent += elapsed
            if code is None:
                run.fail(_fail_kind(failure), f"{failure} for {request}")
            elif code != 0:
                run.fail(EXIT_NAMES.get(code, "other"), f"exit {code} for {request}")
            else:
                run.latencies.append(elapsed)
                _check_cli_files(run, request, out_json, out_svg)


def _child_ms(code: str, env: dict) -> float:
    """Median wall time of fresh ``python -c code`` processes, or of what they print."""
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"probe {code!r} failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout) if proc.stdout.strip() else elapsed * 1e3)
    return statistics.median(times)


def cli_probes() -> dict:
    """The floor no change can move (bare interpreter) and the cost of the CLI's imports."""
    env = child_env()
    return {
        "cli.interpreter_ms": _child_ms("pass", env),
        "cli.import_ms": _child_ms(
            "import time; t = time.perf_counter(); import fig8plan.cli;"
            " print((time.perf_counter() - t) * 1e3)", env),
    }


# ---------------------------------------------------------------------------
# verification suites


def suites_phase(seed: int, seconds: float, run: Run, tracer=None) -> dict:
    """Rounds of all six suites, every round on the same seed.

    Each suite runs at ``run_suite``'s own default n, the sizes of the
    repository's quick run (``fig8plan verify``, ``run_all_suites.py``).
    A latency sample is one suite call; a window is one round and its rate
    counts suite samples.  Returns the n each suite ran at.
    """
    from fig8plan import verify

    clock = time.perf_counter
    spent, sizes = 0.0, {}
    while spent < seconds:
        if tracer is not None:
            tracer.op = len(run.rates)
        round_time, samples = 0.0, 0
        for name in verify.SUITE_NAMES:
            span = tracer.span(f"verify.{name}") if tracer else contextlib.nullcontext()
            t0 = clock()
            try:
                with span:
                    report = verify.run_suite(name, seed=seed)
            except Exception as exc:
                round_time += clock() - t0
                run.fail(_fail_kind(exc), f"suite {name}: {exc}")
                continue
            elapsed = clock() - t0
            round_time += elapsed
            samples += report.n
            sizes[name] = report.n
            try:
                record = suite_record(report.to_json())
            except CheckError as exc:
                run.fail("check", str(exc))
                continue
            run.latencies.append(elapsed)
            run.ok(record)
        spent += round_time
        run.rates.append(samples / round_time)
    return sizes


# ---------------------------------------------------------------------------
# set-up time


def setup_seconds(workload: str) -> float:
    """Median over SETUP_PROBES fresh interpreters of spawn-to-ready time."""
    env, times = child_env(), []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(SCRATCH)],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe for {workload} failed: {err.strip()}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
