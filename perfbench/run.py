"""fig8plan benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload plan-uniform --seed 1 --seconds 30 --trace 0

Workloads: plan-uniform, plan-boundary, cli-cold, suites.  With ``--trace 0``
the run measures the end-to-end metrics with no wrapper installed; with
``--trace 1`` it installs span wrappers and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with the environment stamp and output digest, is written to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``; compare two such
directories with ``perfbench/compare.py``.

Exit status: 0 when every op succeeded and passed the benchmark's checks,
1 when an op raised, exited non-zero or failed a check (the result is still
printed, with correct false), 2 when the benchmark cannot run here (no
result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import gen
import spans
import workloads as w

# Tail percentile per workload: the highest of 99.9, 99, 95 and 90 that
# leaves at least ten samples beyond it at the op count of a 30 s run on a
# 2-vCPU machine (plan: ~30k requests, cli-cold: ~200 processes).  A suite
# round at run_suite's default sizes takes 2-3 s there, so a run makes only
# 66-96 suite calls; even p90 leaves just 7-10 beyond, and suites use it as
# the lowest choice (the count beyond is reported with each result).
# For plan requests the tail is taken in chunks of TAIL_CHUNK consecutive
# requests (20 beyond p99 in each) and the median over chunks is reported:
# on a shared host a burst of interference filling 1% of a run moved the
# whole-run p99 by up to 2x (quartile spread 0.39 over ten seeds), and the
# whole-run p99.9 by 0.27 over five.
TAIL_PCT = {"plan-uniform": 99.0, "plan-boundary": 99.0, "cli-cold": 90.0, "suites": 90.0}
TAIL_CHUNK = {"plan-uniform": 2000, "plan-boundary": 2000}
DIGEST_OPS = {"plan-uniform": 2000, "plan-boundary": 2000, "cli-cold": 20, "suites": 6}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
PLAN_WORKLOADS = ("plan-uniform", "plan-boundary")


def percentile(values, pct: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def chunked_percentile(values, pct: float, chunk: int | None) -> float:
    """Median over consecutive chunks of each chunk's percentile; one chunk if None."""
    if chunk is None or len(values) < 2 * chunk:
        return percentile(values, pct)
    return statistics.median(percentile(values[i:i + chunk], pct)
                             for i in range(0, len(values) - chunk + 1, chunk))


def _warm_stream(seed: int):
    return gen.uniform_pairs(seed, tag="warm")


def measure(workload: str, seed: int, seconds: float) -> tuple[w.Run, dict, dict]:
    """The untraced run: end-to-end metrics."""
    setup = w.setup_seconds(workload)
    run = w.Run(DIGEST_OPS[workload])
    info = {}
    if workload in PLAN_WORKLOADS:
        w.plan_phase(_warm_stream(seed), w.WARMUP_S, w.Run(0))
        w.plan_phase(gen.STREAMS[workload](seed), seconds, run)
        rss_kib = w.peak_rss_kib()
    elif workload == "cli-cold":
        w.cli_phase(_warm_stream(seed), 0.3, w.Run(0))
        rss_kib = w.cli_phase(gen.STREAMS[workload](seed), seconds, run)
    else:
        w.suites_phase(seed, 1e-9, w.Run(0))
        info["suite_sizes"] = w.suites_phase(seed, seconds, run)
        rss_kib = w.peak_rss_kib()
    if not run.latencies:
        raise w.BenchError(f"no operation succeeded: {dict(run.fails)}")
    tail, chunk = TAIL_PCT[workload], TAIL_CHUNK.get(workload)
    tail_s = chunked_percentile(run.latencies, tail, chunk)
    values = {
        "setup_s": setup,
        "ops_per_s": statistics.median(run.rates),
        "latency_p50_ms": percentile(run.latencies, 50.0) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "ok_share": 1.0 - sum(run.fails.values()) / run.attempted,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    info.update({
        "tail_pct": tail,
        "tail_chunk": chunk or len(run.latencies),
        "latency_samples": len(run.latencies),
        "tail_samples_beyond": sum(1 for x in run.latencies if x > tail_s),
        "windows": len(run.rates),
    })
    return run, {m: (values[m], u) for m, u in END_TO_END_UNITS.items()}, info


def trace_layers(workload: str, seed: int, seconds: float) -> tuple[w.Run, dict, dict]:
    """The traced run: half the time untraced, half traced, on one stream."""
    tracer = spans.Tracer()
    base, traced = w.Run(DIGEST_OPS[workload]), w.Run(0)
    extra, extra_info = {}, {}
    if workload in PLAN_WORKLOADS:
        stream = gen.STREAMS[workload](seed)
        w.plan_phase(_warm_stream(seed), w.WARMUP_S, w.Run(0))
        w.plan_phase(stream, seconds / 2, base)
        tracer.install()
        w.plan_phase(stream, seconds / 2, traced, tracer)
        tracer.uninstall()
        units = traced.attempted
        overhead = statistics.median(traced.latencies) / statistics.median(base.latencies) - 1.0
    elif workload == "cli-cold":
        stream = gen.STREAMS[workload](seed)
        w.cli_main_phase(_warm_stream(seed), 0.5, w.Run(0))
        w.cli_main_phase(stream, seconds / 4, base)
        tracer.install()
        w.cli_main_phase(stream, seconds / 4, traced, tracer)
        tracer.uninstall()
        units = traced.attempted
        overhead = statistics.median(traced.latencies) / statistics.median(base.latencies) - 1.0
        extra["cli.main_ms"] = statistics.median(base.latencies) * 1e3
        extra.update(w.cli_probes())
    else:
        w.suites_phase(seed, 1e-9, w.Run(0))
        w.suites_phase(seed, seconds / 2, base)
        tracer.install()
        extra_info["suite_sizes"] = w.suites_phase(seed, seconds / 2, traced, tracer)
        tracer.uninstall()
        units = len(traced.rates)
        overhead = statistics.median(base.rates) / statistics.median(traced.rates) - 1.0
    fails = base.fails + traced.fails
    extra.update({f"fail.{kind}": float(fails[kind]) for kind in spans.FAIL_KINDS})
    extra["trace.overhead_share"] = overhead
    if traced.json_ok:
        extra["planner.json_bytes"] = traced.json_bytes / traced.json_ok
    metrics, absent = spans.layer_metrics(tracer, units, extra)
    spans_file = w.RESULTS / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_file)
    base.attempted += traced.attempted
    base.fails = fails
    base.errors += traced.errors
    info = {"traced_units": units, "absent": absent, "missing_targets": tracer.missing,
            "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(w.ROOT)),
            **extra_info}
    return base, metrics, info


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    # stop git at the checkout, so a checkout that is no repository reads None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(w.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=w.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((w.SRC / "fig8plan").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(TAIL_PCT))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (w.SRC / "fig8plan" / "__init__.py").is_file():
        print(f"error: no program source at {w.SRC / 'fig8plan'}; run from the root of a "
              "fig8plan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(w.SRC))
    w.SCRATCH.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        if args.trace:
            run, metrics, info = trace_layers(args.workload, args.seed, args.seconds)
        else:
            run, metrics, info = measure(args.workload, args.seed, args.seconds)
    except w.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # any failed op fails the run: a raise or a non-zero exit as much as a
    # failed output check
    failed = sum(run.fails.values())
    correct = failed == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "fail_share": failed / run.attempted,
        "fails": dict(run.fails),
        "errors": run.errors,
        "digest": run.digest,
        "digest_ops": run.digest_ops,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        **info,
        "started_unix": started,
        "environment": environment(),
    }
    out = w.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    absent = set(info.get("absent", ()))
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={run.attempted}"
          f" failed={failed} fail_share={result['fail_share']:.6g} fails={dict(run.fails)}")
    print(f"digest={run.digest} over the first {run.digest_ops} ops")
    if "tail_pct" in info:
        print(f"latency_tail_ms is p{info['tail_pct']:g} over chunks of {info['tail_chunk']}"
              f" of {info['latency_samples']} samples, {info['tail_samples_beyond']} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}{'  (absent)' if name in absent else ''}")
    for err in run.errors:
        print(f"FAILED {err}")
    if not correct:
        print(f"error: {failed} of {run.attempted} ops failed: {dict(run.fails)}", file=sys.stderr)
    print(f"result written to {out.relative_to(w.ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
