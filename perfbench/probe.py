"""Set-up probe: a fresh interpreter imports what a workload uses, runs one
warm-up operation and prints ``ready``.  The parent times it from spawn to
that line.

Usage: python3 perfbench/probe.py WORKLOAD SCRATCH_DIR   (PYTHONPATH=src)
"""

import sys

# one fixed request, so the probe does no input generation
REQUEST = ("A:0.3", "B:0.7", "B:0.25", "A:0.6")


def main(workload: str, scratch: str) -> None:
    if workload in ("plan-uniform", "plan-boundary"):
        import json

        from fig8plan import planner
        from fig8plan.geometry import Configuration, parse_position

        pos = [parse_position(text) for text in REQUEST]
        p = planner.plan(Configuration(*pos[:2]), Configuration(*pos[2:]))
        planner.validate_plan(p)
        json.dumps(planner.plan_to_json(p), indent=2)
    elif workload == "cli-cold":
        import contextlib
        import io

        from fig8plan.cli import main as cli_main

        argv = ["plan", "--from-r1", REQUEST[0], "--from-r2", REQUEST[1], "--to-r1", REQUEST[2],
                "--to-r2", REQUEST[3], "--out", f"{scratch}/probe.json", "--svg", f"{scratch}/probe.svg"]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"warm-up plan exited {code}")
    elif workload == "suites":
        from fig8plan import verify

        # the roundtrip suite is the one that loads scipy for its oracles
        if not verify.run_suite("roundtrip", seed=0, n=1).passed:
            raise SystemExit("warm-up roundtrip suite failed")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:3])
