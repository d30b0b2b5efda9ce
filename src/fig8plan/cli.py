"""Command line front end: plan, verify, tc, render.

Exit codes are part of the contract: 0 success, 1 failing verification suite
(whatever failed inside it; its report is still printed), broken plan
contract or an output file that cannot be written, 2 usage or parse errors
(including unknown suites), 3 colliding input configurations.
Code 4 is retired: every valid input plans, so it is never emitted, and it
is not reused.  Emitted JSON is byte-stable for fixed inputs, on Python 3.10
to 3.13 alike: floats are written by json's repr, the shortest text that
reads back as the same float, so the waypoints are the path's own values;
key order never changes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CollisionError, ContractError, DomainError
from .geometry import Configuration, parse_position
from .planner import plan, plan_to_json, validate_plan
from .render import RenderSpec, render_svg
from .spine import CHAIN_VERTICES, NECKLACE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fig8plan",
        description="Collision-free two-robot trajectories on a figure-eight track.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a trajectory between two configurations")
    p.add_argument("--from-r1", required=True, metavar="C:S", help="start of robot 1, e.g. A:0.3")
    p.add_argument("--from-r2", required=True, metavar="C:S", help="start of robot 2")
    p.add_argument("--to-r1", required=True, metavar="C:S", help="goal of robot 1")
    p.add_argument("--to-r2", required=True, metavar="C:S", help="goal of robot 2")
    p.add_argument("--out", metavar="FILE", help="write the plan JSON here instead of stdout")
    p.add_argument("--svg", metavar="FILE", help="also render the plan to this SVG file")
    p.set_defaults(func=cmd_plan)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, help="suite name; an unknown one lists all six")
    v.add_argument("--seed", type=int, default=0, help="suite RNG seed (default 0)")
    v.add_argument("--n", type=int, default=None, help="sample count (suite default if omitted)")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("tc", help="print the cycle rank and instruction count")
    t.set_defaults(func=cmd_tc)

    r = sub.add_parser("render", help="render the four-square picture with the spine")
    r.add_argument("--svg", metavar="FILE", help="write the SVG here instead of stdout")
    r.add_argument("--size", type=float, default=720.0, help="canvas size in px (default 720)")
    r.set_defaults(func=cmd_render)
    return parser


def cmd_plan(args) -> int:
    start = Configuration(parse_position(args.from_r1), parse_position(args.from_r2))
    goal = Configuration(parse_position(args.to_r1), parse_position(args.to_r2))
    result = plan(start, goal)
    validate_plan(result)
    text = json.dumps(plan_to_json(result), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(result))
    if args.out or args.svg:
        written = [name for name in (args.out, args.svg) if name]
        print(f"wrote {', '.join(written)}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite  # here, so that plan and render start without the suites

    report = run_suite(args.suite, seed=args.seed, n=args.n)
    print(json.dumps(report.to_json()))
    return 0 if report.passed else 1


def cmd_tc(args) -> int:
    from .verify import cycle_rank, tc_wedge

    # each necklace circle is two edges between its vertices, one per half arc
    b1 = cycle_rank(CHAIN_VERTICES, [(v0, v1) for _, _, _, v0, v1 in NECKLACE] * 2)
    print(json.dumps({"b1": b1, "tc": tc_wedge(b1)}))
    return 0


def cmd_render(args) -> int:
    svg = render_svg(spec=RenderSpec(size=args.size))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}", file=sys.stderr)
    else:
        sys.stdout.write(svg + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except CollisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
