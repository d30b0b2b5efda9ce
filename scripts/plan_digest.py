"""Check that plans are byte- and field-stable on the benchmark's request streams,
and that the verification suites report exactly as before.

Usage: python scripts/plan_digest.py

For the first 20 000 requests of each of perfbench/gen.py's uniform_pairs(7),
cli_pairs(7) and boundary_pairs(7), the script feeds four sha256 digests per
stream:

* json: json.dumps(plan_to_json(plan(start, goal))), one line per request;
* path: the repr of the trajectory fields (domain, hop_count,
  path.segments, spine_interval, trace_in and trace_out), one line per
  request.  repr writes every float exactly, so this digest also sees a
  change in the last bit of what the JSON leaves out: the segment starts,
  spine_interval and the retraction legs;
* walk: the repr of the walk's chart legs (Plan.steps), one line per
  request, so a change to how the walk is represented shows apart from
  the trajectory it yields;
* cert: the repr of validate_plan(plan), the certified (endpoint error,
  minimum separation), one line per request, so a change to how a plan is
  certified shows that it certifies the same values to the last bit.

It also hashes the reports of the six verification suites at their quick
sizes (run_suite's default n) for seeds 0 and 1, each report's JSON without
its elapsed_ms on one line.  So a change to the hot path shows that the
suites draw the same samples and reach the same verdicts and witnesses.

Last, one svg digest hashes render_svg(plan(start, goal)) for the first
1500 requests of each stream and for the 36 ordered pairs of spine vertices,
one SVG document per line, so a change to the renderer shows that it draws
the same picture byte for byte.

It prints each digest and exits 1 unless every one equals the frozen value
below.  A change that must alter plans, suite reports or pictures on purpose
updates these values in the same change and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from fig8plan.geometry import configuration  # noqa: E402
from fig8plan.planner import plan, plan_to_json, validate_plan  # noqa: E402
from fig8plan.render import render_svg  # noqa: E402
from fig8plan.spine import CHAIN_VERTICES, VERTEX_CONFIG  # noqa: E402
from fig8plan.verify import SUITE_NAMES, run_suite  # noqa: E402

SEED = 7
REQUESTS = 20_000
DIGESTS = {
    ("uniform", "json"): "724bcdf2d5b98bd3e0c7bbc131aeadc566ea6e1cac3cc5eaa9024d99a18ce60b",
    ("cli", "json"): "73656f5f09df5bb39231b2125ec52bf485cfa4dfc08172e8baa0181780e1af6a",
    ("boundary", "json"): "9a8aac60bb530bd70cefc11a10a0cd7ae370cc8b5fecb21405303a0bc7468495",
    ("uniform", "path"): "71894263f8db8eca5fc07daf25b57d0cc1f1ec18c073f5dc33e9a8392214e072",
    ("cli", "path"): "2dd0bec0d5d143fd7a83c4970f1801a8a96fc5309650d46ae66d99e06e2c6593",
    ("boundary", "path"): "0e18bf6aeeaa074fd02159aa28f9f73284d0641bbc829279a46404278a3d62e2",
    ("uniform", "walk"): "7e2dfb91059db463c38cda657630c83fddfd8934b72057c72f4126a781ba57a9",
    ("cli", "walk"): "82e3574a9a63fcbdb65f8f90bff92a9596b0ed618c94ebc45d3c3d6b220c1af0",
    ("boundary", "walk"): "798207b9e7173cd61d3f18700729033273aa0656bb721c0395763904682777aa",
    ("uniform", "cert"): "b05e12f0accc847476227edbe61e4e65a15e50b034059ad0aa5a92ce8f8ef991",
    ("cli", "cert"): "e9c948c0d110f24af5fdf713cc8425122dc5f77683ff87a95c31b8bccaae0e2a",
    ("boundary", "cert"): "22882ff77717d661853f2402f85a269b6038522946b4dd47d1c73134ec139605",
}
STREAMS = {"uniform": gen.uniform_pairs, "cli": gen.cli_pairs, "boundary": gen.boundary_pairs}
SUITE_SEEDS = (0, 1)
SUITE_DIGEST = "5b559b97b432f33c4b103d4724405092944d0f11bab7889a0d204cbd01494f73"
SVG_REQUESTS = 1500
SVG_DIGEST = "320e93e0862318e72257887701ae22274295bea13ec516adab0d01c11e807dec"


def stream_digests(pairs) -> dict[str, str]:
    text, path, walk, cert = (hashlib.sha256() for _ in range(4))
    for _, ((s1, s2), (g1, g2)) in zip(range(REQUESTS), pairs):
        p = plan(configuration(*s1, *s2), configuration(*g1, *g2))
        text.update(json.dumps(plan_to_json(p)).encode() + b"\n")
        record = (p.domain, p.hop_count, p.path.segments, p.spine_interval, p.trace_in, p.trace_out)
        path.update(repr(record).encode() + b"\n")
        walk.update(repr(p.steps).encode() + b"\n")
        cert.update(repr(validate_plan(p)).encode() + b"\n")
    return {"json": text.hexdigest(), "path": path.hexdigest(), "walk": walk.hexdigest(),
            "cert": cert.hexdigest()}


def suite_digest() -> str:
    reports = hashlib.sha256()
    for seed in SUITE_SEEDS:
        for name in SUITE_NAMES:
            record = run_suite(name, seed=seed).to_json()
            del record["elapsed_ms"]
            reports.update(json.dumps(record).encode() + b"\n")
    return reports.hexdigest()


def svg_digest() -> str:
    pictures = hashlib.sha256()
    requests = [
        (configuration(*s1, *s2), configuration(*g1, *g2))
        for stream in STREAMS.values()
        for _, ((s1, s2), (g1, g2)) in zip(range(SVG_REQUESTS), stream(SEED))
    ]
    requests += [(VERTEX_CONFIG[v], VERTEX_CONFIG[w]) for v in CHAIN_VERTICES
                 for w in CHAIN_VERTICES]
    for start, goal in requests:
        pictures.update(render_svg(plan(start, goal)).encode() + b"\n")
    return pictures.hexdigest()


def check(name: str, kind: str, digest: str, expected: str) -> bool:
    ok = digest == expected
    print(f"{name:9} {kind:6} {digest} {'ok' if ok else 'CHANGED, expected ' + expected}")
    return ok


def main() -> int:
    failures = 0
    for name, stream in STREAMS.items():
        for kind, digest in stream_digests(stream(SEED)).items():
            failures += not check(name, kind, digest, DIGESTS[name, kind])
    failures += not check("suites", "report", suite_digest(), SUITE_DIGEST)
    failures += not check("svg", "render", svg_digest(), SVG_DIGEST)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
