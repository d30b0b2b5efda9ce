"""Check that plan JSON is byte-stable on the benchmark's request streams.

Usage: python scripts/plan_digest.py

For the first 20 000 requests of each of perfbench/gen.py's uniform_pairs(7),
cli_pairs(7) and boundary_pairs(7), the script writes
json.dumps(plan_to_json(plan(start, goal))), one line per request, into a
sha256 digest, prints each stream's digest and exits 1 unless every digest
equals the frozen one below.  A change that must alter plan output on
purpose updates these values in the same change and says why.
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
from fig8plan.planner import plan, plan_to_json  # noqa: E402

SEED = 7
REQUESTS = 20_000
DIGESTS = {
    "uniform": "988cc6656e61d09b935e017c5a4834e8e5b9a4221bcf1b1e0b6fddc90c0a428c",
    "cli": "bb05002ae58c66bc40abc21cf23c91fbc24d7bd16b016a361eb1c578df3a749e",
    "boundary": "ee71fb21e1e53dc2a47a3a6ba1766d8a8c038c66823a9071c8a5ad7cdb56170f",
}
STREAMS = {"uniform": gen.uniform_pairs, "cli": gen.cli_pairs, "boundary": gen.boundary_pairs}


def stream_digest(pairs) -> str:
    h = hashlib.sha256()
    for _, ((s1, s2), (g1, g2)) in zip(range(REQUESTS), pairs):
        p = plan(configuration(*s1, *s2), configuration(*g1, *g2))
        h.update(json.dumps(plan_to_json(p)).encode() + b"\n")
    return h.hexdigest()


def main() -> int:
    failures = 0
    for name, stream in STREAMS.items():
        digest = stream_digest(stream(SEED))
        ok = digest == DIGESTS[name]
        print(f"{name:9} {digest} {'ok' if ok else 'CHANGED, expected ' + DIGESTS[name]}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
